"""Running a workload's passes in one worker, with times at the reference speed."""

from __future__ import annotations

from time import perf_counter

import tracer as tracing

# warm passes repeat back to back until they have taken this long (at least
# once, at most WARM_MAX times), so that a pass of cache hits is timed more
# than once
WARM_MIN_S = 0.2
WARM_MAX = 1000


def run_pass(pass_fn, clock, tracer=None):
    """Run one pass; return its (start, end), each op's (start, end), and failures.

    The clock may calibrate between ops.  Each op's check runs after the
    pass, outside its timing.  With a tracer, every op is a root span ``op``.
    """
    records = []

    def timed(label, call, check):
        clock.tick()
        idx = tracer.open("op") if tracer else None
        t0 = perf_counter()
        try:
            result = call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            records.append((label, t0, perf_counter(), None, exc))
            result = None
        else:
            records.append((label, t0, perf_counter(), check, result))
        if tracer:
            tracer.close(idx)
        return result

    start = perf_counter()
    pass_fn(timed)
    end = perf_counter()

    failures = []
    for label, _, _, check, result in records:
        if check is None:
            failures.append(f"{label}: raised {result!r}")
        else:
            problem = check(result)
            if problem is not None:
                failures.append(f"{label}: {problem}")
    return (start, end), [(t0, t1) for _, t0, t1, _, _ in records], failures


def worker_report(pass_fn, clock, mode, spans=None):
    """The cold pass (traced if ``mode`` is "traced"), then for "pass" the
    warm passes; times in the report are at the reference speed.

    Per-layer span times are scaled by the cold pass's overall factor.
    """
    tracer = tracing.Tracer() if mode == "traced" else None
    if tracer:
        tracer.install()
    try:
        span, ops, failures = run_pass(pass_fn, clock, tracer)
    finally:
        if tracer:
            tracer.restore()
    counts = {"ops": len(ops)}
    for layer, (hits, misses, size) in tracing.cache_stats().items():
        counts[f"{layer}.hits"] = hits
        counts[f"{layer}.misses"] = misses
        counts[f"{layer}.cache_size"] = size

    warm, warm_ops = [], 0
    while mode == "pass" and len(warm) < WARM_MAX and (
            not warm or sum(e - s for s, e in warm) < WARM_MIN_S):
        warm_span, warm_op_spans, warm_failures = run_pass(pass_fn, clock)
        warm.append(warm_span)
        warm_ops += len(warm_op_spans)
        failures += warm_failures
    clock.calibrate()

    report = {
        "wall_s": clock.scaled(*span),
        "raw_wall_s": clock.raw(*span),
        "op_s": [clock.scaled(*op) for op in ops],
        "warm_wall_s": [clock.scaled(*w) for w in warm],
        "warm_ops": warm_ops,
        "counts": counts,
        "failures": failures,
    }
    report["speed"] = report["wall_s"] / report["raw_wall_s"]
    if tracer:
        counts.update(tracer.counts)
        report["layers"] = {name: [calls, total * report["speed"], self_s * report["speed"]]
                            for name, (calls, total, self_s) in tracer.summary().items()}
        if spans:
            tracer.write_spans(spans)
    return report
