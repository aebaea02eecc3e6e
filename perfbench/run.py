"""flopcalc benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a flopcalc checkout; the engine is imported from its
``src``.  Workloads (see ``workloads.py``): verify-sweep, cohomology-queries,
ext-chase.  Every pass runs in a fresh worker process, one at a time (a
closed loop with one client and no threads), until ``--seconds`` have
passed and at least MIN_PASSES passes are done.

--trace 0 reports BENCHMARK.json's end-to-end metrics, medians over passes:
wall time of the cold pass, of the warm pass (the same ops again in the same
process, caches full), median and tail op latency of the cold passes, the
time a fresh interpreter takes to ``import flopcalc.cli``, and peak RSS.

--trace 1 alternates traced and untraced workers and reports the per-layer
metrics: calls and self time of each wrapped engine function, cache
statistics, work counts, and the tracing overhead.  The first traced pass
writes its spans to .bench_build/perfbench/.

Human-readable lines come first; the last line of stdout is the JSON result.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify-sweep", "cohomology-queries", "ext-chase")
MIN_PASSES = 3
SETUP_PROBES = 5
# every worker must end before the run's 180 s limit
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def tail_percentile(ops_per_pass):
    """Highest whole percentile that leaves at least ten ops of one pass beyond it."""
    return max(50, math.floor(100 - 1000 / ops_per_pass))


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


class Runner:
    def __init__(self, root, workload, seed, seconds):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.deadline = self.started + seconds
        self.build_dir = root / ".bench_build" / "perfbench"
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
        )

    def build(self):
        """Compile the engine's bytecode, so set-up time never includes compiling."""
        self.build_dir.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(self.root / "src" / "flopcalc"), str(HERE)],
            env=self.env, check=True, stdout=subprocess.DEVNULL,
            timeout=HARD_LIMIT_S,
        )

    def spawn(self, mode, spans=None):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        if spans:
            cmd += ["--spans", str(spans)]
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the last worker could start")
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=remaining)
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()}")
        return json.loads(proc.stdout.splitlines()[-1])

    def repeat(self, *modes):
        """Run workers in the given modes in turn until the time is up.

        Stops before a round that would end past the deadline, once every
        mode has MIN_PASSES results (a fixed minimum for short runs).
        """
        results = {mode: [] for mode in modes}
        last = 0.0
        while (len(results[modes[-1]]) < MIN_PASSES
               or time.monotonic() + last <= self.deadline):
            t0 = time.monotonic()
            for mode in modes:
                results[mode].append(self.spawn(mode))
            last = time.monotonic() - t0
        return results


def counts_of(report):
    counts = dict(report["counts"])
    counts.update({f"{name}.calls": row[0] for name, row in report.get("layers", {}).items()})
    return counts


def measure(runner, spec):
    probes = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
    passes = runner.repeat("pass")["pass"]
    per_pass = len(passes[0]["op_s"])
    pct = tail_percentile(per_pass)
    ops = [dt for p in passes for dt in p["op_s"]]
    warm = [w for p in passes for w in p["warm_wall_s"]]
    setup = [p["import_s"] for p in probes + passes]
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "warm_wall_s": statistics.median(warm),
        "op_p50_ms": 1000 * statistics.median(ops),
        "op_tail_ms": 1000 * statistics.median(nearest_rank(sorted(p["op_s"]), pct) for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    raw = {
        "wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "setup_s": statistics.median(p["raw_import_s"] for p in probes + passes),
    }
    notes = {
        "wall_s": f"median of {len(passes)} cold passes, one fresh process each",
        "warm_wall_s": f"median of {len(warm)} warm passes",
        "op_p50_ms": f"median of {len(ops)} cold ops ({per_pass} per pass)",
        "op_tail_ms": f"median over passes of each cold pass's p{pct} of {per_pass} ops",
        "setup_s": f"median of {len(setup)} fresh-interpreter imports of flopcalc.cli",
        "peak_rss_mb": "median over workers of ru_maxrss after both passes",
    }
    attempted = sum(len(p["op_s"]) + p["warm_ops"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for m in spec["end_to_end"]:
        name = m["name"]
        as_measured = f", {raw[name]:.6g} as measured" if name in raw else ""
        print(f"{name:<12} {values[name]:.6g} {m['unit']}  ({notes[name]}{as_measured})")
    print(f"{'fail_ratio':<12} {len(failures) / attempted:.6g} 1  "
          f"({len(failures)} failed of {attempted} ops, cold and warm)")
    speed = statistics.median(p["speed"] for p in passes)
    print(f"host speed: {speed:.3f} of the reference speed (median over passes)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    return [passes], attempted, failures, metrics


def layer_value(name, traced, plain):
    layer, _, stat = name.rpartition(".")
    if layer == "trace":
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        plain_wall = statistics.median(p["wall_s"] for p in plain)
        return {"wall_s": traced_wall, "untraced_wall_s": plain_wall,
                "overhead_s": traced_wall - plain_wall}[stat]
    if stat == "self_s":
        return statistics.median(p["layers"].get(layer, (0, 0.0, 0.0))[2] for p in traced)
    counts = counts_of(traced[0])
    if stat == "calls":
        return counts.get(name, 0)
    if stat == "hit_ratio":
        hits, misses = counts[f"{layer}.hits"], counts[f"{layer}.misses"]
        return hits / (hits + misses) if hits + misses else 0.0
    if stat == "solved_ratio":
        posed = counts[f"{layer}.unknowns"]
        return counts[f"{layer}.solved"] / posed if posed else 0.0
    return counts[name]


def trace(runner, spec):
    spans = runner.build_dir / f"spans-{runner.workload}-seed{runner.seed}.tsv.gz"
    first = runner.spawn("traced", spans=spans)
    results = runner.repeat("pass", "traced")
    traced = [first] + results["traced"]
    passes = traced + results["pass"]
    attempted = sum(len(p["op_s"]) + p["warm_ops"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    metrics = {}
    for m in spec["per_layer"]:
        value = layer_value(m["name"], traced, results["pass"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<52} {value:.6g} {m['unit']}")
    print(f"self times are medians of {len(traced)} traced passes; spans of the first in {spans}")
    return [traced, results["pass"]], attempted, failures, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "flopcalc" / "__init__.py").is_file():
        print("perfbench: src/flopcalc not found; run from the root of a flopcalc checkout",
              file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    runner = Runner(root, args.workload, args.seed, args.seconds)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()}")
    try:
        runner.build()
        groups, attempted, failures, metrics = (trace if args.trace else measure)(runner, spec)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    # exact counts must repeat between passes of one kind (traced passes count more)
    repeated = all(counts_of(p) == counts_of(group[0]) for group in groups for p in group)
    print("counts: " + " ".join(f"{k}={v}" for k, v in sorted(counts_of(groups[0][0]).items())))
    print(f"counts identical in all {sum(map(len, groups))} passes: {repeated}")
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures and repeated,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
