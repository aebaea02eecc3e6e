"""One fresh-interpreter pass of a workload, reported as JSON on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|pass|traced [--spans PATH]

``setup`` only times ``import flopcalc.cli``.  ``pass`` runs the cold pass
(empty caches, as a new ``flopcalc`` process has them) and then warm passes
in this process with the caches full.  ``traced`` runs the cold pass with
``tracer`` wrappers installed and reports the spans' per-layer totals.
Times are at the reference speed (see ``calibration.py``).

Run by ``run.py`` with ``src`` on PYTHONPATH.
"""

import sys
import time

from calibration import Clock


def main(argv):
    clock = Clock()
    t0 = time.perf_counter()
    import flopcalc.cli  # noqa: F401  (timed: the set-up a flopcalc process pays)
    t1 = time.perf_counter()
    clock.calibrate()

    # imported only after the timed import, so they cannot pre-load its dependencies
    import argparse
    import json
    import resource

    import passes
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "pass", "traced"], required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    report = {"import_s": clock.scaled(t0, t1), "raw_import_s": t1 - t0}
    if args.mode != "setup":
        pass_fn = workloads.prepare(args.workload, args.seed)
        report.update(passes.worker_report(pass_fn, clock, args.mode, args.spans))
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
