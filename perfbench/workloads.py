"""The benchmark's three workloads: their inputs and their ops.

``prepare(name, seed)`` builds a workload's inputs outside any timed region
and returns a pass function.  A pass function takes ``timed(label, call,
check)`` and issues its ops through it one at a time (a closed loop with a
single client); ``timed`` times ``call()`` and keeps ``check`` to run on the
result after the pass.  Ops look engine functions up on their modules at
call time, so wrappers installed by ``tracer`` see every call.
"""

from __future__ import annotations

import contextlib
import io
import random

from flopcalc import cli, homalg, pbundle, verify
from flopcalc.pbundle import ModelVariety, XLineBundle

import checks

# verify-sweep: the swept checks for n = 2..VERIFY_MAX_N, pinned checks once
VERIFY_MAX_N = 12
# cohomology-queries: per n, QUERY_BINS classes in each of the j >= 0 and
# j <= -n-1 branches with |j| drawn one per bin of width QUERY_BIN_WIDTH,
# plus QUERY_BAND classes in the fibre-acyclic band; |k| <= QUERY_K_MAX
QUERY_NS = range(2, 9)
QUERY_BINS = 20
QUERY_BIN_WIDTH = 15
QUERY_BAND = 5
QUERY_K_MAX = 40
# ext-chase
CHASE_NS = range(2, 25)


def verify_argvs():
    """CLI argument lists in ``run_all`` order."""
    argvs = []
    for check_id in verify.SWEPT_CHECKS:
        for n in range(2, VERIFY_MAX_N + 1):
            argvs.append(["verify", check_id, "--n", str(n), "--json"])
    for check_id in verify.PINNED_CHECKS:
        argvs.append(["verify", check_id, "--n", "2", "--json"])
    return argvs


def run_cli(argv):
    """Exit code and stdout of one in-process ``flopcalc`` call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def query_classes(seed):
    """Seeded (n, j, k) stream covering all three pushforward branches.

    |j| is stratified into equal-width bins, and no two classes of one n
    push forward to bundles with the same twist (a class with j <= -n-1
    pushes forward through its Serre dual, with twist -k), so no two
    classes share a Bott weight.  The work of a pass then depends on the
    bins, not on the seed; which classes, and in which order, does.
    """
    rng = random.Random(seed)
    classes = []
    for n in QUERY_NS:
        twists = rng.sample(range(-QUERY_K_MAX, QUERY_K_MAX + 1), 2 * QUERY_BINS)
        for b in range(QUERY_BINS):
            size = b * QUERY_BIN_WIDTH + rng.randrange(QUERY_BIN_WIDTH)
            classes.append((n, size, twists[2 * b]))
            size = b * QUERY_BIN_WIDTH + rng.randrange(QUERY_BIN_WIDTH)
            classes.append((n, -n - 1 - size, -twists[2 * b + 1]))
        for _ in range(QUERY_BAND):
            classes.append((n, rng.randint(-n, -1), rng.randint(-QUERY_K_MAX, QUERY_K_MAX)))
    rng.shuffle(classes)
    return classes


def _verify_sweep(seed):
    reference = checks.load_verify_reference()
    argvs = [(argv, " ".join(argv)) for argv in verify_argvs()]

    def run_pass(timed):
        for argv, key in argvs:
            timed(key, lambda: run_cli(argv),
                  lambda result, key=key: checks.check_cli_output(key, reference.get(key), result))

    return run_pass


def _cohomology_queries(seed):
    queries = [
        (n, j, k, XLineBundle(ModelVariety(n), j, k), checks.chi_X(n, j, k))
        for n, j, k in query_classes(seed)
    ]

    def run_pass(timed):
        for n, j, k, lb, chi in queries:
            timed(f"cohomology_X n={n} j={j} k={k}", lambda: pbundle.cohomology_X(lb),
                  lambda table, n=n, j=j, k=k, chi=chi: checks.check_cohomology_X(n, j, k, table, chi))

    return run_pass


def _ext_chase(seed):
    def run_pass(timed):
        for n in CHASE_NS:
            systems = timed(f"reference_chase_systems n={n}",
                            lambda: homalg.reference_chase_systems(n),
                            lambda result, n=n: checks.check_systems(n, result))
            for system in systems or ():
                timed(f"chase_solve {system.name}", lambda: homalg.chase_solve(system),
                      lambda solution, system=system: checks.check_chase(system, solution))
            timed(f"ext_table_OY n={n}", lambda: homalg.ext_table_OY(n),
                  lambda table, n=n: checks.check_ext_table_OY(n, table))
            timed(f"koszul_euler_sum n={n}",
                  lambda: homalg.koszul_resolution(n).alternating_euler_sum(),
                  lambda total, n=n: checks.check_koszul_euler_sum(n, total))

    return run_pass


_PREPARE = {
    "verify-sweep": _verify_sweep,
    "cohomology-queries": _cohomology_queries,
    "ext-chase": _ext_chase,
}


def prepare(name, seed):
    """Build the inputs of workload ``name`` from ``seed``; return its pass function.

    verify-sweep and ext-chase have fixed inputs and ignore the seed.
    """
    return _PREPARE[name](seed)
