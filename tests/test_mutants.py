"""Engine mutants, each caught by a check that shares no code with the engine.

A mutant is one edit to the source text of an engine function.  The edited
text is compiled in memory into a copy of the function's module namespace,
so its own recursive calls reach the mutant, and ``monkeypatch`` binds it in
place of the function; no source file is copied or written.  Each edit must
match the source exactly once, so a mutant whose target text has changed
fails here rather than silently testing the unmutated function.  A mutant
comes with a fresh cache of its own, so no table the engine cached is read.

A mutant that no check catches belongs here as a strict xfail, with its
reason.
"""

import inspect
import textwrap

import pytest

import test_pbundle
from flopcalc import pbundle, verify
from riemann_roch import check_line_bundle_tables
from test_verify import check_prop_3_5_controls


def mutate(monkeypatch, module, name, old, new):
    """Bind ``module.name`` to its own source with ``old`` replaced by
    ``new``, and return the mutant."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    monkeypatch.setattr(module, name, namespace[name])
    return namespace[name]


# the per-degree forms of pbundle._cohomology_coords for j >= 0; the first
# is caught by the Euler characteristic, the other two first by a zero dim
TABLE_MUTANTS = {
    "h0-guard-off-by-one": ("if j + k >= 0:", "if j + k >= 1:"),
    "hn-bound-off-by-one": ("hi = (top - 1) // 2\n", "hi = (top - 1) // 2 + 1\n"),
    "hn1-subtracts-S(lo)": ("comb(n + lo - 1, n) * comb(-lo - k, n)",
                            "comb(n + lo, n) * comb(-lo - k - 1, n)"),
}


@pytest.mark.parametrize("old, new", TABLE_MUTANTS.values(), ids=TABLE_MUTANTS)
def test_riemann_roch_catches_table_mutant(monkeypatch, old, new):
    mutant = mutate(monkeypatch, pbundle, "_cohomology_coords", old, new)
    monkeypatch.setattr(pbundle, "cohomology_coords", mutant)
    with pytest.raises(AssertionError):
        check_line_bundle_tables()


def test_unmutated_copy_is_the_engine(monkeypatch):
    # the control: the same compile-and-bind path with no edit changes nothing
    engine = pbundle._cohomology_coords
    copy = mutate(monkeypatch, pbundle, "_cohomology_coords", "if j + k >= 0:",
                  "if j + k >= 0:")
    assert copy is not engine
    for n in range(2, 7):
        for j in range(-3 * n - 3, 2 * n + 3):
            for k in range(-2 * n - 3, 2 * n + 4):
                assert copy(n, j, k) == engine(n, j, k), (n, j, k)


# the Serre branch of pbundle._cohomology_coords, each caught by the direct
# loop, which the tests continue below the band by reflecting the partner's
# table themselves; chi cannot see the second, as it keeps each parity
SERRE_MUTANTS = {
    "reversed-dropped": ("for d, v in reversed(partner)", "for d, v in partner"),
    "degree-moved-by-2": ("(2 * n - d, v)", "(2 * n - 2 - d, v)"),
}


def check_line_bundles_against_the_direct_loop():
    for n in (2, 3, 4, 5):
        test_pbundle.TestClosedFormMatchesLoop().test_line_bundles(n)


@pytest.mark.parametrize("old, new", SERRE_MUTANTS.values(), ids=SERRE_MUTANTS)
def test_direct_loop_catches_serre_mutant(monkeypatch, old, new):
    mutate(monkeypatch, pbundle, "_cohomology_coords", old, new)
    with pytest.raises(AssertionError):
        check_line_bundles_against_the_direct_loop()


def test_unmutated_serre_branch_passes_the_direct_loop(monkeypatch):
    engine = pbundle._cohomology_coords
    copy = mutate(monkeypatch, pbundle, "_cohomology_coords", "for d, v in reversed(partner)",
                  "for d, v in reversed(partner)")
    assert copy is not engine
    check_line_bundles_against_the_direct_loop()


# prop-3-5's fit and pair walk, each caught by the brute force of
# tests/test_verify.py on psi and its controls
PROP_3_5_MUTANTS = {
    "u-v-swapped": ("verify_prop_3_5",
                    "uj, uk = points[n + 1][2] - j0, points[n + 1][3] - k0\n"
                    "    vj, vk = points[1][2] - j0, points[1][3] - k0",
                    "vj, vk = points[n + 1][2] - j0, points[n + 1][3] - k0\n"
                    "    uj, uk = points[1][2] - j0, points[1][3] - k0"),
    "after-reads-before": ("verify_prop_3_5",
                           "after = pbundle.cohomology_coords(n, pbj - paj, pbk - pak)",
                           "after = pbundle.cohomology_coords(n, bj - aj, bk - ak)"),
    "witness-pairs-skip-k-edge": ("_witness_pairs",
                                  "for bk in every if ak == 0 else (0,):",
                                  "for bk in (0,):"),
}


@pytest.mark.parametrize("name, old, new", PROP_3_5_MUTANTS.values(), ids=PROP_3_5_MUTANTS)
def test_brute_force_catches_prop_3_5_mutant(monkeypatch, name, old, new):
    mutate(monkeypatch, verify, name, old, new)
    with pytest.raises(AssertionError):
        check_prop_3_5_controls(monkeypatch, 3)


def test_unmutated_prop_3_5_passes_the_brute_force(monkeypatch):
    mutate(monkeypatch, verify, "verify_prop_3_5", "_, _, j0, k0 = points[0]",
           "_, _, j0, k0 = points[0]")
    check_prop_3_5_controls(monkeypatch, 3)
