import itertools

import pytest

from flopcalc import flop, homalg, pbundle, verify
from flopcalc.bwb import CohomologyTable
from flopcalc.flop import PicMap, apply_psi
from flopcalc.pbundle import ModelVariety, Side, XLineBundle
from flopcalc.verify import (
    ALL_CHECK_IDS,
    CheckResult,
    Status,
    exit_code,
    run_all,
    run_check,
    verify_cor_2_2,
    verify_lemma_1_3,
    verify_lemma_1_6,
    verify_lemma_2_1,
    verify_lemma_2_3,
    verify_lemma_3_4,
    verify_prop_3_5,
    verify_serre_3_6,
)

SHEAR = PicMap(((1, 1), (0, 1)))


def first_failing_pair(n, psi):
    """Brute force: the first pair, in spanning-class order, whose Hom tables
    psi does not preserve, as prop-3-5 reports it; None if there is none."""
    classes = flop.enumerate_spanning_class(n, flop.SpanningClass.OMEGA_PRIME)
    for a in classes:
        for b in classes:
            before = pbundle.hom_dims(a, b)
            after = pbundle.hom_dims(psi(a), psi(b))
            if before != after:
                return {
                    "a": a.coords(), "b": b.coords(),
                    "before": before.dims(), "after": after.dims(),
                }
    return None


def first_lemma_3_4_failure(n):
    """Brute force: the first (family, l, m), in the suite's order, whose class
    has higher cohomology, computing every case's table; None if there is none."""
    for l in range(-n, n + 1):
        for m in range(-n, n + 1):
            for family, (j, k) in (("direct", (l, m)), ("flopped", (l + m, -m))):
                dims = pbundle.cohomology_coords(n, j, k).dims()
                higher = {i: d for i, d in dims.items() if i > 0}
                if higher:
                    return {"family": family, "l": l, "m": m, "higher": higher}
    return None


def psi_from(image):
    """A map onto X_PLUS from a function (n, j, k) -> (j', k')."""
    def psi(lb):
        n = lb.variety.n
        return XLineBundle(ModelVariety(n, Side.X_PLUS), *image(n, lb.j, lb.k))
    return psi


AFFINE_MAPS = {
    "identity": lambda n, j, k: (j, k),
    "psi-translated": lambda n, j, k: (j + k + 3, -k - 2),
    "swap": lambda n, j, k: (k, j),
    "dilation": lambda n, j, k: (2 * j, k),
}

# maps that agree with psi on the edges j = -n and k = -n of the rectangle
NON_AFFINE_MAPS = {
    "bent-k": lambda n, j, k: (j + k, -k + (j + n) * (k + n)),
    "bent-j": lambda n, j, k: (j + k + (j + n) * (k + n), -k),
    "top-corner-moved": lambda n, j, k: (j + k, -k + (j == k == 0)),
}

MAPS = {**AFFINE_MAPS, **NON_AFFINE_MAPS}


def moved_psi(moved, offset):
    """The true psi, except that the image of the class ``moved`` is shifted."""
    def psi(lb):
        image = apply_psi(lb)
        if lb.coords() != moved:
            return image
        return XLineBundle(image.variety, image.j + offset[0], image.k + offset[1])
    return psi


class TestIndividualSuites:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_lemma_1_3(self, n):
        result = verify_lemma_1_3(n)
        assert result.status is Status.PASS
        assert result.evidence["h0_cross_class"] == n + 1

    def test_lemma_1_3_negative_control(self, monkeypatch):
        monkeypatch.setattr(flop, "phi_pullback", lambda n: SHEAR)
        result = verify_lemma_1_3(2)
        assert result.status is Status.FAIL
        assert "counterexample" in result.evidence

    @pytest.mark.parametrize("n", [2, 3])
    def test_lemma_1_6(self, n):
        result = verify_lemma_1_6(n)
        assert result.status is Status.PASS
        assert result.evidence["cases"] == (n + 1) * (n + 1)
        assert result.evidence["ideal_twist_cases"] == n + 1

    def test_lemma_2_1(self):
        result = verify_lemma_2_1(2)
        assert result.status is Status.PASS
        assert result.evidence["ext1_wedge2_term"] == 1
        assert result.evidence["ext1_wedge1_term"] == "unknown"

    def test_lemma_2_1_only_defined_at_n2(self):
        with pytest.raises(ValueError):
            verify_lemma_2_1(3)

    @pytest.mark.parametrize("p, ext1, status, counterexample, unknown", [
        (2, None, Status.UNDERDETERMINED, None, [1, 2, 3]),
        (2, 2, Status.FAIL, {"ext1_wedge2_term": 2}, [2, 3]),
        (1, 3, Status.FAIL, {"ext1_wedge1_term": 3}, [2]),
        (1, 0, Status.PASS, None, [2]),
    ])
    def test_lemma_2_1_negative_controls(self, monkeypatch, p, ext1, status, counterexample,
                                         unknown):
        # the chased Ext^1 of the p-th Koszul term is replaced by ext1
        chased = homalg.ext_locally_free_vs_ideal

        def patched(q, n):
            table = chased(q, n)
            return table[:1] + (ext1,) + table[2:] if q == p else table

        monkeypatch.setattr(homalg, "ext_locally_free_vs_ideal", patched)
        result = verify_lemma_2_1(2)
        assert result.status is status
        assert result.evidence.get("counterexample") == counterexample
        assert result.evidence[f"ext1_wedge{p}_term"] == ext1
        assert result.evidence[f"unknown_degrees_wedge{p}"] == unknown

    @pytest.mark.parametrize("n", [2, 5])
    def test_lemma_2_3(self, n):
        result = verify_lemma_2_3(n)
        assert result.status is Status.PASS
        assert result.evidence["table"] == {i: 1 for i in range(0, 2 * n + 1, 2)}

    def test_cor_2_2(self):
        result = verify_cor_2_2(2)
        assert result.status is Status.PASS
        assert (result.evidence["ext2_source"], result.evidence["ext2_image"]) == (0, 1)
        assert result.evidence["h2_structure_sheaf"] == 0
        assert result.evidence["ext_table_centre"] == {0: 1, 2: 1, 4: 1}

    def test_cor_2_2_unsettled_chase(self, monkeypatch):
        def unsettled(n):
            raise homalg.ChaseUnderdeterminedError("the chase does not determine 'Ext^2(I,I)'")

        monkeypatch.setattr(homalg, "ext2_ideal_self_with_trace", unsettled)
        result = verify_cor_2_2(2)
        assert result.status is Status.UNDERDETERMINED
        assert result.evidence == {"chase": "the chase does not determine 'Ext^2(I,I)'"}

    @pytest.mark.parametrize("n", [2, 4])
    def test_lemma_3_4(self, n):
        result = verify_lemma_3_4(n)
        assert result.status is Status.PASS
        assert result.evidence["cases"] == 2 * (2 * n + 1) ** 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_prop_3_5(self, n):
        result = verify_prop_3_5(n)
        assert result.status is Status.PASS
        assert result.evidence["pairs"] == (n + 1) ** 4

    def test_prop_3_5_verdict_matches_lemma_3_4(self):
        # psi keeps the Hom tables because neither class family has higher
        # cohomology (section 3): the two suites agree at every n
        for n in range(2, 17):
            assert verify_prop_3_5(n).status is verify_lemma_3_4(n).status, n

    @pytest.mark.parametrize("n", [2, 3])
    def test_prop_3_5_negative_control_affine(self, monkeypatch, n):
        def shear(lb):  # (j, k) -> (j + k, k): affine, but not psi
            return XLineBundle(apply_psi(lb).variety, lb.j + lb.k, lb.k)

        expected = first_failing_pair(n, shear)
        monkeypatch.setattr(flop, "apply_psi", shear)
        result = verify_prop_3_5(n)
        assert result.status is Status.FAIL
        assert result.evidence["counterexample"] == expected

    @pytest.mark.parametrize("n", [2, 3])
    def test_prop_3_5_negative_control_one_class_moved(self, monkeypatch, n):
        classes = flop.enumerate_spanning_class(n, flop.SpanningClass.OMEGA_PRIME)
        corner = apply_psi(classes[0])
        for c in classes[1:]:
            dk = c.k + n
            image = apply_psi(c)
            offsets = {
                (0, 1),
                # sends the difference (dj, dk) from the corner class to itself, not
                # to (dj + dk, -dk), which has the same table: so Hom from the corner
                # is kept and the first failing pair repeats a difference b - a
                (-dk, 2 * dk),
                # moves c onto the corner's image: the first failing pair repeats
                # the difference psi(b) - psi(a) of the pair (corner, corner)
                (corner.j - image.j, corner.k - image.k),
            } - {(0, 0)}
            for offset in sorted(offsets):
                psi = moved_psi(c.coords(), offset)
                expected = first_failing_pair(n, psi)
                monkeypatch.setattr(flop, "apply_psi", psi)
                result = verify_prop_3_5(n)
                assert result.status is Status.FAIL
                assert result.evidence["counterexample"] == expected

    @pytest.mark.parametrize("n", range(2, 7))
    def test_prop_3_5_compares_each_difference_once(self, monkeypatch, n):
        calls = []
        hom_dims = pbundle.hom_dims

        def counting(a, b):
            calls.append((a, b))
            return hom_dims(a, b)

        monkeypatch.setattr(pbundle, "hom_dims", counting)
        result = verify_prop_3_5(n)
        assert result.status is Status.PASS
        assert result.evidence["pairs"] == (n + 1) ** 4
        assert 0 < len(calls) <= 2 * (2 * n + 1) ** 2

    @pytest.mark.parametrize("n", range(1, 9))
    def test_prop_3_5_witness_pairs_are_first_of_each_difference(self, n):
        side = n + 1
        first = {}
        for a, b in itertools.product(range(side * side), repeat=2):
            (aj, ak), (bj, bk) = divmod(a, side), divmod(b, side)
            first.setdefault((bj - aj, bk - ak), (a, b))
        assert list(verify._witness_pairs(n)) == list(first.values())
        assert len(first) == (2 * n + 1) ** 2

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("name", sorted(AFFINE_MAPS))
    def test_prop_3_5_other_affine_maps(self, monkeypatch, name, n):
        psi = psi_from(AFFINE_MAPS[name])
        expected = first_failing_pair(n, psi)
        assert (expected is None) == (name in ("identity", "psi-translated"))
        monkeypatch.setattr(flop, "apply_psi", psi)
        result = verify_prop_3_5(n)
        assert result.status is (Status.PASS if expected is None else Status.FAIL)
        assert result.evidence.get("counterexample") == expected

    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_prop_3_5_compares_each_key_once(self, monkeypatch, name, n):
        # with every table equal no pair fails, so each distinct key
        # (b - a, psi(b) - psi(a)) over all pairs is compared exactly once
        psi = psi_from(MAPS[name])
        classes = flop.enumerate_spanning_class(n, flop.SpanningClass.OMEGA_PRIME)
        keys = {((b - a).coords(), (psi(b) - psi(a)).coords()) for a in classes for b in classes}
        calls = []

        def constant(a, b):
            calls.append((a, b))
            return pbundle.cohomology_X(XLineBundle(a.variety, 0, 0))

        monkeypatch.setattr(pbundle, "hom_dims", constant)
        monkeypatch.setattr(flop, "apply_psi", psi)
        assert verify_prop_3_5(n).status is Status.PASS
        assert len(calls) == 2 * len(keys)
        assert (len(keys) == (2 * n + 1) ** 2) == (name in AFFINE_MAPS)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_prop_3_5_one_corrupted_difference(self, monkeypatch, n):
        hom_dims = pbundle.hom_dims
        for d0 in [(0, 0), (-n, -n), (n, n), (-n, n), (1, -2), (n - 1, 0)]:
            def corrupted(a, b, d0=d0):
                table = hom_dims(a, b)
                if a.variety.side is Side.X and (b - a).coords() == d0:
                    return CohomologyTable.from_dict({**table.dims(), 0: table.get(0) + 1})
                return table

            monkeypatch.setattr(pbundle, "hom_dims", corrupted)
            expected = first_failing_pair(n, apply_psi)
            assert (expected["b"][0] - expected["a"][0], expected["b"][1] - expected["a"][1]) == d0
            result = verify_prop_3_5(n)
            assert result.status is Status.FAIL
            assert result.evidence["counterexample"] == expected

    @pytest.mark.parametrize("n", range(2, 9))
    def test_prop_3_5_call_counts(self, monkeypatch, n):
        counts = {"hom_dims": 0, "apply_psi": 0}

        def counting(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(pbundle, "hom_dims", counting("hom_dims", pbundle.hom_dims))
        monkeypatch.setattr(flop, "apply_psi", counting("apply_psi", flop.apply_psi))
        assert verify_prop_3_5(n).status is Status.PASS
        assert counts == {"hom_dims": 2 * (2 * n + 1) ** 2, "apply_psi": (n + 1) ** 2}

    @pytest.mark.parametrize("n, distinct", [(2, 31), (5, 151)])
    def test_lemma_3_4_computes_each_class_once(self, monkeypatch, n, distinct):
        classes = []
        cohomology_coords = pbundle.cohomology_coords

        def counting(n, j, k):
            classes.append((j, k))
            return cohomology_coords(n, j, k)

        monkeypatch.setattr(pbundle, "cohomology_coords", counting)
        result = verify_lemma_3_4(n)
        assert result.status is Status.PASS
        assert result.evidence["cases"] == 2 * (2 * n + 1) ** 2
        assert len(classes) == len(set(classes)) == distinct

    @pytest.mark.parametrize("n, bad, family", [
        (2, (0, -1), "flopped"),   # direct at (l, m) = (0, -1), flopped first at (-1, 1)
        (2, (3, -1), "flopped"),   # outside the square: only ever flopped
        (2, (-2, -2), "direct"),
        (5, (1, -3), "flopped"),
        (5, (-7, 2), "flopped"),
        (5, (4, 4), "direct"),
    ])
    def test_lemma_3_4_negative_control(self, monkeypatch, n, bad, family):
        cohomology_coords = pbundle.cohomology_coords

        def patched(n, j, k):
            table = cohomology_coords(n, j, k)
            if (j, k) == bad:
                return CohomologyTable.from_dict({**table.dims(), 1: 2})
            return table

        monkeypatch.setattr(pbundle, "cohomology_coords", patched)
        expected = first_lemma_3_4_failure(n)
        assert expected["family"] == family
        result = verify_lemma_3_4(n)
        assert result.status is Status.FAIL
        assert result.evidence["counterexample"] == expected

    def test_lemma_3_4_argument_on_the_range_bounds(self):
        # verify_lemma_3_4's docstring argument, engine-free: the degrees whose
        # range of a is non-empty, with the bounds of pbundle's docstring
        # restated, for every class of both families on the box
        def degrees(n, j, k):
            bounds = ((0, -k, j), (n - 1, (-k - n) // 2 + 1, -k - n),
                      (n, 0, -((k + n) // 2) - 1))
            return [deg for deg, lo, hi in bounds if max(lo, 0) <= min(hi, j)]

        for n in range(2, 31):
            box = range(-n, n + 1)
            for l in box:
                for m in box:
                    for j, k in ((l, m), (l + m, -m)):
                        if j >= 0:
                            assert degrees(n, j, k) in ([], [0]), (n, j, k)
                        elif j < -n:   # Serre reflects every degree above 0
                            assert degrees(n, -n - 1 - j, -k) == [], (n, j, k)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_serre_3_6(self, n):
        result = verify_serre_3_6(n)
        assert result.status is Status.PASS
        assert result.evidence["canonical_class"] == (-n - 1, 0)

    def test_serre_3_6_negative_control(self, monkeypatch):
        # SHEAR fixes the canonical class, so only the psi comparison catches it
        monkeypatch.setattr(flop, "phi_pullback", lambda n: SHEAR)
        result = verify_serre_3_6(2)
        assert result.status is Status.FAIL
        assert result.evidence["counterexample"] == {"matrix": [[1, 1], [0, 1]]}


class TestRunner:
    def test_run_all_passes_and_sorts(self):
        results = run_all(3)
        assert all(r.status is Status.PASS for r in results)
        keys = [(r.check_id, r.n) for r in results]
        assert keys == sorted(keys)
        assert {r.check_id for r in results} == set(ALL_CHECK_IDS)

    def test_run_all_is_idempotent(self):
        assert run_all(2) == run_all(2)

    def test_run_check_dispatch(self):
        assert run_check("lemma-3-4", 2).status is Status.PASS
        with pytest.raises(ValueError):
            run_check("lemma-9-9", 2)

    @pytest.mark.parametrize("n", [1, 3, 7])
    @pytest.mark.parametrize("check_id", sorted(verify.PINNED_CHECKS))
    def test_pinned_check_refuses_other_n_before_any_table(self, check_id, n):
        pbundle._cohomology_coords.cache_clear()
        with pytest.raises(ValueError, match="specific to n = 2"):
            run_check(check_id, n)
        assert pbundle._cohomology_coords.cache_info().currsize == 0

    @pytest.mark.parametrize("check_id", sorted(verify.PINNED_CHECKS))
    def test_pinned_check_runs_its_suite_at_n2(self, check_id):
        result = run_check(check_id, 2)
        assert result == verify.PINNED_CHECKS[check_id](2)
        assert (result.check_id, result.n, result.status) == (check_id, 2, Status.PASS)

    @pytest.mark.parametrize("n", [1, 0, -3])
    @pytest.mark.parametrize("check_id", sorted(verify.SWEPT_CHECKS))
    def test_swept_check_rejects_degenerate_n(self, check_id, n):
        with pytest.raises(ValueError) as info:
            run_check(check_id, n)
        assert str(info.value) == f"the model needs n >= 2, got n={n}"

    def test_run_all_rejects_small_bound(self):
        with pytest.raises(ValueError):
            run_all(1)


class TestExitCodes:
    def mk(self, status):
        evidence = {"counterexample": {}} if status is Status.FAIL else {}
        return CheckResult("lemma-1-3", 2, status, evidence)

    def test_all_pass(self):
        assert exit_code([self.mk(Status.PASS)]) == 0

    def test_fail_wins(self):
        results = [self.mk(Status.PASS), self.mk(Status.FAIL), self.mk(Status.UNDERDETERMINED)]
        assert exit_code(results) == 1

    def test_underdetermined_without_fail(self):
        assert exit_code([self.mk(Status.PASS), self.mk(Status.UNDERDETERMINED)]) == 3

    def test_fail_requires_counterexample(self):
        with pytest.raises(ValueError):
            CheckResult("lemma-1-3", 2, Status.FAIL, {})
