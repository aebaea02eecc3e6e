import hashlib
import random
from itertools import combinations_with_replacement
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flopcalc import bwb, flop, homalg, pbundle
from flopcalc.bwb import (
    EMPTY_TABLE,
    CohomologyTable,
    HomogeneousBundle,
    LeviWeight,
    bott_cohomology,
    bott_sort,
    cohomology_sum,
    dual,
    exterior_power_theta,
    form_bundle,
    line_bundle,
    structure_sheaf,
    tangent_bundle,
    tensor_with_sym,
    weyl_dim,
)
from flopcalc.pbundle import (
    ModelVariety,
    Side,
    XLineBundle,
    canonical_class,
    cohomology_X,
    cohomology_with_pullback_twist,
    hom_dims,
)


@pytest.fixture
def v2():
    return ModelVariety(2)


# Riemann-Roch on the base, sharing no code with the engine:
# chi(P^n, O(m)) = C(m + n, n) as a polynomial in m, and the Euler sequence
# gives chi(Sym^a Theta(k)) = C(n+a, n) chi(O(a+k)) - C(n+a-1, n) chi(O(a-1+k)).
# chi(X, O(j) (x) pi^*O(k)) = sum over a <= j of those, continued to j < 0
# as the polynomial it is (the empty sum at j = -1).


def binom_poly(m, r):
    num = 1
    for i in range(r):
        num *= m - i
    return num // factorial(r)


def chi_sym(n, a, k):
    return (binom_poly(n + a, n) * binom_poly(a + k + n, n)
            - binom_poly(n + a - 1, n) * binom_poly(a - 1 + k + n, n))


def chi_box(n, js, ks):
    """chi(X, O(j) (x) pi^*O(k)) for j over js and k in ks, by the sum above.

    The sums over a run upward from a = 0 and downward from a = -1 as
    prefix sums, so the box costs one chi_sym per (j, k), not |j| of them.
    """
    chi = {}
    for k in ks:
        total = 0
        for j in range(0, max(js) + 1):
            total += chi_sym(n, j, k)
            chi[j, k] = total
        total = 0
        for j in range(-1, min(js) - 1, -1):
            chi[j, k] = total
            total -= chi_sym(n, j, k)
    return chi


class TestCohomologyXRegression:
    # sha256 over (n, j, k, entries) of cohomology_X for n = 2..6, k = -8..8
    # and j = -5n..5n plus four large j, recorded before the one-run Pieri
    # branch; the range reaches the prefix walk, the Serre reflection, the
    # acyclic band and the closed form on both sides of the prefix
    DIGEST = "6b090e9d943758bd80dd60155bf9a0fab798128f4c4f8113be3872f445b3b848"

    def test_digest(self):
        h = hashlib.sha256()
        for n in range(2, 7):
            v = ModelVariety(n)
            for k in range(-8, 9):
                for j in [*range(-5 * n, 5 * n + 1), 60, 97, 150, 10**6]:
                    entries = cohomology_X(XLineBundle(v, j, k)).entries
                    h.update(repr((n, j, k, entries)).encode())
        assert h.hexdigest() == self.DIGEST


class TestModelVariety:
    def test_rejects_degenerate_n(self):
        for n in (0, 1, -3):
            with pytest.raises(ValueError):
                ModelVariety(n)

    def test_dimension(self):
        # Serre duality puts the canonical class's one section in degree dim X = 6
        v = ModelVariety(3)
        assert cohomology_X(canonical_class(v)).dims() == {6: 1}


class TestLatticeArithmetic:
    def test_difference(self, v2):
        a = XLineBundle(v2, 0, 1)
        b = XLineBundle(v2, 2, -1)
        assert (b - a).coords() == (2, -2)

    def test_mismatched_varieties_rejected(self, v2):
        other = XLineBundle(ModelVariety(2, Side.X_PLUS), 0, 0)
        with pytest.raises(ValueError):
            XLineBundle(v2, 0, 0) - other

    def test_canonical_class(self, v2):
        assert canonical_class(v2).coords() == (-3, 0)


class TestCohomology:
    def test_structure_sheaf(self, v2):
        assert cohomology_X(XLineBundle(v2, 0, 0)).dims() == {0: 1}

    @pytest.mark.parametrize("n,h0", [(2, 3), (3, 4), (5, 6)])
    def test_cross_class_sections(self, n, h0):
        table = cohomology_X(XLineBundle(ModelVariety(n), 1, -1))
        assert table.dims() == {0: h0}

    def test_acyclic_band(self, v2):
        for m in range(-6, 7):
            for j in (-1, -2):
                assert not cohomology_X(XLineBundle(v2, j, m)).entries

    def test_top_degree_from_duality(self, v2):
        assert cohomology_X(XLineBundle(v2, -3, 0)).dims() == {4: 1}

    @pytest.mark.parametrize("n", [2, 3])
    def test_serre_duality_reflection(self, n):
        v = ModelVariety(n)
        omega = canonical_class(v)
        for j in range(-2 * n - 2, 2 * n + 3):
            for k in range(-n - 1, n + 2):
                lb = XLineBundle(v, j, k)
                assert cohomology_X(lb).reflect(2 * n) == cohomology_X(omega - lb)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_no_higher_cohomology_on_both_families(self, n):
        v = ModelVariety(n)
        for l in range(-n, n + 1):
            for m in range(-n, n + 1):
                for j, k in ((l, m), (l + m, -m)):
                    table = cohomology_X(XLineBundle(v, j, k))
                    assert set(table.dims()) <= {0}, (n, l, m)

    def test_tables_do_not_depend_on_side(self):
        for n in (2, 3):
            x = ModelVariety(n, Side.X)
            xp = ModelVariety(n, Side.X_PLUS)
            for j in range(-n - 2, n + 3):
                for k in range(-n, n + 1):
                    assert cohomology_X(XLineBundle(x, j, k)) == cohomology_X(
                        XLineBundle(xp, j, k)
                    )


class TestHomDims:
    def test_identity(self, v2):
        lb = XLineBundle(v2, -1, 2)
        assert hom_dims(lb, lb).dims() == {0: 1}

    def test_backwards_hom_vanishes(self, v2):
        table = hom_dims(XLineBundle(v2, 0, 1), XLineBundle(v2, 0, 0))
        assert not table.entries

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_is_the_cohomology_of_the_difference(self, n):
        # every pair of the second spanning rectangle, and of its psi images
        rect = flop.enumerate_spanning_class(n, flop.SpanningClass.OMEGA_PRIME)
        images = [flop.apply_psi(c) for c in rect]
        for classes in (rect, images):
            for a in classes:
                for b in classes:
                    assert hom_dims(a, b) == cohomology_X(b - a), (n, a, b)

    @pytest.mark.parametrize("a, b", [
        (XLineBundle(ModelVariety(2), 0, 0), XLineBundle(ModelVariety(2, Side.X_PLUS), 0, 0)),
        (XLineBundle(ModelVariety(3, Side.X_PLUS), 1, -1), XLineBundle(ModelVariety(3), 1, -1)),
        (XLineBundle(ModelVariety(2), 0, 0), XLineBundle(ModelVariety(3), 0, 0)),
        (XLineBundle(ModelVariety(3), -1, 2), XLineBundle(ModelVariety(2), 1, 0)),
    ])
    def test_mismatched_varieties_rejected(self, a, b):
        # the text of b - a, which names b's variety first
        message = f"classes live on different varieties: {b.variety} vs {a.variety}"
        for difference in (lambda: hom_dims(a, b), lambda: b - a):
            with pytest.raises(ValueError) as info:
                difference()
            assert str(info.value) == message


class TestPsiPreservesEuler:
    # Prop 3.5 through chi alone, sharing no code with the engine: psi sends
    # (x, y) to (x + y, -y), and chi(X, O(x, y)) = chi(X+, O(x + y, -y)).
    # Both sides have degree at most 2n in each variable, so the box
    # [-n, n]^2 of differences already forces the identity.
    @pytest.mark.parametrize("n, r", [
        *((n, n) for n in range(2, 13)), *((n, 4 * n) for n in range(2, 7)),
    ])
    def test_identity_on_the_box(self, n, r):
        box = range(-r, r + 1)
        chi = chi_box(n, range(-2 * r, 2 * r + 1), box)
        for x in box:
            for y in box:
                assert chi[x, y] == chi[x + y, -y], (n, x, y)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_hom_dims_euler_on_the_witnesses(self, n):
        # one witness pair (a, b) in the rectangle per difference (dj, dk),
        # the one with min(a.j, b.j) = min(a.k, b.k) = -n
        v = ModelVariety(n)
        chi = chi_box(n, range(-2 * n, 2 * n + 1), range(-n, n + 1))
        for dj in range(-n, n + 1):
            for dk in range(-n, n + 1):
                a = XLineBundle(v, max(-n, -n - dj), max(-n, -n - dk))
                b = XLineBundle(v, a.j + dj, a.k + dk)
                pa, pb = flop.apply_psi(a), flop.apply_psi(b)
                assert hom_dims(a, b).euler() == chi[dj, dk], (n, dj, dk)
                assert hom_dims(pa, pb).euler() == chi[dj + dk, -dk], (n, dj, dk)


class TestEulerSequenceTelescopes:
    # Sym^a of the Euler sequence on the base telescopes the sum over a:
    # chi(X, O(j) (x) pi^*O(k)) = C(n + j, n) chi(P^n, O(j + k)) for j >= 0,
    # the identity the closed form sums runs by.  Checked against the prefix
    # sums of chi_box, sharing no code with the engine.
    @pytest.mark.parametrize("n", range(2, 7))
    def test_identity_on_the_box(self, n):
        js, ks = range(4 * n + 1), range(-4 * n, 4 * n + 1)
        chi = chi_box(n, js, ks)
        for j in js:
            for k in ks:
                assert chi[j, k] == binom_poly(n + j, n) * binom_poly(j + k + n, n), (n, j, k)


class TestEulerChar:
    def test_examples(self, v2):
        assert cohomology_X(XLineBundle(v2, 0, 0)).euler() == 1
        assert cohomology_X(XLineBundle(v2, -1, 5)).euler() == 0
        assert cohomology_X(XLineBundle(v2, -3, 0)).euler() == 1


class TestPullbackTwists:
    def test_acyclic_band_kills_any_twist(self):
        for p in (1, 2):
            table = cohomology_with_pullback_twist(-p, form_bundle(p, 2))
            assert not table.entries

    def test_line_bundle_twist_euler_closed_form(self):
        checked = 0
        for n in range(3, 7):
            v = ModelVariety(n)
            for j in range(-2 * n - 14, 15):
                for k in range(-12, 13):
                    if j >= 0:
                        expect = sum(chi_sym(n, a, k) for a in range(j + 1))
                    else:
                        expect = -sum(chi_sym(n, a, k) for a in range(j + 1, 0))
                    assert cohomology_X(XLineBundle(v, j, k)).euler() == expect, (n, j, k)
                    checked += 1
        assert checked == 3800

    def test_duality_branch_with_bundle(self):
        # O(-4) (x) pi^* Omega^1 against its Serre partner O(1) (x) pi^* Theta
        from flopcalc.bwb import tangent_bundle

        left = cohomology_with_pullback_twist(-4, form_bundle(1, 2))
        right = cohomology_with_pullback_twist(1, tangent_bundle(2))
        assert left == right.reflect(4)

    def test_structure_twist_consistency(self):
        table = cohomology_with_pullback_twist(0, structure_sheaf(2))
        assert table.dims() == {0: 1}

    def test_model_is_over_the_base_of_the_weight(self):
        # n picks the branch and the reflection: read on the model over P^3
        # and P^5, these classes would give {6: 441} and {}
        assert cohomology_with_pullback_twist(-9, line_bundle(2, 0)).dims() == {4: 784}
        assert cohomology_with_pullback_twist(-4, line_bundle(2, 0)).dims() == {4: 9}

    def test_base_of_dimension_one_raises(self):
        message = "the model needs n >= 2, got n=1"
        with pytest.raises(ValueError, match=message):
            cohomology_with_pullback_twist(3, line_bundle(1, 0))
        with pytest.raises(ValueError, match=message):
            homalg.restriction_chase_system(1, 1)


# The per-a loop that the closed form replaced, kept as the reference.


def loop_tables(pullback, j_max):
    """h^*(X, O_X(j) (x) pi^*F) for j = 0..j_max, one Pieri step per a."""
    dims, tables = {}, []
    for a in range(j_max + 1):
        for w in pullback.summands:
            for deg, dim in cohomology_sum(tensor_with_sym(w, a)).entries:
                dims[deg] = dims.get(deg, 0) + dim
        tables.append(CohomologyTable.from_dict(dims))
    return tables


def loop_sweep(n, pullback, j_max):
    """The reference for every j in [-j_max, j_max], in all three branches."""
    flipped = HomogeneousBundle(tuple(dual(w) for w in pullback.summands))
    ahead, behind = loop_tables(pullback, j_max), loop_tables(flipped, j_max)
    sweep = {}
    for j in range(-j_max, j_max + 1):
        if j >= 0:
            sweep[j] = ahead[j]
        elif j >= -n:
            sweep[j] = EMPTY_TABLE
        else:
            sweep[j] = behind[-n - 1 - j].reflect(2 * n)
    return sweep


class TestClosedFormMatchesLoop:
    # The direct loop, with its fixed-row skip and Serre branch: against the
    # line-bundle closed form, which shares no Pieri or Bott code with it,
    # and for other weights against the per-a loop above.
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_line_bundles(self, n):
        # every (j, k) with |j|, |k| <= 30, past j = 2n on both branches
        for k in range(-30, 31):
            pullback = line_bundle(n, k)
            for j in range(-30, 31):
                expect = pbundle._cohomology_coords(n, j, k)
                assert cohomology_with_pullback_twist(j, pullback) == expect, (n, j, k)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_named_bundles(self, n):
        bundles = [form_bundle(p, n) for p in range(n + 1)]
        bundles += [exterior_power_theta(p, n) for p in range(n + 1)]
        bundles.append(tangent_bundle(n))
        for w in bundles:
            pullback = HomogeneousBundle((w,))
            for j, expect in loop_sweep(n, pullback, 40).items():
                assert cohomology_with_pullback_twist(j, w) == expect, (w, j)

    @given(
        st.integers(2, 5).flatmap(lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            st.integers(-40, 40),
        )),
        st.integers(-90, 90),
    )
    # j far past 2n, in both branches
    @example((3, [2, 0, 0], 40), 60)
    @example((2, [5, -5], 33), -88)
    # degrees that fall from step to step, and a fixed row met at a = 6
    @example((2, [-2, -3], 1), 5)
    @example((3, [-2, -3, -3], 4), 7)
    @settings(max_examples=60, deadline=None)
    def test_dominant_weights(self, weight, j):
        n, entries, t = weight
        w = LeviWeight(n, tuple(sorted(entries, reverse=True)), t)
        expect = loop_sweep(n, HomogeneousBundle((w,)), abs(j))[j]
        assert cohomology_with_pullback_twist(j, w) == expect


class TestHugeTwists:
    # A line bundle takes the three binomial ranges of the module docstring,
    # whatever j and k are, and nothing reaches Pieri, Bott or Weyl code.
    # Step a of its pushforward is one Pieri summand, which Bott evaluates.
    @pytest.mark.parametrize("j", [10**9, 10**100])
    @pytest.mark.parametrize("k", [0, 7, -10**9])
    def test_step_is_one_pieri_term(self, j, k):
        n = 3
        v = ModelVariety(n)
        top, below = (cohomology_X(XLineBundle(v, m, k)) for m in (j, j - 1))
        step = cohomology_sum(tensor_with_sym(line_bundle(n, k), j))
        for deg in range(2 * n + 1):
            assert top.get(deg) - below.get(deg) == step.get(deg), deg
        assert top.entries
        serre = cohomology_X(XLineBundle(v, -n - 1 - j, -k))
        assert serre == top.reflect(2 * n)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_weyl_evaluations(self, n, monkeypatch):
        calls = []

        def counting(mu):
            calls.append(mu)
            return weyl_dim(mu)

        monkeypatch.setattr(bwb, "weyl_dim", counting)
        bott_cohomology.cache_clear()
        pbundle._cohomology_coords.cache_clear()
        j, k = 10**100, -10**50
        table = cohomology_X(XLineBundle(ModelVariety(n), j, k))
        assert calls == []
        assert bott_cohomology.cache_info().currsize == 0
        assert sorted(table.dims()) == [0, n - 1, n]
        assert table.euler() == binom_poly(n + j, n) * binom_poly(j + k + n, n)


class TestFixedRowsCarryNothing:
    def test_every_summand_collides(self):
        # Bott's beta_i = mu_i + n - i, and a horizontal strip keeps
        # mu_i = lam_i on a row i >= 1 with lam_i = lam_{i-1}: at a step a
        # with t - a equal to such a beta_i, every summand has two equal
        # entries and carries no cohomology, which lets the pushforward skip
        # that step
        shapes = [lam for n in range(2, 5)
                  for lam in combinations_with_replacement(range(3, -4, -1), n)]
        shapes += [f(p, n).lam for n in range(2, 9) for p in range(n + 1)
                   for f in (form_bundle, exterior_power_theta)]
        steps = 0
        for lam in shapes:
            n = len(lam)
            fixed = {lam[i] + n - i for i in range(1, n) if lam[i] == lam[i - 1]}
            for t in range(-2, n + 4):
                w = LeviWeight(n, lam, t)
                for a in range(3 * n + 3):
                    if t - a in fixed:
                        for s in tensor_with_sym(w, a).summands:
                            assert bott_sort(s) is None, (w, a, s)
                        steps += 1
        assert steps == 4123


class TestPrefixPath:
    # Line-bundle classes on X take the three binomial ranges of the module
    # docstring; the loop above is the reference on the box it covers.
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_loop_in_any_order(self, n):
        v = ModelVariety(n)
        ks = range(-2 * n - 4, 2 * n + 5)
        ahead = {k: loop_tables(HomogeneousBundle((line_bundle(n, k),)), 2 * n) for k in ks}
        expect = {}
        for k in ks:
            for j in range(-3 * n - 1, 2 * n + 1):
                if j >= 0:
                    expect[j, k] = ahead[k][j]
                elif j >= -n:
                    expect[j, k] = EMPTY_TABLE
                else:
                    expect[j, k] = ahead[-k][-n - 1 - j].reflect(2 * n)
        order = sorted(expect)
        for seed in (0, 1):
            pbundle._cohomology_coords.cache_clear()
            random.Random(seed).shuffle(order)
            for j, k in order:
                assert cohomology_X(XLineBundle(v, j, k)) == expect[j, k], (n, j, k, seed)

    def test_line_bundles_reach_no_engine_code(self, monkeypatch):
        def engine(*args):
            raise AssertionError("a line bundle reached the Pieri, Bott or Weyl code")

        for name in ("tensor_with_sym", "cohomology_sum"):
            monkeypatch.setattr(pbundle, name, engine)
        for name in ("bott_sort", "weyl_dim"):
            monkeypatch.setattr(bwb, name, engine)
        n = 600
        v = ModelVariety(n)
        pbundle._cohomology_coords.cache_clear()
        try:
            for j, k in ((2 * n, 0), (100000, -7)):
                table = cohomology_X(XLineBundle(v, j, k))
                assert table.entries
                assert set(table.dims()) <= {0, n - 1, n}
                serre = cohomology_X(XLineBundle(v, -n - 1 - j, -k))
                assert serre == table.reflect(2 * n)
        finally:
            pbundle._cohomology_coords.cache_clear()

    def test_table_cache_is_bounded(self):
        # verify.run_all(32) fills 59 861 tables, which the bound must hold
        maxsize = pbundle._cohomology_coords.cache_info().maxsize
        assert maxsize is not None and maxsize >= 59861

    def test_deep_classes_are_binomial_products(self):
        # Riemann-Roch above: chi(X, O(j) (x) pi^*O(k)) = C(n + j, n) C(n + j + k, n)
        # for j >= 0, so a class with sections only is that product
        n = 600
        v = ModelVariety(n)
        pbundle._cohomology_coords.cache_clear()
        try:
            assert cohomology_X(XLineBundle(v, 2 * n, 0)).dims() == {0: comb(3 * n, n) ** 2}
            top = cohomology_X(XLineBundle(v, -3 * n - 1, 0))
            assert top.dims() == {2 * n: comb(3 * n, n) ** 2}
            j, k = 100000, -7
            table = cohomology_X(XLineBundle(v, j, k))
            assert table.euler() == binom_poly(n + j, n) * binom_poly(n + j + k, n)
        finally:
            pbundle._cohomology_coords.cache_clear()


class TestLineBundleTables:
    # Every table cohomology_coords builds, against Riemann-Roch with no engine
    # code: degrees strictly ascend within 0..2n, every dim is positive, and
    # the alternating sum is C(n + j, n) C(n + j + k, n), with C(n + m, n) the
    # polynomial (m + 1)...(m + n) / n!.  The box reaches j >= 0 with all three
    # ranges of a (k <= -n - 2), the band, and j <= -n - 1, whose Serre partner
    # (-n - 1 - j, -k) takes all three ranges at k >= n + 2.
    def test_degrees_ascend_dims_positive_euler_is_the_product(self):
        for n in range(2, 41):
            js, ks = range(-2 * n - 4, n + 4), range(-n - 4, n + 5)
            c = {m: prod(range(m + 1, m + n + 1)) // factorial(n)
                 for m in range(js[0] + ks[0], js[-1] + ks[-1] + 1)}
            shapes = set()
            for j in js:
                for k in ks:
                    entries = pbundle.cohomology_coords(n, j, k).entries
                    degrees = tuple(d for d, _ in entries)
                    assert list(degrees) == sorted(set(degrees)), (n, j, k)
                    assert all(0 <= d <= 2 * n and v > 0 for d, v in entries), (n, j, k)
                    assert sum((-1) ** d * v for d, v in entries) == c[j] * c[j + k], (n, j, k)
                    shapes.add(degrees)
            assert shapes == {(), (0,), (0, n - 1, n), (n - 1, n), (n,), (n, n + 1),
                              (n, n + 1, 2 * n), (2 * n,)}, n


class TestLineBundlesMatchDirectEvaluation:
    # The generic path takes a line bundle with j > 2n, and its Serre partner,
    # through a Pieri decomposition and a Bott evaluation at each step: no
    # code shared with the three ranges.
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_past_the_loop_box(self, n):
        degrees = {0, n - 1, n, n + 1, 2 * n}
        for k in range(-6 * n, 6 * n + 1):
            for j in range(-6 * n - 1, 6 * n + 1):
                table = pbundle._cohomology_coords(n, j, k)
                assert set(table.dims()) <= degrees, (n, j, k)
                if j > 2 * n or j < -3 * n - 1:
                    expect = cohomology_with_pullback_twist(j, line_bundle(n, k))
                    assert table == expect, (n, j, k)
