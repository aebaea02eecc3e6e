import hashlib
import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bundle_ops import reflect, tangent_bundle, twist
from flopcalc import bwb, homalg
from flopcalc.bwb import (
    CohomologyTable,
    LeviWeight,
    bott_cohomology,
    bott_sort,
    cohomology_sum,
    exterior_power_theta,
    form_bundle,
    levi_rank,
    line_bundle,
    parse_weight,
    structure_sheaf,
    tensor_with_sym,
    weyl_dim,
)


def serre_dual(w):
    """w-dual tensored with the canonical bundle O(-n-1), from the weight
    formula (-reversed(lam) | n + 1 - t); it shares no code with the engine."""
    return LeviWeight(w.n, tuple(-a for a in reversed(w.lam)), w.n + 1 - w.t)


def small_weights(n, bound):
    vals = range(-bound, bound + 1)
    for lam in product(vals, repeat=n):
        if all(a >= b for a, b in zip(lam, lam[1:])):
            for t in vals:
                yield LeviWeight(n, lam, t)


@st.composite
def weight_strategy(draw, max_n=4, bound=5):
    n = draw(st.integers(1, max_n))
    lam = tuple(
        sorted(draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n)), reverse=True)
    )
    t = draw(st.integers(-bound - 2, bound + 2))
    return LeviWeight(n, lam, t)


class TestLeviWeight:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            LeviWeight(0, (), 0)
        with pytest.raises(ValueError, match=r"^weight vector \(0, 1\) is not non-increasing$"):
            LeviWeight(2, (0, 1), 0)
        with pytest.raises(ValueError, match="not non-increasing"):
            LeviWeight(4, (3, 1, 2, 0), 0)
        with pytest.raises(ValueError):
            LeviWeight(2, (1,), 0)
        assert LeviWeight(4, (2, 2, 0, 0), 1).lam == (2, 2, 0, 0)

    def test_list_weight_is_read_as_a_tuple(self):
        assert LeviWeight(2, [1, 0], 0) == LeviWeight(2, (1, 0), 0)
        assert type(LeviWeight(2, [1, 0], 0).lam) is tuple
        lam = (1, 0)   # an exact tuple is kept as itself, with no copy
        assert LeviWeight(2, lam, 0).lam is lam
        with pytest.raises(ValueError, match=r"^weight vector \(0, 1\) is not non-increasing$"):
            LeviWeight(2, [0, 1], 0)

    def test_weight_literal_round_trip(self):
        w = LeviWeight(3, (2, 0, -1), -4)
        assert parse_weight(w.literal()) == w
        assert parse_weight("1,0|-1") == tangent_bundle(2)

    def test_literal_errors(self):
        with pytest.raises(ValueError):
            parse_weight("1,0")
        with pytest.raises(ValueError, match="non-integer token"):
            parse_weight("1,a|0")
        with pytest.raises(ValueError, match="non-integer token"):
            parse_weight("+-5,0|0")

    def test_long_literal_is_shortened(self):
        text = "x" * 30 + ",0|0"
        with pytest.raises(ValueError) as err:
            parse_weight(text * 3)
        assert str(err.value) == (
            "weight literal 'xxxxxxxxxxxxxxxxxxxx'... (102 characters) has a non-integer token"
        )


class TestBottCohomology:
    def test_structure_sheaf(self):
        assert bott_cohomology(structure_sheaf(2)).dims() == {0: 1}

    @pytest.mark.parametrize("k", range(0, 8))
    def test_line_bundle_sections_are_monomial_counts(self, k):
        assert bott_cohomology(line_bundle(2, k)).dims() == {0: comb(2 + k, 2)}

    def test_tangent_bundle_p2(self):
        # frozen from the chart-cover oracle: global vector fields on P^2
        assert bott_cohomology(tangent_bundle(2)).dims() == {0: 8}
        assert weyl_dim((1, 0, -1)) == 8

    def test_one_forms_p3(self):
        assert bott_cohomology(LeviWeight(3, (0, 0, -1), 1)).dims() == {1: 1}

    @given(weight_strategy())
    @settings(max_examples=300)
    def test_at_most_one_nonzero_degree(self, w):
        assert len(bott_cohomology(w).dims()) <= 1

    @given(weight_strategy(), st.integers(-3, 3))
    @settings(max_examples=200)
    def test_determinant_shift_invariance(self, w, c):
        shifted = LeviWeight(w.n, tuple(a + c for a in w.lam), w.t + c)
        assert bott_cohomology(shifted) == bott_cohomology(w)

    def test_degree_bounded_by_dimension(self):
        for w in small_weights(2, 4):
            assert max(bott_cohomology(w).dims(), default=0) <= w.n

    def test_plain_tuple_gets_no_cached_table(self):
        # the cache is typed, so the answer to a tuple equal to a weight does
        # not depend on whether that weight's table is cached
        w = LeviWeight(2, (0, 0), -1)
        bott_cohomology.cache_clear()
        with pytest.raises(AttributeError, match="'tuple' object has no attribute 'lam'"):
            bott_cohomology(tuple(w))
        assert bott_cohomology(w).dims() == {0: 3}
        with pytest.raises(AttributeError, match="'tuple' object has no attribute 'lam'"):
            bott_cohomology(tuple(w))

    def test_cache_is_bounded_and_stays_typed(self):
        # solving every reference chase system at n = 100 and n = 200 leaves
        # about 25 000 tables in the cache, a long sweep that must stay under 2^16
        for n in (100, 200):
            for sysm in homalg.reference_chase_systems(n):
                homalg.chase_solve(sysm)
        info = bott_cohomology.cache_info()
        assert info.maxsize == 1 << 16
        assert info.currsize <= info.maxsize
        assert bott_cohomology.cache_parameters()["typed"]

    @pytest.mark.parametrize("fake_dim", [0, -1])
    def test_non_positive_dominant_dimension_raises(self, monkeypatch, fake_dim):
        # mu is dominant on every path that reaches weyl_dim, so a dimension
        # of 0 or less can only be an engine fault, and must not be dropped
        monkeypatch.setattr(bwb, "weyl_dim", lambda mu: fake_dim)
        with pytest.raises(ArithmeticError, match=r"\(0, 0, -3\)"):
            bott_cohomology.__wrapped__(line_bundle(2, 3))

    def test_cached_call_without_a_positive_dimension_raises(self, monkeypatch):
        # the same check through the cache: with the cache cleared, the call
        # must reach it, raise and leave no table behind
        monkeypatch.setattr(bwb, "weyl_dim", lambda mu: 0)
        bott_cohomology.cache_clear()
        with pytest.raises(ArithmeticError, match="not positive"):
            bott_cohomology(line_bundle(3, -20))
        assert bott_cohomology.cache_info().currsize == 0


def pair_product(mu):
    """Weyl's product over all pairs, as a Fraction that must come out whole."""
    expected = Fraction(1)
    for i, j in combinations(range(len(mu)), 2):
        expected *= Fraction(mu[i] - mu[j] + j - i, j - i)
    assert expected.denominator == 1
    return expected


@st.composite
def block_weights(draw):
    """A list made of a few runs of equal entries, at most 40 long in total."""
    runs = draw(st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 15)),
                         min_size=1, max_size=5))
    mu = [value for value, length in runs for _ in range(length)]
    return mu[:40]


class TestWeylDim:
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=9))
    @settings(max_examples=400)
    def test_matches_rational_product(self, mu):
        mu.sort(reverse=True)
        assert weyl_dim(tuple(mu)) == pair_product(mu)

    @given(block_weights())
    @example([3] * 9 + [0] * 2)   # the upper run is the longer
    @example([3] * 2 + [0] * 9)   # the lower run is the longer
    @settings(max_examples=200)
    def test_blocks_match_rational_product(self, mu):
        mu.sort(reverse=True)
        assert weyl_dim(tuple(mu)) == pair_product(mu)

    def test_anchors(self):
        n = 400
        assert all(weyl_dim((1,) * p + (0,) * (n - p)) == comb(n, p) for p in (0, 1, 7, 200, 399))
        n = 300
        assert all(weyl_dim((k,) + (0,) * (n - 1)) == comb(n - 1 + k, k) for k in (1, 5, 300))

    @pytest.mark.parametrize("mu", [(0, 2), (0, 1), (0, 0, 0, 3) + (1,) * 5, (5, 1, 1, 2)])
    def test_non_dominant_weight_raises(self, mu):
        # Bott's sort of mu + rho is bott_sort's; weyl_dim refuses a weight that rises
        with pytest.raises(ValueError, match=re.escape(f"weight {mu} is not dominant")):
            weyl_dim(mu)


class TestBottRegression:
    # sha256 over (lam, t, entries) of every weight in bott_box, n = 2..12,
    # recorded with the pairwise inversion count and Weyl product; entries
    # -1..2 and t in -4..n+4 reach every degree 0..n and every collision
    DIGEST = "52bc15a36ce1208a69edaf1e1d811c6149063756dbdb2d80f7b7d0c4ecff6696"

    @staticmethod
    def bott_box(n):
        for lam in combinations_with_replacement(range(2, -2, -1), n):
            for t in range(-4, n + 5):
                yield LeviWeight(n, lam, t)

    def test_digest(self):
        h = hashlib.sha256()
        for n in range(2, 13):
            for w in self.bott_box(n):
                h.update(repr((w.lam, w.t, bott_cohomology(w).entries)).encode())
        assert h.hexdigest() == self.DIGEST

    @pytest.mark.parametrize("n", [2, 5, 9, 12])
    def test_degree_matches_sorting_beta(self, n):
        for w in self.bott_box(n):
            beta = [a + n - i for i, a in enumerate(w.lam + (w.t,))]
            if len(set(beta)) < len(beta):
                assert bott_sort(w) is None
                assert not bott_cohomology(w).entries
                continue
            inversions = sum(x < y for x, y in combinations(beta, 2))
            mu = tuple(b - (n - i) for i, b in enumerate(sorted(beta, reverse=True)))
            assert bott_sort(w) == (inversions, mu)
            assert bott_cohomology(w).dims() == {inversions: weyl_dim(mu)}


class TestSerreDuality:
    def test_canonical_anchor(self):
        assert serre_dual(structure_sheaf(2)) == LeviWeight(2, (0, 0), 3)

    @given(weight_strategy())
    @settings(max_examples=200)
    def test_involution(self, w):
        assert serre_dual(serre_dual(w)) == w

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reflection_sweep(self, n):
        # brute-force sweep over |lam|, |t| <= 4
        for w in small_weights(n, 4):
            assert bott_cohomology(serre_dual(w)) == reflect(bott_cohomology(w), n)


class TestTwist:
    def test_anchors(self):
        assert twist(structure_sheaf(2), 5) == line_bundle(2, 5)
        assert twist(tangent_bundle(2), -3) == LeviWeight(2, (1, 0), 2)

    @given(weight_strategy(), st.integers(-6, 6))
    def test_inverse(self, w, a):
        assert twist(twist(w, a), -a) == w


class TestEulerSequence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_chi_identity(self, n):
        for m in range(-n - 3, n + 4):
            chi_theta = bott_cohomology(twist(tangent_bundle(n), m)).euler()
            chi_m = bott_cohomology(line_bundle(n, m)).euler()
            chi_m1 = bott_cohomology(line_bundle(n, m + 1)).euler()
            assert chi_theta == (n + 1) * chi_m1 - chi_m


def sym_of_extension(l, n):
    """Sym^l(O + Theta) as the Pieri summands of Sym^a Theta (x) O, a <= l."""
    return [s for a in range(l + 1) for s in tensor_with_sym(structure_sheaf(n), a).summands]


class TestSymPowers:
    def test_anchors(self):
        assert sym_of_extension(0, 3) == [structure_sheaf(3)]
        assert set(sym_of_extension(2, 2)) == {
            structure_sheaf(2),
            LeviWeight(2, (1, 0), -1),
            LeviWeight(2, (2, 0), -2),
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("l", range(0, 6))
    def test_total_rank(self, n, l):
        assert sum(levi_rank(w) for w in sym_of_extension(l, n)) == comb(l + n, n)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            tensor_with_sym(structure_sheaf(2), -1)


def normalize(w):
    """Shift lam so its last entry is 0, absorbing the determinant into t:
    ``(lam + c, t + c)`` and ``(lam, t)`` name the same bundle, as det Q is O(1)."""
    c = w.lam[-1]
    return LeviWeight(w.n, tuple(a - c for a in w.lam), w.t - c)


class TestExteriorPowers:
    def test_anchors(self):
        assert exterior_power_theta(0, 3) == structure_sheaf(3)
        assert exterior_power_theta(1, 3) == tangent_bundle(3)
        assert levi_rank(exterior_power_theta(1, 3)) == 3
        # det Theta = O(n+1)
        assert normalize(exterior_power_theta(2, 2)) == line_bundle(2, 3)
        assert normalize(exterior_power_theta(3, 3)) == line_bundle(3, 4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            exterior_power_theta(4, 3)
        with pytest.raises(ValueError):
            exterior_power_theta(-1, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_hodge_numbers(self, n):
        for p in range(n + 1):
            table = bott_cohomology(form_bundle(p, n))
            assert table.dims() == {p: 1}

    @pytest.mark.parametrize("n", range(1, 41))
    def test_form_bundle_is_the_twisted_wedge(self, n):
        # Omega^p = Wedge^(n-p) Theta (x) O(-n-1), built here through twist
        for p in range(n + 1):
            assert form_bundle(p, n) == twist(exterior_power_theta(n - p, n), -(n + 1))

    @pytest.mark.parametrize("p, shown", [(-1, 4), (4, -1)])
    def test_form_bundle_out_of_range(self, p, shown):
        # the message names the wedge power n - p, as the wedge's own check did
        message = f"wedge power p={shown} out of range 0..3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            form_bundle(p, 3)


class TestCohomologySum:
    def test_zero_bundle(self):
        assert not cohomology_sum(()).entries

    def test_additivity(self):
        assert cohomology_sum((structure_sheaf(2), structure_sheaf(2))).dims() == {0: 2}

    def test_sym_of_extension_twisted(self):
        # Sym^1(O + Theta)(-1) = O(-1) + Theta(-1) on P^2 has n + 1 = 3 sections
        parts = (LeviWeight(2, (0, 0), 1), LeviWeight(2, (1, 0), 0))
        assert cohomology_sum(parts).dims() == {0: 3}

    def test_takes_any_iterable_of_weights(self):
        # a one-shot generator is read once, and an empty iterable sums to nothing
        assert cohomology_sum(structure_sheaf(2) for _ in range(3)).dims() == {0: 3}
        assert cohomology_sum(iter([])) == cohomology_sum([]) == CohomologyTable(())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_summand_is_its_bott_table(self, n):
        for w in small_weights(n, 3):
            assert cohomology_sum((w,)) == bott_cohomology(w)


class TestPieri:
    @pytest.mark.parametrize("n", [2, 3])
    def test_rank_multiplicativity(self, n):
        for w in list(small_weights(n, 2))[::7]:
            for a in range(4):
                expect = levi_rank(w) * comb(a + n - 1, a)
                assert sum(map(levi_rank, tensor_with_sym(w, a).summands)) == expect

    def test_matches_brute_force_horizontal_strips(self):
        cases = 0
        for n in range(1, 6):
            for lam in product(range(2, -3, -1), repeat=n):
                if any(x < y for x, y in zip(lam, lam[1:])):
                    continue
                for a in range(7):
                    self.assert_matches_strips(lam, a)
                    cases += 1
        assert cases == 1757

    @staticmethod
    def run_weights(n):
        # every lam of length n made of runs of 3, 1 and 0, some of them empty
        for top in range(n + 1):
            for mid in range(n - top + 1):
                yield (3,) * top + (1,) * mid + (0,) * (n - top - mid)

    @pytest.mark.parametrize("n", range(6, 13))
    def test_runs_match_brute_force_at_larger_n(self, n):
        for lam in self.run_weights(n):
            for a in range(7):
                self.assert_matches_strips(lam, a)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_one_run_matches_brute_force(self, n):
        # every line bundle's lam is one run; its one summand fills row 0
        for c in range(-3, 4):
            for a in range(11):
                self.assert_matches_strips((c,) * n, a)

    def test_more_runs_than_the_recursion_limit(self):
        # 1100 runs of length one: a walk that recursed once per run fails
        n = 1100
        lam = tuple(range(n, 0, -1))
        got = tensor_with_sym(LeviWeight(n, lam, 0), 1).summands
        rows = [lam[:i] + (lam[i] + 1,) + lam[i + 1:] for i in reversed(range(n))]
        assert got == tuple(LeviWeight(n, mu, -1) for mu in rows)

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_runs_rank_multiplicativity(self, n):
        for lam in self.run_weights(n):
            w = LeviWeight(n, lam, 0)
            for a in range(7):
                expect = levi_rank(w) * comb(a + n - 1, a)
                assert sum(map(levi_rank, tensor_with_sym(w, a).summands)) == expect

    @staticmethod
    def assert_matches_strips(lam, a):
        # mu interlaces lam (lam_i <= mu_i <= lam_{i-1}) and has a more boxes;
        # a row equal to the row above has one value, so runs stay cheap
        n = len(lam)
        ranges = [range(lam[i], (lam[i - 1] if i else lam[0] + a) + 1) for i in range(n)]
        expect = {
            LeviWeight(n, mu, 3 - a) for mu in product(*ranges) if sum(mu) - sum(lam) == a
        }
        got = tensor_with_sym(LeviWeight(n, lam, 3), a).summands
        assert len(got) == len(set(got)), (lam, a)
        assert set(got) == expect, (lam, a)

    def test_end_of_tangent_on_p2(self):
        # Theta (x) Omega^1 has a one-dimensional space of global endomorphisms
        table = cohomology_sum(tensor_with_sym(form_bundle(1, 2), 1).summands)
        assert table.dims() == {0: 1}


class TestPieriRegression:
    # sha256 over the ordered summands of tensor_with_sym for every lam with
    # entries 2..-1, n = 2..12, a = 0..6, recorded with the row-by-row walk
    DIGEST = "90db4215708814181739c79ffb7c74f80cea130647e7f03c546b544e499085d5"

    def test_digest(self):
        h = hashlib.sha256()
        for n in range(2, 13):
            for lam in combinations_with_replacement(range(2, -2, -1), n):
                w = LeviWeight(n, lam, 3)
                for a in range(7):
                    summands = tensor_with_sym(w, a).summands
                    h.update(repr([(s.lam, s.t) for s in summands]).encode())
        assert h.hexdigest() == self.DIGEST


class TestCohomologyTable:
    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            CohomologyTable.from_dict({-1: 1})
        with pytest.raises(ValueError):
            CohomologyTable.from_dict({0: -1})

    def test_zero_entries_dropped(self):
        assert CohomologyTable.from_dict({0: 1, 2: 0}).dims() == {0: 1}

    def test_reflect_and_euler(self):
        # reflect is the tests' own Serre reflection, which the reference
        # comparisons below the band read
        t = CohomologyTable.from_dict({0: 2, 3: 5})
        assert reflect(t, 4).dims() == {4: 2, 1: 5}
        assert t.euler() == 2 - 5
