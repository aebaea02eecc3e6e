import hashlib
import pickle
import re
from math import comb
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flopcalc import homalg, pbundle
from flopcalc.bwb import LeviWeight, levi_rank, line_bundle, tensor_with_sym
from flopcalc.homalg import (
    ChaseInconsistencyError,
    ChaseSystem,
    ChaseTerm,
    ChaseUnderdeterminedError,
    DegeneracyUnjustifiedError,
    chase_solve,
    ext2_ideal_self_with_trace,
    ext_centre_vs_ideal_system,
    ext_locally_free_vs_ideal,
    ext_OY_structure,
    ext_table_OY,
    ideal_cohomology_system,
    koszul_resolution,
    local_ext_page,
    reference_chase_systems,
    restriction_chase_system,
)


def system(*dims, name="test"):
    return ChaseSystem(name, [f"T{i}" for i in range(len(dims))], dims)


def mirrored(sysm):
    """The same exact complex read right to left."""
    return ChaseSystem(sysm.name, sysm.labels[::-1], sysm.dims[::-1])


class TestChaseSolve:
    def test_two_term_exactness(self):
        sol = chase_solve(system(0, None, 5, 0))
        assert sol.values["T1"] == 5
        assert not sol.unsolved

    def test_flanked_by_zeros(self):
        sol = chase_solve(system(0, None, 0))
        assert sol.values["T1"] == 0
        assert sol.trace[0][1] == "flanked-by-zeros"

    def test_four_term_chase(self):
        # 0 -> Ext2(O,I) -> Ext2(I,I) -> Ext3(O_Y,I) -> 0 with outer terms known
        sol = chase_solve(system(0, 0, None, 1, 0))
        assert sol.values["T2"] == 1

    def test_cascading(self):
        # solving one unknown splits a segment and unlocks the next
        sol = chase_solve(system(0, None, 3, 0, 2, None, 0))
        assert sol.values["T1"] == 3 and sol.values["T5"] == 2

    def test_underdetermined_reported(self):
        sol = chase_solve(system(0, None, 4, None, 0))
        assert set(sol.unsolved) == {"T1", "T3"}
        with pytest.raises(ChaseUnderdeterminedError):
            sol.require("T1")

    def test_require_tells_an_open_term_from_a_missing_one(self):
        sol = chase_solve(system(0, None, 4, None, 0, name="open"))
        with pytest.raises(ChaseUnderdeterminedError, match="open: the chase does not determine 'T3'"):
            sol.require("T3")
        with pytest.raises(KeyError, match="open: no term 'T9'"):
            sol.require("T9")

    def test_one_segment_scan_per_round(self, monkeypatch):
        # every reference system is solved in one scan of its segments
        systems = [sysm for n in range(2, 25) for sysm in reference_chase_systems(n)]
        segments, scans = homalg._segments, []

        def counting(dims):
            scans.append(len(dims))
            return segments(dims)

        monkeypatch.setattr(homalg, "_segments", counting)
        for sysm in systems:
            scans.clear()
            chase_solve(sysm)
            assert len(scans) == 1, (sysm.name, len(scans))

    def test_zero_solution_splits_its_segment(self):
        # 3 - 2 + x - 2 + 1 = 0 forces T3 = 0, which leaves 3 - 2 and 2 - 1 unbalanced
        message = "split: zero-flanked segment ['T1', 'T2'] has alternating sum 1, exactness fails"
        with pytest.raises(ChaseInconsistencyError, match=f"^{re.escape(message)}$"):
            chase_solve(system(0, 3, 2, None, 2, 1, 0, name="split"))

    def test_inconsistent_known_segment(self):
        with pytest.raises(ChaseInconsistencyError):
            chase_solve(system(0, 2, 1, 0))

    def test_negative_solution_is_inconsistent(self):
        # 3 - 1 + x = 0 would force x = -2
        with pytest.raises(ChaseInconsistencyError):
            chase_solve(system(0, 3, 1, None, 0, name="neg"))
        # a fully-known singleton segment with nonzero dimension
        with pytest.raises(ChaseInconsistencyError):
            chase_solve(system(0, None, 0, 5, 0))

    def test_unbounded_ends_stay_unknown(self):
        sol = chase_solve(system(None, 3, 0))
        assert sol.unsolved == ("T0",)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            ChaseSystem("dup", ("A", "A"), (0, 1))

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError, match="negative dimension -1"):
            ChaseSystem("neg", ("A",), (-1,))

    def test_negative_dimension_reported_before_duplicate_labels(self):
        with pytest.raises(ValueError, match="^term B has negative dimension -2$"):
            ChaseSystem("both", ("A", "A", "B"), (0, 1, -2))

    def test_first_negative_term_named(self):
        with pytest.raises(ValueError, match="^term B has negative dimension -1$"):
            ChaseSystem("two", ("A", "B", "C"), (None, -1, -5))

    def test_empty_system_constructs(self):
        assert ChaseSystem("empty", (), ()).terms == ()
        assert chase_solve(ChaseSystem("empty", (), ())).values == {}

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="^system 'short' has 2 labels and 1 dims$"):
            ChaseSystem("short", ("A", "B"), (0,))

    def test_columns_run_the_term_checks(self):
        with pytest.raises(ValueError, match="^term B has negative dimension -1$"):
            ChaseSystem("neg", ["A", "B"], [0, -1])
        with pytest.raises(ValueError, match="^duplicate label 'A' in system 'dup'$"):
            ChaseSystem("dup", ["A", "A"], [0, 1])
        built = ChaseSystem("lists", ["A", "B"], [0, None])
        assert built == ChaseSystem("lists", ("A", "B"), (0, None))
        assert type(built.labels) is tuple and type(built.dims) is tuple

    def test_sparse_dims_keep_an_unknown_at_its_degree(self):
        # the Ext^i(I, I) feeders pass dicts whose values may be None
        sysm = homalg.long_exact_system("sparse", 2, (("A^{i}", {1: None, 3: 2}), ("B^{i}", None)))
        assert sysm.labels == ("start", "A^0", "B^0", "A^1", "B^1", "A^2", "B^2", "A^3", "B^3",
                               "A^4", "B^4", "end")
        assert sysm.dims == (0, 0, None, None, None, 0, None, 2, None, 0, None, 0)
        # a column of unknowns alone still spans the 2n + 1 degrees
        sysm = homalg.long_exact_system("open", 1, (("A^{i}", None),))
        assert sysm.dims == (0, None, None, None, 0)

    def test_long_exact_system_terms_are_chase_terms(self):
        sysm = homalg.long_exact_system("lt", 2, (("A^{i}", None), ("B^{i}", {1: 3})))
        assert all(type(t) is ChaseTerm for t in sysm.terms)
        assert sysm.terms[4]._replace(dim=7) == ChaseTerm("B^1", 7)

    @pytest.mark.parametrize("fmt, shown", [
        ("h^i(I)", "'h^i(I)'"),
        ("Ext^{i}(E{i},I)", "'Ext^{i}(E{i},I)'"),
        ("h^{i}({{I}})", "'h^{i}({{I}})'"),
        ("no field in a label format this long" * 2, "'no field in a label '... (72 characters)"),
    ])
    def test_label_format_needs_one_field_and_no_other_brace(self, fmt, shown):
        message = f"label format {shown} must hold exactly one {{i}} field and no other brace"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            homalg.long_exact_system("bad", 1, (("A^{i}", None), (fmt, {})))

    def test_duplicate_label_is_named(self):
        with pytest.raises(ValueError, match="^duplicate label 'A' in system 'bad'$"):
            ChaseSystem("bad", ("A", "A"), (0, 1))
        # the first label met a second time, not the first of the repeated ones
        with pytest.raises(ValueError, match="^duplicate label 'B' in system 'twice'$"):
            ChaseSystem("twice", ("A", "B", "B", "A"), (0, 1, 2, 3))

    # a key that is not an int is named by its repr, so '1' does not read as degree 1
    @pytest.mark.parametrize("dims, degree", [
        ({5: 3, -1: 2}, "5"), ({0: 1, -1: 2}, "-1"), ({3: 0}, "3"),
        ({1.0: 2}, "1.0"), ({"1": 2}, "'1'"),
    ])
    def test_degree_outside_the_sequence_rejected(self, dims, degree):
        message = f"column 'B^{{i}}' has a dimension at degree {degree}, outside 0..2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            homalg.long_exact_system("x", 1, (("A^{i}", None), ("B^{i}", dims)))

    def test_bool_degree_reads_as_its_int(self):
        sysm = homalg.long_exact_system("b", 1, (("A^{i}", {True: 2, False: 1}),))
        assert sysm.dims == (0, 1, 2, 0, 0)

    def test_long_format_shortened_in_degree_error(self):
        fmt = "a column format of more than forty characters, h^{i}"
        message = "column 'a column format of m'... (52 characters) has a dimension at degree 9"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}, outside 0..4$"):
            homalg.long_exact_system("x", 2, ((fmt, {9: 1}),))

    def test_good_label_format(self):
        sysm = homalg.long_exact_system("good", 1, (
            ("Ext^{i}(E2,I)", None), ("h^{i}(Omega^2|Y)", {2: 1})))
        assert [t.label for t in sysm.terms[1:5]] == [
            "Ext^0(E2,I)", "h^0(Omega^2|Y)", "Ext^1(E2,I)", "h^1(Omega^2|Y)"]
        assert sysm.terms[6] == ChaseTerm("h^2(Omega^2|Y)", 1)

    @given(
        st.lists(st.integers(0, 5), min_size=0, max_size=6),
        st.sets(st.integers(1, 8)),
    )
    @settings(max_examples=300)
    def test_sound_on_exact_complexes(self, kernels, hidden):
        # dims of an exact complex are sums of consecutive kernel dimensions
        ks = [0] + kernels + [0]
        truth = [0] + [a + b for a, b in zip(ks, ks[1:])] + [0]
        masked = [
            None if i in hidden and 0 < i < len(truth) - 1 else d
            for i, d in enumerate(truth)
        ]
        sol = chase_solve(system(*masked, name="hyp"))
        for i, d in enumerate(truth):
            got = sol.values[f"T{i}"]
            assert got is None or got == d

    def test_rule_order_independence_on_reference_systems(self):
        for sysm in reference_chase_systems(2):
            fwd = chase_solve(sysm)
            bwd = chase_solve(mirrored(sysm))
            assert fwd.values == bwd.values
            assert set(fwd.unsolved) == set(bwd.unsolved)


def rounds_oracle(sysm):
    """The solver as rounds to a fixpoint, each round reading the segments
    afresh; kept as the reference the one-scan solver must agree with, and
    sharing none of its logic."""
    labels, dims = list(sysm.labels), list(sysm.dims)
    trace = []
    changed = True
    while changed:
        open_segs = []
        zero_at = [i for i, d in enumerate(dims) if d == 0]
        segments = [(left + 1, right) for left, right in zip(zero_at, zero_at[1:]) if right - left > 1]
        for lo, hi in segments:
            seg = dims[lo:hi]
            unknowns = seg.count(None)
            if unknowns == 1:
                open_segs.append((lo, hi, seg))
            elif not unknowns:
                total = sum(seg[0::2]) - sum(seg[1::2])
                if total != 0:
                    raise ChaseInconsistencyError(
                        f"{sysm.name}: zero-flanked segment {labels[lo:hi]} has alternating "
                        f"sum {total}, exactness fails"
                    )
        for lo, hi, seg in open_segs:
            if hi - lo == 1:
                dims[lo] = 0
                trace.append((labels[lo], "flanked-by-zeros", 0))
        for lo, hi, seg in open_segs:
            if hi - lo == 1:
                continue
            pos = seg.index(None)
            seg[pos] = 0
            rest = sum(seg[0::2]) - sum(seg[1::2])
            solved = -rest if pos % 2 == 0 else rest
            if solved < 0:
                raise ChaseInconsistencyError(
                    f"{sysm.name}: segment {labels[lo:hi]} forces {labels[lo + pos]} = "
                    f"{solved} < 0"
                )
            dims[lo + pos] = solved
            trace.append((labels[lo + pos], "alternating-sum", solved))
        changed = bool(open_segs)
    unsolved = tuple(lab for lab, d in zip(labels, dims) if d is None)
    return dict(zip(labels, dims)), unsolved, tuple(trace)


def one_scan(sysm):
    sol = chase_solve(sysm)
    return sol.values, sol.unsolved, sol.trace


class TestOneScanMatchesRounds:
    @staticmethod
    def outcome(solve, sysm):
        """(values, unsolved, trace), or the ChaseInconsistencyError text."""
        try:
            return solve(sysm)
        except ChaseInconsistencyError as exc:
            return str(exc)

    # None and 0 drawn twice as often, so that more systems are consistent
    @given(st.lists(st.sampled_from((None, 0, None, 0, 1, 2, 3)), max_size=20))
    # a zero that splits its segment, the same before a later negative, and
    # two rule-(a) steps around a rule-(b) one
    @example([0, 3, 2, None, 2, 1, 0])
    @example([0, 3, 2, None, 2, 1, 0, 3, 1, None, 0])
    @example([0, None, 0, 2, None, 0, None, 0])
    @settings(max_examples=300, deadline=None)
    def test_random_systems_and_mirrors(self, dims):
        sysm = system(*dims, name="hyp")
        for solved in (sysm, mirrored(sysm)):
            assert self.outcome(one_scan, solved) == self.outcome(rounds_oracle, solved)

    # the ext-chase workload's sizes, past TestChaseRegression's n <= 12
    @pytest.mark.parametrize("n", range(13, 25))
    def test_reference_systems_and_mirrors_at_ext_chase_sizes(self, n):
        for sysm in reference_chase_systems(n):
            for solved in (sysm, mirrored(sysm)):
                assert one_scan(solved) == rounds_oracle(solved)


class TestChaseRegression:
    # sha256 over (values, unsolved, trace), or the ChaseInconsistencyError
    # text, of each system and of its mirror, recorded with three scans a round
    DIGEST = "d22d858dab70098aad66532154f6d97107ca597f7057b85949f6cc67e6891821"

    @staticmethod
    def outcome(sysm):
        try:
            sol = chase_solve(sysm)
        except ChaseInconsistencyError as exc:
            return str(exc)
        return (sorted(sol.values.items()), sol.unsolved, sol.trace)

    @staticmethod
    def random_systems():
        rng = Random(12)
        for k in range(3000):
            dims = [rng.choice((None, 0, 1, 2, 3)) for _ in range(rng.randint(0, 14))]
            yield system(*dims, name=f"random-{k}")

    def test_digest(self):
        h = hashlib.sha256()
        systems = list(self.random_systems())
        for n in range(2, 13):
            systems += reference_chase_systems(n)
        for sysm in systems:
            for solved in (sysm, mirrored(sysm)):
                h.update(repr(self.outcome(solved)).encode())
        assert h.hexdigest() == self.DIGEST


class TestColumnsKeepTheTermsForm:
    """A system is its name and two columns: they rebuild an equal system,
    it pickles at every protocol, and its terms view pairs the columns."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_reference_systems_and_mirrors(self, n):
        for built in reference_chase_systems(n):
            for sysm in (built, mirrored(built)):
                rebuilt = ChaseSystem(sysm.name, sysm.labels, sysm.dims)
                assert rebuilt == sysm
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                    assert pickle.loads(pickle.dumps(sysm, protocol)) == sysm
                pairs = tuple(ChaseTerm(label, dim) for label, dim in zip(sysm.labels, sysm.dims))
                assert sysm.terms == pairs
                assert all(type(t) is ChaseTerm for t in sysm.terms)
                # the count of unknowns a caller reading the terms sees
                assert sum(t.dim is None for t in sysm.terms) == sysm.dims.count(None)
                assert chase_solve(rebuilt) == chase_solve(sysm)


class TestLongExactSystemRegression:
    # sha256 over (name, labels, dims) of each built system: pins term order,
    # labels, dims and system names, which TestChaseRegression's sorted values do not
    DIGEST = "502de5c47a8ff4174fc6fa4ec56a186981bd9050452681f76ac63439cade0f22"

    def test_digest(self):
        systems = [homalg.long_exact_system("doc", 1, (
            ("A^{i}", None), ("B^{i}", {0: 5}), ("C^{i}", {})))]
        for n in range(2, 17):
            systems += reference_chase_systems(n)
        h = hashlib.sha256()
        for sysm in systems:
            h.update(repr((sysm.name, sysm.labels, sysm.dims)).encode())
        assert h.hexdigest() == self.DIGEST


def reference_long_exact_system(n, columns):
    """(labels, dims) of the long exact sequence, or the out-of-range degree
    error text, written with a plain nested loop and str.replace; it shares no
    code with ``long_exact_system``."""
    for fmt, dims in columns:
        for degree in dims or {}:
            if not 0 <= degree <= 2 * n:
                return f"column {fmt!r} has a dimension at degree {degree}, outside 0..{2 * n}"
    labels, dims = ["start"], [0]
    for i in range(2 * n + 1):
        for fmt, given in columns:
            labels.append(fmt.replace("{i}", str(i)))
            dims.append(None if given is None else given.get(i, 0))
    return tuple(labels + ["end"]), tuple(dims + [0])


@st.composite
def long_exact_inputs(draw):
    """n = 1..6 and 0-4 columns of short brace-free formats, each column
    unknown or a sparse dict of dimensions that may hold None and 0, with a
    degree now and then just outside 0..2n."""
    n = draw(st.integers(1, 6))
    text = st.text(st.characters(blacklist_characters="{}"), max_size=5)
    columns = []
    for c in range(draw(st.integers(0, 4))):
        # the leading column number keeps every label distinct
        fmt = f"{c}:{draw(text)}{{i}}{draw(text)}"
        dims = draw(st.none() | st.dictionaries(
            st.integers(-2, 2 * n + 2), st.none() | st.integers(0, 4), max_size=2 * n + 1))
        columns.append((fmt, dims))
    return n, columns


class TestLongExactSystemMatchesReference:
    # the extended slices c:-1:width are where an off-by-one in the builder would hide
    @given(long_exact_inputs())
    @example((1, [("A^{i}", None), ("B^{i}", {0: 5}), ("C^{i}", {})]))
    @example((2, [("A^{i}", {4: None, 0: 0})]))
    @example((3, []))
    def test_labels_dims_and_degree_errors(self, inputs):
        n, columns = inputs
        expected = reference_long_exact_system(n, columns)
        try:
            sysm = homalg.long_exact_system("ref", n, columns)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert (sysm.labels, sysm.dims) == expected


class TestKoszulResolution:
    def test_terms_for_n2(self):
        res = koszul_resolution(2)
        assert [t.p for t in res.terms] == [2, 1]
        assert [t.line_class.j for t in res.terms] == [-2, -1]
        # Wedge^2 Theta on P^2 is O(3): shifting lam to end in 0 moves the
        # determinant into the twist
        w = res.terms[0].theta_wedge
        c = w.lam[-1]
        assert LeviWeight(2, tuple(a - c for a in w.lam), w.t - c) == line_bundle(2, 3)
        assert res.terms[1].theta_wedge.literal() == "1,0|-1"

    @pytest.mark.parametrize("n", range(2, 7))
    def test_rank_invariants(self, n):
        res = koszul_resolution(n)
        assert [t.rank for t in res.terms] == [comb(n, p) for p in range(n, 0, -1)]
        assert res.alternating_rank_sum() == 1

    @pytest.mark.parametrize("n", [2, 5])
    def test_each_rank_is_computed_once(self, n, monkeypatch):
        calls = []

        def counting(w):
            calls.append(w)
            return levi_rank(w)

        monkeypatch.setattr(homalg, "levi_rank", counting)
        res = koszul_resolution(n)
        assert len(calls) == n
        assert res.alternating_rank_sum() == 1
        assert [t.rank for t in res.terms] == [comb(n, p) for p in range(n, 0, -1)]
        assert len(calls) == n

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_euler_consistency_with_the_ideal(self, n):
        # chi(I) = chi(O_X) - chi(O_Y) = 1 - 1 = 0
        assert koszul_resolution(n).alternating_euler_sum() == 0

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            koszul_resolution(1)


class TestSpectralPage:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_checkerboard_vanishing(self, n):
        page = local_ext_page(n)
        assert page == {(p, p): 1 for p in range(n + 1)}


class TestExtTableOfTheCentre:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (2, {0: 1, 2: 1, 4: 1}),
            (3, {0: 1, 2: 1, 4: 1, 6: 1}),
        ],
    )
    def test_small_tables(self, n, expected):
        assert ext_table_OY(n).dims() == expected

    @pytest.mark.parametrize("n", range(2, 6))
    def test_odd_degrees_absent(self, n):
        table = ext_table_OY(n)
        assert all(i % 2 == 0 for i in table.dims())
        assert table.dims() == {i: 1 for i in range(0, 2 * n + 1, 2)}

    def test_degeneracy_guard_raises_on_bad_page(self, monkeypatch):
        bad_page = {(0, 0): 1, (0, 1): 1}
        monkeypatch.setattr("flopcalc.homalg.local_ext_page", lambda n: bad_page)
        with pytest.raises(DegeneracyUnjustifiedError, match=r"\[\(\(0, 1\), 1\)\]"):
            ext_table_OY(2)


class TestExtAgainstStructure:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_concentrated_at_the_top(self, n):
        assert ext_OY_structure(n).dims() == {2 * n: 1}


class TestFirstRouteExt:
    def test_wedge2_term_has_one_dimensional_ext1(self):
        table = ext_locally_free_vs_ideal(2, 2)
        assert table[1] == 1

    def test_wedge1_term_ext1_is_honestly_unknown(self):
        table = ext_locally_free_vs_ideal(1, 2)
        assert table[1] is None

    def test_known_zero_entries(self):
        t1 = ext_locally_free_vs_ideal(1, 2)
        t2 = ext_locally_free_vs_ideal(2, 2)
        assert t1[0] == 1
        assert t1[3] == 0 and t1[4] == 0
        assert t2[0] == 0 and t2[4] == 0
        assert t2[2] is None
        # one entry per degree 0..2n
        assert len(t1) == len(t2) == 5
        assert [i for i, d in enumerate(t1) if d is None] == [1, 2]

    def test_pushforward_makes_at_most_two_pieri_steps(self, monkeypatch):
        # O(p) (x) pi^*Omega^p: every step a >= 2 meets a row of Bott's beta
        # that the Pieri rule cannot move, so only a = 0 and a = 1 decompose
        calls = []

        def counting(w, a):
            calls.append(a)
            return tensor_with_sym(w, a)

        monkeypatch.setattr(pbundle, "tensor_with_sym", counting)
        # the pushforward is the work counted; the system around it is not
        monkeypatch.setattr(homalg, "long_exact_system", lambda *args: None)
        for n in range(2, 41):
            for p in range(1, n + 1):
                calls.clear()
                restriction_chase_system(p, n)
                assert len(calls) <= 2, (p, n, calls)

    def test_given_columns_of_every_term(self):
        # the two known columns of each E_p system, read from its columns:
        # h^*(E_p^v) = {p - 1: 1, p: 1} and h^*(Omega^p|Y) = {p: 1}
        for n in range(2, 41):
            degrees = range(2 * n + 1)
            for p in range(1, n + 1):
                sysm = restriction_chase_system(p, n)
                given = dict(zip(sysm.labels, sysm.dims))
                dual = [given[f"h^{i}(E{p}v)"] for i in degrees]
                centre = [given[f"h^{i}(Omega^{p}|Y)"] for i in degrees]
                assert dual == [int(i in (p - 1, p)) for i in degrees], (p, n)
                assert centre == [int(i == p) for i in degrees], (p, n)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            restriction_chase_system(0, 2)
        with pytest.raises(ValueError):
            restriction_chase_system(3, 2)


class TestIdealSelfExt:
    def test_value(self):
        assert ext2_ideal_self_with_trace(2)[0] == 1

    def test_restricted_to_n2(self):
        with pytest.raises(ValueError):
            ext2_ideal_self_with_trace(3)

    def test_ideal_cohomology_intermediates(self):
        sol = chase_solve(ideal_cohomology_system(2))
        assert sol.values["h^2(I)"] == 0
        assert sol.values["h^3(I)"] == 0
        assert set(sol.unsolved) == {"h^0(I)", "h^1(I)"}

    def test_centre_ext_intermediates(self):
        sol = chase_solve(ext_centre_vs_ideal_system(2))
        assert not sol.unsolved
        assert sol.values["Ext^2(O_Y,I)"] == 0
        assert sol.values["Ext^3(O_Y,I)"] == 1

    def test_perturbed_input_is_inconsistent(self):
        system = ideal_cohomology_system(2)
        bad = ChaseSystem(system.name, system.labels, [
            1 if label == "h^4(O_Y)" else dim for label, dim in zip(system.labels, system.dims)])
        with pytest.raises(ChaseInconsistencyError):
            chase_solve(bad)
        with pytest.raises(ChaseInconsistencyError):
            chase_solve(mirrored(bad))

    @pytest.mark.parametrize("name, n, solves", [
        ("ext2_ideal_self_with_trace", 2, 3),
        ("reference_chase_systems", 2, 2),
        ("reference_chase_systems", 4, 2),
    ])
    def test_each_system_is_solved_once(self, monkeypatch, name, n, solves):
        solved = []

        def counting(system):
            solved.append(system.name)
            return chase_solve(system)

        monkeypatch.setattr(homalg, "chase_solve", counting)
        getattr(homalg, name)(n)
        assert len(solved) == len(set(solved)) == solves

    def test_traces_name_the_solved_terms(self):
        traces = dict(ext2_ideal_self_with_trace(2)[1])
        steps = traces["ext-ideal-self-n2"]
        assert ("Ext^2(I,I)", "alternating-sum", 1) in steps
