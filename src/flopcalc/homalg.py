"""Exact-sequence dimension chasing and Ext computations against the ideal.

The proof engine is ``chase_solve``: given an exact complex with some
dimensions unknown, held as a ``ChaseSystem`` of two columns (the terms'
labels and their dimensions, None for an unknown), it applies two
inference rules,

  (a) a term whose two neighbours are zero is itself zero;
  (b) in a maximal segment strictly between two zero terms, a single
      unknown is forced by the vanishing of the alternating dimension sum;

in one scan of the segments, which reaches their fixpoint: a zero is only
written where a segment held its one unknown.  It raises
``ChaseInconsistencyError`` when a fully-known zero-flanked segment has
nonzero alternating sum.  Connecting-map ranks are never
guessed, so a system can legitimately come back underdetermined; callers
must treat unsolved labels as unknown rather than zero.

On top of the solver this module assembles:

  * the Koszul resolution of the ideal sheaf of the flopped centre, with
    terms O(-p) (x) pi^* Wedge^p Theta for p = n down to 1;
  * the Ext table of the structure sheaf of the centre against itself,
    through the degenerate local-to-global spectral sequence whose second
    page ``{(p, q): dim}`` is h^p(P^n, Omega^q);
  * Ext groups of the Koszul terms against the ideal sheaf, by chasing the
    restriction sequence of each term's dual; ``ext_locally_free_vs_ideal``
    gives None for a degree the chase leaves open;
  * the self-Ext of the ideal sheaf in degree 2 at n = 2, the quantity
    separating the two pushpull functors.

Every long exact sequence chased here, for h^i(I), Ext^i(O_Y, I),
Ext^i(I, I) and Ext^i(E_p, I), comes from the one builder
``long_exact_system``, which writes the two columns directly; no
per-term object is made unless a caller asks for ``ChaseSystem.terms``, a
view derived from the columns.  Each reference system is built once and
solved once per call: the solved h^i(I) and Ext^i(O_Y, I) systems fill in
the Ext^i(I, I) system.

>>> sys = long_exact_system("doc", 1, (("A^{i}", None), ("B^{i}", {0: 5}),
...                                    ("C^{i}", {})))
>>> sys.labels[:5], sys.dims[:5], chase_solve(sys).values["A^0"]
(('start', 'A^0', 'B^0', 'C^0', 'A^1'), (0, None, 5, 0, None), 5)
"""

from collections import namedtuple
from functools import partial
from itertools import chain, compress, repeat
from math import comb
from operator import is_

from .bwb import (
    CohomologyTable,
    bott_cohomology,
    exterior_power_theta,
    form_bundle,
    levi_rank,
    line_bundle,
    shorten,
    structure_sheaf,
)
from .pbundle import ModelVariety, Side, XLineBundle, cohomology_with_pullback_twist, cohomology_X


class ChaseInconsistencyError(Exception):
    """The input dimensions violate exactness; an upstream value is wrong."""


class ChaseUnderdeterminedError(Exception):
    """A value the caller needs was not forced by the chase."""


class DegeneracyUnjustifiedError(Exception):
    """Off-diagonal second-page entries are nonzero, so the degeneration
    argument behind the Ext table does not apply."""


class ChaseTerm(namedtuple("ChaseTerm", "label dim")):
    """A labelled term; a dim of None marks an unknown dimension."""

    __slots__ = ()


class ChaseSystem(namedtuple("ChaseSystem", "name labels dims")):
    """An ordered exact complex, held as two columns of equal length:
    ``labels`` and ``dims``, a dim of None marking an unknown dimension and a
    zero object being a term with dim 0.  ``terms`` pairs the columns into
    ChaseTerms, a derived view."""

    __slots__ = ()

    def __new__(cls, name, labels, dims):
        labels, dims = tuple(labels), tuple(dims)
        if len(labels) != len(dims):
            raise ValueError(f"system {name!r} has {len(labels)} labels and {len(dims)} dims")
        # filter(None, ...) drops the zeros and unknowns, which cannot be negative
        if min(filter(None, dims), default=0) < 0:
            label, dim = next((label, dim) for label, dim in zip(labels, dims)
                              if dim is not None and dim < 0)
            raise ValueError(f"term {label} has negative dimension {dim}")
        if len(set(labels)) != len(labels):
            seen = set()
            for label in labels:
                if label in seen:
                    raise ValueError(f"duplicate label {label!r} in system {name!r}")
                seen.add(label)
        return tuple.__new__(cls, (name, labels, dims))

    @property
    def terms(self):
        """The columns paired into ChaseTerms; it stays only while the
        benchmark reads ``.terms`` (``tracer._chase_unknowns``, ``checks.check_chase``)."""
        # tuple.__new__ makes each ChaseTerm in C, skipping the NamedTuple's Python __new__
        return tuple(map(partial(tuple.__new__, ChaseTerm), zip(self.labels, self.dims)))


class ChaseSolution(namedtuple("ChaseSolution", "system values unsolved trace")):
    """A solved system: ``values`` maps each label to its dimension or None,
    ``unsolved`` lists the open labels, ``trace`` the (label, rule, value)
    steps in the order the chase took them."""

    __slots__ = ()

    def require(self, label):
        """The value of ``label``; ChaseUnderdeterminedError if the chase left
        it open, KeyError if the system has no such term."""
        if label not in self.values:
            raise KeyError(f"{self.system.name}: no term {label!r}")
        if self.values[label] is not None:
            return self.values[label]
        raise ChaseUnderdeterminedError(
            f"{self.system.name}: the chase does not determine {label!r}"
        )


def _segments(dims):
    """(lo, hi) index ranges of the maximal runs between two known-zero terms."""
    zero_at = [i for i, d in enumerate(dims) if d == 0]
    return [(left + 1, right) for left, right in zip(zero_at, zero_at[1:]) if right - left > 1]


def _check_exact(system, labels, dims, spans):
    """Raise at the first fully-known span whose alternating sum is not 0."""
    for lo, hi in spans:
        total = sum(dims[lo:hi:2]) - sum(dims[lo + 1:hi:2])
        if total:
            raise ChaseInconsistencyError(
                f"{system.name}: zero-flanked segment {labels[lo:hi]} has alternating "
                f"sum {total}, exactness fails"
            )


def chase_solve(system):
    """Apply rules (a) and (b) to their fixpoint in one scan of the segments.

    A zero is only ever written where a segment held its one unknown, so a
    segment with two unknowns never changes and a solved segment is fully
    known, with alternating sum 0 unless the solved value is 0 and splits
    it; those two parts are checked last.  So errors keep the order of
    rounds to a fixpoint: fully-known segments, rule-(b) negatives, split
    parts.  The trace lists rule (a) steps, then rule (b) steps, each left
    to right; the system read right to left reaches the same fixpoint.
    """
    labels, dims = list(system.labels), list(system.dims)
    trace, open_segs, splits = [], [], []
    for lo, hi in _segments(dims):
        if hi - lo == 1 and dims[lo] is None:
            dims[lo] = 0
            trace.append((labels[lo], "flanked-by-zeros", 0))
            continue
        seg = dims[lo:hi]
        unknowns = seg.count(None)
        if unknowns == 1:
            open_segs.append((lo, hi, seg))
        elif not unknowns:
            _check_exact(system, labels, dims, ((lo, hi),))
    for lo, hi, seg in open_segs:
        pos = seg.index(None)
        seg[pos] = 0
        rest = sum(seg[0::2]) - sum(seg[1::2])
        solved = -rest if pos % 2 == 0 else rest
        if solved < 0:
            raise ChaseInconsistencyError(
                f"{system.name}: segment {labels[lo:hi]} forces {labels[lo + pos]} = {solved} < 0"
            )
        dims[lo + pos] = solved
        trace.append((labels[lo + pos], "alternating-sum", solved))
        if not solved:
            splits += (lo, lo + pos), (lo + pos + 1, hi)
    _check_exact(system, labels, dims, splits)
    unsolved = tuple(compress(labels, map(is_, dims, repeat(None))))
    return ChaseSolution(system, dict(zip(labels, dims)), unsolved, tuple(trace))


def long_exact_system(name, n, columns):
    """The long exact sequence of a short exact sequence, as a chase system:
    ``start``, the three terms of each degree i = 0..2n, then ``end``.

    Each column is ``(label format, dims)``.  The format holds exactly one
    ``{i}`` field, replaced by the degree, and no other brace; any other
    format raises ValueError.  ``dims`` maps degree to dimension, an absent
    degree meaning 0, or is None for a column of unknowns; a degree outside
    0..2n raises ValueError.  Each column's labels and dims are made once,
    then interleaved degree by degree into the system's two columns.
    """
    degrees = range(2 * n + 1)
    numerals = [str(i) for i in degrees]
    label_columns, dim_columns = [], []
    for fmt, dims in columns:
        head, field, tail = fmt.partition("{i}")
        if not field or "{" in head + tail or "}" in head + tail:
            raise ValueError(
                f"label format {shorten(fmt, repr)} must hold exactly one {{i}} field "
                f"and no other brace"
            )
        label_columns.append([head + numeral + tail for numeral in numerals])
        if dims is None:
            dim_columns.append(repeat(None, len(degrees)))
            continue
        values = [0] * len(degrees)
        for degree, dim in dims.items():
            # checked before the write: values[-1] would land on degree 2n
            if degree not in degrees:
                raise ValueError(
                    f"column {shorten(fmt, repr)} has a dimension at degree {degree}, "
                    f"outside 0..{2 * n}"
                )
            values[degree] = dim
        dim_columns.append(values)
    labels = ("start", *chain.from_iterable(zip(*label_columns)), "end")
    dims = (0, *chain.from_iterable(zip(*dim_columns)), 0)
    return ChaseSystem(name, labels, dims)


# ---------------------------------------------------------------------------
# Koszul resolution of the ideal sheaf of the flopped centre


class KoszulTerm(namedtuple("KoszulTerm", "p line_class theta_wedge rank")):
    """O_X(-p) (x) pi^* Wedge^p Theta, the p-th term of the resolution;
    ``rank`` is the Weyl dimension of ``theta_wedge``."""

    __slots__ = ()


class KoszulResolution(namedtuple("KoszulResolution", "n terms")):
    """The resolution's terms, ordered p = n down to 1."""

    __slots__ = ()

    def __new__(cls, n, terms):
        if len(terms) != n:
            raise ValueError(f"expected {n} terms, got {len(terms)}")
        for term, p in zip(terms, range(n, 0, -1)):
            if term.p != p or term.rank != comb(n, p):
                raise ValueError(f"term {term} is not the expected p={p} term")
        self = tuple.__new__(cls, (n, terms))
        if self.alternating_rank_sum() != 1:
            raise ValueError("alternating rank sum must equal rank(I) = 1")
        return self

    def alternating_rank_sum(self):
        return sum((-1) ** (t.p + 1) * t.rank for t in self.terms)

    def alternating_euler_sum(self):
        """Alternating sum of the terms' Euler characteristics.

        Each term sits in the fibre-acyclic band -n <= j <= -1, so every
        summand vanishes and the total matches chi(I) = chi(O_X) - chi(O_Y).
        """
        total = 0
        for t in self.terms:
            table = cohomology_with_pullback_twist(-t.p, t.theta_wedge)
            total += (-1) ** (t.p + 1) * table.euler()
        return total


def koszul_resolution(n):
    variety = ModelVariety(n, Side.X_PLUS)
    wedges = [(p, exterior_power_theta(p, n)) for p in range(n, 0, -1)]
    terms = tuple(KoszulTerm(p, XLineBundle(variety, -p, 0), w, levi_rank(w)) for p, w in wedges)
    return KoszulResolution(n, terms)


# ---------------------------------------------------------------------------
# Ext tables through the local-to-global spectral sequence


def local_ext_page(n):
    """E_2 of the local-to-global sequence for the centre's structure sheaf.

    The local Ext sheaves are the exterior powers of the conormal bundle,
    which is the cotangent bundle of the centre; so the page is
    ``{(p, q): h^p(P^n, Omega^q)}``, with zero entries left out.
    """
    return {
        (p, q): dim
        for q in range(n + 1)
        for p, dim in bott_cohomology(form_bundle(q, n)).dims().items()
    }


def ext_table_OY(n):
    """Ext^i(O_Y+, O_Y+): one dimension at each even degree in [0, 2n].

    Asserts the checkerboard vanishing that forces degeneration; if an
    off-diagonal entry were nonzero the table would be meaningless and
    ``DegeneracyUnjustifiedError`` is raised instead.
    """
    ModelVariety(n)  # the model needs n >= 2
    page = local_ext_page(n)
    stray = [(pq, d) for pq, d in sorted(page.items()) if pq[0] != pq[1]]
    if stray:
        raise DegeneracyUnjustifiedError(
            f"nonzero off-diagonal second-page entries {stray}; the spectral "
            f"sequence need not degenerate"
        )
    return CohomologyTable.from_dict({2 * p: d for (p, _), d in page.items()})


def ext_OY_structure(n):
    """Ext^i(O_Y+, O_X+): local Ext is det N = omega_Y in degree n alone,
    so the global table is h^(i-n)(P^n, O(-n-1)) shifted up by n."""
    omega_table = bott_cohomology(line_bundle(n, -n - 1))
    return CohomologyTable.from_dict(
        {n + p: d for p, d in omega_table.dims().items()}
    )


# ---------------------------------------------------------------------------
# Ext of Koszul terms against the ideal sheaf (first route at n = 2)


def restriction_chase_system(p, n):
    """The long exact sequence computing Ext^i of the p-th Koszul term
    against the ideal sheaf, as a chase system.

    The term's dual is O(p) (x) pi^* Omega^p; restricting to the centre
    gives Omega^p there, so the sequence interleaves the unknown Ext groups
    with h^i(X, O(p) (x) pi^* Omega^p) and h^i(P^n, Omega^p).
    """
    if not 1 <= p <= n:
        raise ValueError(f"p={p} out of range 1..{n}")
    forms = form_bundle(p, n)
    dual_table = cohomology_with_pullback_twist(p, forms)
    centre_table = bott_cohomology(forms)
    return long_exact_system(f"ext-koszul-term-p{p}-n{n}", n, (
        (f"Ext^{{i}}(E{p},I)", None),
        (f"h^{{i}}(E{p}v)", dual_table.dims()),
        (f"h^{{i}}(Omega^{p}|Y)", centre_table.dims()),
    ))


def ext_locally_free_vs_ideal(p, n):
    """Ext^i of the p-th Koszul term against the ideal sheaf for i = 0..2n;
    None marks a degree the chase leaves open, never guessed."""
    values = chase_solve(restriction_chase_system(p, n)).values
    return tuple(values[f"Ext^{i}(E{p},I)"] for i in range(2 * n + 1))


# ---------------------------------------------------------------------------
# self-Ext of the ideal sheaf in degree 2 at n = 2


def ideal_cohomology_system(n):
    """h^i of the ideal sheaf from 0 -> I -> O_X -> O_Y -> 0."""
    variety = ModelVariety(n, Side.X_PLUS)
    x_table = cohomology_X(XLineBundle(variety, 0, 0))
    y_table = bott_cohomology(structure_sheaf(n))
    return long_exact_system(f"ideal-cohomology-n{n}", n, (
        ("h^{i}(I)", None),
        ("h^{i}(O_X)", x_table.dims()),
        ("h^{i}(O_Y)", y_table.dims()),
    ))


def ext_centre_vs_ideal_system(n):
    """Ext^i(O_Y, I) chased through Ext^i(O_Y, O_X) and Ext^i(O_Y, O_Y)."""
    return long_exact_system(f"ext-centre-vs-ideal-n{n}", n, (
        ("Ext^{i}(O_Y,I)", None),
        ("Ext^{i}(O_Y,O_X)", ext_OY_structure(n).dims()),
        ("Ext^{i}(O_Y,O_Y)", ext_table_OY(n).dims()),
    ))


def _ideal_self_chase(n):
    """The solved h^i(I) and Ext^i(O_Y, I) systems, and the Ext^i(I, I)
    system they feed; a value the feeders leave open is carried into it as
    an unknown, not silently zeroed."""
    ideal = chase_solve(ideal_cohomology_system(n))
    centre = chase_solve(ext_centre_vs_ideal_system(n))
    degrees = range(2 * n + 1)
    return ideal, centre, long_exact_system(f"ext-ideal-self-n{n}", n, (
        ("Ext^{i}(O_Y,I)", {i: centre.values[f"Ext^{i}(O_Y,I)"] for i in degrees}),
        ("h^{i}(I)", {i: ideal.values[f"h^{i}(I)"] for i in degrees}),
        ("Ext^{i}(I,I)", None),
    ))


def reference_chase_systems(n):
    """Every system this module assembles for its own computations, unsolved;
    solving the two Ext^i(I, I) feeders again costs about 5 % of a cold build
    (n = 2..24, one fresh process each)."""
    ideal, centre, self_ext = _ideal_self_chase(n)
    return [ideal.system, centre.system, self_ext] + [
        restriction_chase_system(p, n) for p in range(1, n + 1)]


def ext2_ideal_self_with_trace(n):
    """dim Ext^2(I, I) and the chase traces behind it, read from one solve
    of each system.

    Restricted to n = 2: the chase relies on vanishing specific to the
    4-fold case.  The value is 1 there; raises if the chase cannot settle it.
    """
    if n != 2:
        raise ValueError("the degree-2 self-Ext chase is specific to n = 2")
    ideal, centre, self_ext = _ideal_self_chase(n)
    self_ext = chase_solve(self_ext)
    traces = [(s.system.name, s.trace) for s in (ideal, centre, self_ext)]
    return self_ext.require("Ext^2(I,I)"), traces
