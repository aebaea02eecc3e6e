"""Exact cohomology of irreducible homogeneous bundles on P^n.

An irreducible homogeneous bundle is encoded by its Levi weight: a pair
``(lam, t)`` where ``lam`` is a non-increasing integer vector of length n
acting on the tautological quotient bundle Q, and ``t`` is an integer twist
normalised so that O(1) is ``(0,...,0 | -1)``.  Concretely the bundle is
S_lam(Q) tensored with O(-t).  Anchors for the convention:

>>> bott_cohomology(line_bundle(2, 3)).dims()
{0: 10}
>>> bott_cohomology(tangent_bundle(2)).dims()
{0: 8}
>>> bott_cohomology(LeviWeight(3, (0, 0, -1), 1)).dims()   # 1-forms on P^3
{1: 1}

Cohomology is concentrated in at most one degree: append ``t`` to ``lam``,
add the staircase vector ``rho = (n, ..., 1, 0)``, and either two entries
collide (no cohomology at all) or the number of inversions needed to sort
the result strictly decreasing is the one degree carrying sections, whose
dimension is a Weyl dimension.  ``bott_sort`` finds that degree and the
sorted weight, uncached, and ``bott_cohomology`` caches the table built from
them.  As ``lam`` is non-increasing, the degree is the count of entries
below ``t``, found in O(n) steps; the Weyl product runs over pairs of blocks
of equal entries (see ``weyl_dim``), so the cost is polynomial in n.  All
arithmetic is exact; dimensions are plain Python integers of unbounded size.

Every function here is pure and every value immutable, so the module is
safe to use from concurrent code without locking.  Immutable values across
the package are written so that defining them costs nothing at import: a
``collections.namedtuple`` subclass with ``__slots__ = ()`` whose checks run
in ``__new__`` (``_replace`` and ``_make`` skip ``__new__``, so the package
never calls them on a checked type).  ``pbundle.ModelVariety`` says why two
of them are ``__slots__`` classes instead.
"""

import re
from collections import namedtuple
from functools import lru_cache
from math import comb


class LeviWeight(namedtuple("LeviWeight", "n lam t")):
    """Weight data (lam on Q, twist t) of an irreducible bundle on P^n;
    ``lam`` is kept as a tuple."""

    __slots__ = ()

    def __new__(cls, n, lam, t):
        lam = tuple(lam)
        if n < 1:
            raise ValueError(f"ambient P^n needs n >= 1, got n={n}")
        if len(lam) != n:
            raise ValueError(f"weight vector has length {len(lam)}, expected n={n}")
        if lam != tuple(sorted(lam, reverse=True)):
            raise ValueError(f"weight vector {lam} is not non-increasing")
        return tuple.__new__(cls, (n, lam, t))

    def literal(self):
        """Render in the CLI/JSON literal syntax, e.g. ``"1,0|-1"``."""
        return ",".join(str(a) for a in self.lam) + "|" + str(self.t)


def shorten(text, show=str):
    """``show(text)`` for a diagnostic; past 40 characters, ``show`` of the
    first 20 and the length, so an over-long input is not echoed in full.

    >>> shorten("9" * 50, repr)
    "'99999999999999999999'... (50 characters)"
    """
    if len(text) <= 40:
        return show(text)
    return f"{show(text[:20])}... ({len(text)} characters)"


def read_int(token, invalid, too_long="an integer"):
    """The int of ``[+-]`` and ASCII digits amid whitespace, else a ValueError
    saying ``invalid``, so ``1_0`` and non-ASCII digits are refused; past the
    int-to-str digit limit, ``too_long`` "of N characters, too long to read".

    >>> read_int("1_0", "not an integer")
    Traceback (most recent call last):
    ValueError: not an integer
    """
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", token):
        raise ValueError(invalid)
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{too_long} of {len(token)} characters, too long to read") from None


def parse_weight(text):
    """Parse a weight literal ``"lam_1,...,lam_n|t"`` into a LeviWeight.

    >>> parse_weight("1,0|-1") == tangent_bundle(2)
    True
    """
    shown = shorten(text, repr)
    body, sep, tail = text.partition("|")
    if not sep:
        raise ValueError(f"weight literal {shown} is missing the '|t' part")
    invalid = f"weight literal {shown} has a non-integer token"
    too_long = f"weight literal {shown} has an integer entry"
    lam = tuple(read_int(tok, invalid, too_long) for tok in body.split(","))
    return LeviWeight(len(lam), lam, read_int(tail, invalid, too_long))


def structure_sheaf(n):
    return LeviWeight(n, (0,) * n, 0)


def line_bundle(n, k):
    """O(k) on P^n."""
    return LeviWeight(n, (0,) * n, -k)


def tangent_bundle(n):
    """Theta = Q(1) on P^n."""
    return LeviWeight(n, (1,) + (0,) * (n - 1), -1)


class HomogeneousBundle(namedtuple("HomogeneousBundle", "summands")):
    """The Pieri summands ``tensor_with_sym`` returns, a tuple of Levi weights;
    unchecked.  It stays only while the benchmark's tracer reads ``.summands``
    (``tracer._summands``)."""

    __slots__ = ()


class CohomologyTable(namedtuple("CohomologyTable", "entries")):
    """Map from cohomological degree to exact dimension; zeros omitted.
    ``entries`` is a sorted tuple of (degree, dimension) pairs."""

    __slots__ = ()

    @classmethod
    def from_dict(cls, dims):
        for deg, dim in dims.items():
            if deg < 0 or dim < 0:
                raise ValueError(f"bad table entry h^{deg} = {dim}")
        return cls(tuple(sorted((d, v) for d, v in dims.items() if v)))

    def dims(self):
        return dict(self.entries)

    def get(self, degree):
        return dict(self.entries).get(degree, 0)

    def euler(self):
        return sum((-1) ** deg * dim for deg, dim in self.entries)

    def reflect(self, top):
        """The table read backwards from degree ``top`` (Serre reflection)."""
        return CohomologyTable.from_dict({top - d: v for d, v in self.entries})


EMPTY_TABLE = CohomologyTable(())


def weyl_dim(mu):
    """Dimension of the GL(len(mu)) representation with dominant highest
    weight mu; a mu that rises anywhere is a ValueError.  Bott's sort of a
    weight plus rho into a dominant mu is ``bott_sort``'s, not this one's.

    Weyl's product of (mu_i - mu_j + j - i)/(j - i) over i < j, taken block
    by block: pairs inside a run of equal entries give 1, and for runs of
    values v > w at [a, b) and [c, d), with e = v - w, the pairs of index i
    multiply to C(e + d - 1 - i, e) / C(e + c - 1 - i, e), taken over the
    shorter run.  Numerators and denominators are integer products with one
    exact division.

    >>> weyl_dim((1, 0, -1))   # adjoint representation of GL(3)
    8
    """
    m = len(mu)
    blocks, start = [], 0
    for i in range(1, m):
        if mu[i] < mu[i - 1]:
            blocks.append((start, i))
            start = i
        elif mu[i] > mu[i - 1]:
            raise ValueError(f"weight {mu} is not dominant: entry {i} rises")
    blocks.append((start, m))
    num = den = 1
    for x, (a, b) in enumerate(blocks, 1):
        for c, d in blocks[x:]:
            e = mu[a] - mu[c]
            if b - a <= d - c:
                for i in range(a, b):
                    num *= comb(e + d - 1 - i, e)
                    den *= comb(e + c - 1 - i, e)
            else:
                for j in range(c, d):
                    num *= comb(e + j - a, e)
                    den *= comb(e + j - b, e)
    dim, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"Weyl dimension of {mu} is not integral: {num}/{den}")
    return dim


def levi_rank(w):
    """Fibre rank of the bundle, the Weyl dimension of lam over GL(n)."""
    return weyl_dim(w.lam)


def bott_sort(w):
    """Bott's sort of w, uncached: ``(degree, mu)``, mu the dominant weight whose
    Weyl dimension that degree carries, or None when two entries collide."""
    lam, t, n = w.lam, w.t, w.n
    # beta_i = lam_i + n - i strictly decreases for i < n, so the degree is
    # the number of those below beta_n = t, counted up from the bottom row
    below = 0
    while below < n and lam[n - 1 - below] + 1 + below < t:
        below += 1
    if below < n and lam[n - 1 - below] + 1 + below == t:
        return None
    cut = n - below
    # the loop leaves lam[cut - 1] >= t - below >= lam[cut] + 1, so mu is
    # dominant and its Weyl dimension is positive
    return below, lam[:cut] + (t - below,) + tuple(a + 1 for a in lam[cut:])


@lru_cache(maxsize=1 << 16, typed=True)
def bott_cohomology(w):
    """Full cohomology table of a LeviWeight; at most one degree is nonzero.
    The cache is typed, so a plain tuple equal to a cached weight misses it."""
    sort = bott_sort(w)
    if sort is None:
        return EMPTY_TABLE
    below, mu = sort
    dim = weyl_dim(mu)
    if dim <= 0:
        raise ArithmeticError(f"Weyl dimension of dominant {mu} is {dim}, not positive")
    return CohomologyTable(((below, dim),))


def cohomology_sum(weights):
    """Degree-wise sum of bott_cohomology over ``weights``, any iterable of
    LeviWeights (a generator is read once; an empty one sums to no cohomology)."""
    dims = {}
    for w in weights:
        for deg, dim in bott_cohomology(w).entries:
            dims[deg] = dims.get(deg, 0) + dim
    return CohomologyTable.from_dict(dims)


def twist(w, m):
    """Tensor with O(m): the twist convention stores O(1) at t = -1."""
    return LeviWeight(w.n, w.lam, w.t - m)


def dual(w):
    """The dual bundle: reverse and negate lam, negate t."""
    return LeviWeight(w.n, tuple(-a for a in reversed(w.lam)), -w.t)


def exterior_power_theta(p, n):
    """Wedge^p Theta = Wedge^p Q tensor O(p), as a LeviWeight."""
    if not 0 <= p <= n:
        raise ValueError(f"wedge power p={p} out of range 0..{n}")
    return LeviWeight(n, (1,) * p + (0,) * (n - p), -p)


def form_bundle(p, n):
    """Omega^p on P^n, derived as Wedge^(n-p) Theta tensor O(-n-1)."""
    return twist(exterior_power_theta(n - p, n), -(n + 1))


def tensor_with_sym(w, a):
    """Decompose (Sym^a Theta) tensor w into irreducibles.

    Horizontal-strip Pieri rule on the Q-weight, with the twist bookkeeping
    Sym^a Theta = Sym^a Q tensor O(a).  As lam_i <= mu_i <= lam_{i-1}, only
    the first row of each run of equal entries of lam takes boxes.  The walk
    goes run by run on an explicit stack, so its depth is not bounded by the
    recursion limit, and emits the summands in lexicographic order of mu.
    """
    if a < 0:
        raise ValueError(f"symmetric power must be >= 0, got {a}")
    n, lam, t = w.n, w.lam, w.t - a
    results = []
    # (start of the next run, rows above it, boxes left to place)
    stack = [(0, (), a)]
    while stack:
        s, prefix, remaining = stack.pop()
        if remaining == 0:
            results.append(LeviWeight(n, prefix + lam[s:], t))
            continue
        v = lam[s]
        # rows below the run absorb at most v - lam[-1] boxes in total
        low = max(v, lam[-1] + remaining)
        high = v + remaining if s == 0 else min(lam[s - 1], v + remaining)
        end = s + lam.count(v)   # equal entries of lam are contiguous
        forced = lam[s + 1:end]
        # pushed from the highest top row down, so the lowest pops first
        for top in range(high, low - 1, -1):
            stack.append((end, prefix + (top,) + forced, remaining - (top - v)))
    return HomogeneousBundle(tuple(results))
