"""Cohomology of line bundles on the 2n-fold X = P(O + Theta) over P^n.

Pic(X) is free of rank 2 on the tautological class xi of the bundle
projection pi and the pullback h of the hyperplane class of the base.  A
class (j, k) stands for O_X(j) tensor pi^* O(k).  O_X(j) tensor pi^* F, for F
of Levi weight w, lives on the model over w's base, P^{w.n}.  Cohomology is
computed by pushing forward to the base:

  * j >= 0        : pi_* O_X(j) = Sym^j(O + Theta), the sum of Sym^a Theta
                    for a = 0..j;
  * -n <= j <= -1 : the fibres carry no cohomology, everything vanishes;
  * j <= -n-1     : global Serre duality against the canonical class
                    (-n-1, 0) reflects back into the first case.

For the twisting weight w = (lam, t), the Pieri summands of
Sym^a Theta (x) w are (mu, t - a) with mu a horizontal strip of size a over
lam.  Bott's rule reads beta = (mu_0 + n, mu_1 + n - 1, ..., mu_{n-1} + 1,
t - a): the summand's cohomology sits in the degree that counts the entries
of beta_0..beta_{n-1} below t - a, or nowhere when t - a equals one of them.
On the base, Sym^a of the Euler sequence 0 -> O -> V(1) -> Theta -> 0,
V = C^{n+1}, is 0 -> S^{a-1}V (x) w(a-1) -> S^a V (x) w(a) -> Sym^a Theta (x) w
-> 0, with w(a) = twist(w, a), so the Euler characteristics over
a = first..last sum to
C(n + last, n) chi(w(last)) - C(n + first - 1, n) chi(w(first - 1)).

cohomology_X, the line-bundle case w = O(k), sums over a in closed form and
caches its tables by (n, j, k).  There mu = (a, 0, ..., 0), so step a sits
in h^0 for a >= -k, in h^{n-1} for (-k - n) // 2 + 1 <= a <= -k - n, in h^n
for a <= -((k + n) // 2) - 1 and nowhere else.  A range lo..hi, clipped
to [0, j], adds (-1)^d (S(hi) - S(lo - 1)) in its degree d, with
S(m) = C(n + m, n) C(n + m + k, n) and C(n + m, n) read as a polynomial in m,
which is 0 at m = -1.  The h^0 range starts at lo = max(-k, 0), so one
factor of S(lo - 1) sits at m = -1, and the h^n range starts at lo = 0, so
S(lo - 1) = S(-1) = 0.  Each degree is thus one expression:

  * h^0     = C(n + j, n) C(n + j + k, n)        when j + k >= 0;
  * h^{n-1} = (-1)^{n-1} (S(hi) - S(lo - 1))     when lo <= hi, for
              hi = min(-k - n, j) and lo = max((-k - n) // 2 + 1, 0);
  * h^n     = (-1)^n S(hi)                       when hi >= 0, for
              hi = min(j, -((k + n) // 2) - 1).

In the last two, m + k < 0 at each end, so S(m)'s second factor is
(-1)^n C(-m - k - 1, n) and its sign cancels (-1)^d's.  A class costs a
fixed number of binomial coefficients and reaches no Pieri, Bott or Weyl
code.

For other weights the sum is evaluated at each a = 0..j, in one
cohomology_sum call, except where t - a meets a fixed row: a row i >= 1
with lam_i = lam_{i-1} keeps mu_i = lam_i at every step, so every summand
of step a = t - lam_i - n + i collides and the step is skipped.
O(p) (x) pi^*Omega^p thus takes two Pieri decompositions (a = 0, 1)
instead of p + 1.

The flopped side carries an isomorphic bundle structure, so tables do not
depend on the ``side`` tag; it exists to keep functor domains honest.  The
model is only defined for n >= 2 (n = 1 degenerates to an isomorphism).

Pure functions over immutable values.  The only shared state is three
``lru_cache``s, which only memoise, and all are bounded: the last 2^16 of
Bott's tables, the last 2^16 tables by (n, j, k), and the last 2^10
``ModelVariety`` objects, one per (n, side).
"""

import enum
from functools import lru_cache
from math import comb

from .bwb import (
    EMPTY_TABLE,
    CohomologyTable,
    cohomology_sum,
    dual,
    form_bundle,
    shorten,
    tensor_with_sym,
)


class Side(enum.Enum):
    X = "x"
    X_PLUS = "xplus"

    # members are singletons compared by identity; Enum's own hash runs
    # Python code, and every ModelVariety(n, side) lookup hashes a side
    __hash__ = object.__hash__


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


class ModelVariety:
    """X over P^n, or its flop X+.  This class and XLineBundle are
    ``__slots__`` classes, not namedtuples: a namedtuple's ``==`` falls back to
    the plain tuple's reflected compare, so ``ModelVariety(2) != (2, Side.X)``
    could not hold.

    ``_model_variety`` holds one object per (n, side), so the functors share
    their targets and ``hom_dims`` and ``XLineBundle.__eq__`` meet one object.
    ``==`` and ``hash`` stay by value: an eviction, or two threads missing
    at once, still make a second, equal object."""

    __slots__ = ("n", "side")
    __setattr__ = __delattr__ = _frozen

    def __new__(cls, n, side=Side.X):
        return _model_variety(n, side)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.side == other.side

    def __hash__(self):
        return hash((self.n, self.side))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n!r}, side={self.side!r})"

    def __reduce__(self):
        return type(self), (self.n, self.side)


@lru_cache(maxsize=1 << 10, typed=True)
def _model_variety(n, side):
    """The one ModelVariety per (n, side); typed, so ModelVariety(2.0).n is
    the 2.0 passed, not a cached 2."""
    if n < 2:
        raise ValueError(f"the model needs n >= 2, got n={shorten(str(n))}")
    variety = object.__new__(ModelVariety)
    object.__setattr__(variety, "n", n)
    object.__setattr__(variety, "side", side)
    return variety


class XLineBundle:
    """The class j*xi + k*h in Pic(X) = Z^2."""

    __slots__ = ("variety", "j", "k")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, variety, j, k):
        _set_variety(self, variety)
        _set_j(self, j)
        _set_k(self, k)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.variety, self.j, self.k) == (other.variety, other.j, other.k)

    def __hash__(self):
        return hash((self.variety, self.j, self.k))

    def __repr__(self):
        return f"{type(self).__name__}(variety={self.variety!r}, j={self.j!r}, k={self.k!r})"

    def __reduce__(self):
        return type(self), (self.variety, self.j, self.k)

    def _require_same(self, other):
        if self.variety != other.variety:
            raise ValueError(
                f"classes live on different varieties: {self.variety} vs {other.variety}"
            )

    def __sub__(self, other):
        self._require_same(other)
        return XLineBundle(self.variety, self.j - other.j, self.k - other.k)

    def coords(self):
        return (self.j, self.k)


# the slots' own setters, which __setattr__ = _frozen leaves reachable
_set_variety, _set_j, _set_k = (XLineBundle.variety.__set__, XLineBundle.j.__set__,
                                XLineBundle.k.__set__)


def canonical_class(variety):
    """omega_X = O_X(-n-1), with no component along h."""
    return XLineBundle(variety, -variety.n - 1, 0)


@lru_cache(maxsize=1 << 16)
def _cohomology_coords(n, j, k):
    if j < 0:
        if j >= -n:
            return EMPTY_TABLE
        # cached: every partner that run_all(12) reflects is also looked up directly
        partner = _cohomology_coords(n, -n - 1 - j, -k).entries
        return CohomologyTable(tuple((2 * n - d, v) for d, v in reversed(partner)))
    # the per-degree forms of the module docstring, with top = -k - n and
    # -((k + n) // 2) - 1 = (top - 1) // 2; degrees 0 < n - 1 < n ascend, and
    # a non-empty range has a positive dim
    entries = []
    if j + k >= 0:
        entries.append((0, comb(n + j, n) * comb(n + j + k, n)))
    top = -k - n
    lo, hi = top // 2 + 1, top if top < j else j
    if lo <= hi:  # lo <= top forces lo >= 1, so max(lo, 0) = lo
        entries.append((n - 1, comb(n + lo - 1, n) * comb(-lo - k, n)
                        - comb(n + hi, n) * comb(-hi - k - 1, n)))
    hi = (top - 1) // 2
    if hi > j:
        hi = j
    if hi >= 0:  # then hi + k < 0
        entries.append((n, comb(n + hi, n) * comb(-hi - k - 1, n)))
    return CohomologyTable(tuple(entries))


# the tables by (n, j, k), under a name tests rebind without touching cohomology_X
cohomology_coords = _cohomology_coords


def cohomology_X(lb):
    """Exact dimensions h^i(X, O_X(j) (x) pi^*O(k)) for all i."""
    return _cohomology_coords(lb.variety.n, lb.j, lb.k)


def cohomology_with_pullback_twist(j, w):
    """h^i(X, O_X(j) (x) pi^* F), X the model over the base of w, for F of
    Levi weight w, by the three branches of the module docstring (F-dual in
    the Serre branch).  The cost is one Pieri decomposition per step a that
    is not skipped, so it grows with |j|; the product never asks for j > n:

    >>> cohomology_with_pullback_twist(2, form_bundle(2, 3)).dims()
    {1: 1, 2: 1}
    """
    n = ModelVariety(w.n).n  # the model needs n >= 2
    if -n <= j <= -1:
        return EMPTY_TABLE
    if j < 0:
        return cohomology_with_pullback_twist(-n - 1 - j, dual(w)).reflect(2 * n)
    # the steps where t - a meets a fixed row of beta carry nothing
    dead = {w.t - w.lam[i] - n + i for i in range(1, n) if w.lam[i] == w.lam[i - 1]}
    return cohomology_sum(s for a in range(j + 1) if a not in dead
                          for s in tensor_with_sym(w, a).summands)


def hom_dims(a, b):
    """Hom^i(a, b) of line-bundle classes: the cohomology of b - a, read at
    its coordinates without building it; raises as b - a does."""
    if a.variety is not b.variety:
        b._require_same(a)
    return _cohomology_coords(a.variety.n, b.j - a.j, b.k - a.k)
