"""Cohomology of line bundles on the 2n-fold X = P(O + Theta) over P^n.

Pic(X) is free of rank 2 on the tautological class xi of the bundle
projection pi and the pullback h of the hyperplane class of the base.  A
class (j, k) stands for O_X(j) tensor pi^* O(k).  Cohomology is computed by
pushing forward to the base:

  * j >= 0        : pi_* O_X(j) = Sym^j(O + Theta), a direct computation;
  * -n <= j <= -1 : the fibres carry no cohomology, everything vanishes;
  * j <= -n-1     : global Serre duality against the canonical class
                    (-n-1, 0) reflects back into the first case.

The flopped side carries an isomorphic bundle structure, so tables do not
depend on the ``side`` tag; it exists to keep functor domains honest.  The
model is only defined for n >= 2 (n = 1 degenerates to an isomorphism).

Pure functions over immutable values throughout; sweeps may be parallelised
over (n, j, k) without shared state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .bwb import (
    EMPTY_TABLE,
    HomogeneousBundle,
    LeviWeight,
    cohomology_sum,
    dual,
    line_bundle,
    tensor_with_sym,
)


class Side(enum.Enum):
    X = "x"
    X_PLUS = "xplus"


@dataclass(frozen=True)
class ModelVariety:
    n: int
    side: Side = Side.X

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"the model needs n >= 2, got n={self.n}")

    @property
    def dim(self):
        return 2 * self.n


@dataclass(frozen=True)
class XLineBundle:
    """The class j*xi + k*h in Pic(X) = Z^2."""

    variety: ModelVariety
    j: int
    k: int

    def _require_same(self, other):
        if self.variety != other.variety:
            raise ValueError(
                f"classes live on different varieties: {self.variety} vs {other.variety}"
            )

    def __add__(self, other):
        self._require_same(other)
        return XLineBundle(self.variety, self.j + other.j, self.k + other.k)

    def __sub__(self, other):
        self._require_same(other)
        return XLineBundle(self.variety, self.j - other.j, self.k - other.k)

    def coords(self):
        return (self.j, self.k)


def canonical_class(variety):
    """omega_X = O_X(-n-1), with no component along h."""
    return XLineBundle(variety, -variety.n - 1, 0)


@lru_cache(maxsize=None)
def _cohomology_coords(n, j, k):
    return cohomology_with_pullback_twist(ModelVariety(n), j, line_bundle(n, k))


def cohomology_X(lb):
    """Exact dimensions h^i(X, O_X(j) (x) pi^*O(k)) for all i."""
    return _cohomology_coords(lb.variety.n, lb.j, lb.k)


def cohomology_with_pullback_twist(variety, j, pullback):
    """h^i(X, O_X(j) (x) pi^* F) for a homogeneous bundle F on the base.

    Three branches, by where j sits relative to the fibre dimension n:

      * j >= 0        : pi_* O_X(j) = Sym^j(O + Theta), the sum of Sym^a Theta
                        for a <= j; each is tensored against F by the Pieri
                        rule and summed on the base;
      * -n <= j <= -1 : the fibres carry no cohomology, everything vanishes;
      * j <= -n-1     : Serre duality against omega_X = O_X(-n-1) turns the
                        class into O_X(-n-1-j) (x) pi^* F-dual, computed by
                        the first branch and reflected at degree 2n.
    """
    if isinstance(pullback, LeviWeight):
        pullback = HomogeneousBundle((pullback,))
    n = variety.n
    if -n <= j <= -1:
        return EMPTY_TABLE
    if j >= 0:
        return cohomology_sum(HomogeneousBundle(tuple(
            s
            for w in pullback.summands
            for a in range(j + 1)
            for s in tensor_with_sym(w, a).summands
        )))
    flipped = HomogeneousBundle(tuple(dual(w) for w in pullback.summands))
    return cohomology_with_pullback_twist(variety, -n - 1 - j, flipped).reflect(2 * n)


def hom_dims(a, b):
    """Hom^i(a, b) of line-bundle classes: cohomology of the difference b - a."""
    return cohomology_X(b - a)


def euler_char(lb):
    return cohomology_X(lb).euler()


def structure_cohomology(variety):
    """h^i(X, O_X); equals the base table since the fibres are rational."""
    return cohomology_X(XLineBundle(variety, 0, 0))
