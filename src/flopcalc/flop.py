"""The flop's action on Pic and the pushpull functors on line-bundle classes.

The birational map identifies the Picard lattices of the two sides through
an involution fixing the tautological class and sending the base hyperplane
class h+ to xi - h.  Three symbolic functors act on line-bundle classes:

  * ``apply_phi``       blow-up then blow-down; on the computed range the
                        image is a line bundle, except at k = 1 where it is
                        a line bundle twisted by the ideal sheaf of the
                        flopped centre.
  * ``apply_phi_prime`` inverse direction with the relative dualizing twist
                        folded in; inverts ``apply_phi`` on line images.
  * ``apply_psi``       pullpush through the fibre product of the two small
                        contractions; stays a line bundle on all of the
                        second spanning range, including k = -n.

Each functor is only defined on the rectangle of classes where the image is
a single sheaf in degree 0; outside it ``FunctorRangeError`` is raised
rather than extrapolating.
"""

import enum
from collections import namedtuple

from .bwb import shorten
from .pbundle import ModelVariety, Side, XLineBundle


class FunctorRangeError(ValueError):
    """Raised for classes outside the rectangle a functor is computed on."""


class PicMap(namedtuple("PicMap", "rows")):
    """2x2 integer matrix acting on (j, k) coordinates of Pic, as two rows."""

    __slots__ = ()

    def apply(self, j, k):
        (a, b), (c, d) = self.rows
        return (a * j + b * k, c * j + d * k)

    def compose(self, other):
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return PicMap(((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)))

    def is_involution(self):
        return self.compose(self).rows == ((1, 0), (0, 1))


def phi_pullback(n):
    """Pullback of classes from the flopped side: xi+ -> xi, h+ -> xi - h."""
    ModelVariety(n)  # the model needs n >= 2
    return PicMap(((1, 1), (0, -1)))


class ImageKind(enum.Enum):
    LINE = "line"
    IDEAL_TWIST = "ideal_twist"


# the functors run once per class; reading an enum member through its class
# costs several times a module global on CPython 3.11
_X, _X_PLUS = Side.X, Side.X_PLUS
_LINE, _IDEAL_TWIST = ImageKind.LINE, ImageKind.IDEAL_TWIST


class FMImage(namedtuple("FMImage", "kind bundle")):
    """A functor image: a line-bundle class, possibly twisted by the ideal
    sheaf of the flopped centre (which only lives on the flopped side)."""

    __slots__ = ()

    def __new__(cls, kind, bundle):
        if kind is _IDEAL_TWIST and bundle.variety.side is not _X_PLUS:
            raise ValueError("ideal-twist images only arise on the flopped side")
        return tuple.__new__(cls, (kind, bundle))


def _shown(*values):
    """Integers for a diagnostic, an over-long one shortened."""
    return ", ".join(shorten(str(v)) for v in values)


def _wrong_side(side, functor):
    return FunctorRangeError(f"{functor} expects a class on side {side.value}")


def apply_phi(lb):
    """Blow-up/blow-down image of (j, k) with -n <= j <= 0, -n+1 <= k <= 1."""
    variety, j, k = lb.variety, lb.j, lb.k
    if variety.side is not _X:
        raise _wrong_side(_X, "phi")
    n = variety.n
    if not (-n <= j <= 0 and -n + 1 <= k <= 1):
        raise FunctorRangeError(
            f"phi is only computed for {_shown(-n)} <= j <= 0 and {_shown(-n + 1)} "
            f"<= k <= 1, got (j, k) = ({_shown(j, k)})"
        )
    image = XLineBundle(ModelVariety(n, _X_PLUS), j + k, -k)
    return FMImage(_IDEAL_TWIST if k == 1 else _LINE, image)


def apply_phi_prime(lb):
    """Inverse transport of a line image (j+k, -k) back to (j, k)."""
    variety, lb_j, lb_k = lb.variety, lb.j, lb.k
    if variety.side is not _X_PLUS:
        raise _wrong_side(_X_PLUS, "phi_prime")
    n = variety.n
    k = -lb_k
    j = lb_j - k
    if not (-n <= j <= 0 and -n + 1 <= k <= 0):
        raise FunctorRangeError(
            f"phi_prime is only computed on line images of the phi range, "
            f"got class ({_shown(lb_j, lb_k)})"
        )
    return XLineBundle(ModelVariety(n, _X), j, k)


def apply_psi(lb):
    """Fibre-product pushpull of (j, k) with -n <= j <= 0 and -n <= k <= 0."""
    variety, j, k = lb.variety, lb.j, lb.k
    if variety.side is not _X:
        raise _wrong_side(_X, "psi")
    n = variety.n
    if not (-n <= j <= 0 and -n <= k <= 0):
        raise FunctorRangeError(
            f"psi is only computed for {_shown(-n)} <= j, k <= 0, "
            f"got (j, k) = ({_shown(j, k)})"
        )
    return XLineBundle(ModelVariety(n, _X_PLUS), j + k, -k)


class SpanningClass(enum.Enum):
    OMEGA = "omega"
    OMEGA_PRIME = "omega_prime"


def enumerate_spanning_class(n, variant):
    """The generating rectangles of line-bundle classes, ordered by (j, k)."""
    variety = ModelVariety(n, Side.X)
    if variant is SpanningClass.OMEGA:
        k_range = range(-n + 1, 2)
    elif variant is SpanningClass.OMEGA_PRIME:
        k_range = range(-n, 1)
    else:
        raise ValueError(f"unknown spanning class variant {variant!r}")
    return [
        XLineBundle(variety, j, k) for j in range(-n, 1) for k in k_range
    ]

