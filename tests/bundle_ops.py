"""Weight and table operations that only the tests use, in one copy: the
dual and the twist of a weight, the tangent bundle, and Serre's reflection
of a cohomology table.

The engine takes Serre duality on X in one place, inside the line-bundle
tables of ``pbundle``; the general pushforward stops at j >= -n.  The tests
continue it below the band as ``serre_pushforward``: the table of the Serre
partner O_X(-n - 1 - j) (x) pi^*F-dual, read backwards from degree 2n.
"""

from flopcalc.bwb import CohomologyTable, LeviWeight
from flopcalc.pbundle import cohomology_with_pullback_twist


def twist(w, m):
    """Tensor with O(m): the twist convention stores O(1) at t = -1."""
    return LeviWeight(w.n, w.lam, w.t - m)


def dual(w):
    """The dual bundle: reverse and negate lam, negate t."""
    return LeviWeight(w.n, tuple(-a for a in reversed(w.lam)), -w.t)


def tangent_bundle(n):
    """Theta = Q(1) on P^n."""
    return LeviWeight(n, (1,) + (0,) * (n - 1), -1)


def reflect(table, top):
    """``table`` read backwards from degree ``top``: h^d becomes h^(top - d)."""
    return CohomologyTable(tuple((top - d, v) for d, v in reversed(table.entries)))


def serre_pushforward(j, w):
    """h^*(X, O_X(j) (x) pi^*F) for any j: the engine's pushforward for
    j >= -n, and below the band the reflection of its Serre partner's."""
    n = w.n
    if j >= -n:
        return cohomology_with_pullback_twist(j, w)
    return reflect(cohomology_with_pullback_twist(-n - 1 - j, dual(w)), 2 * n)
