"""Euler characteristics of the engine's tables against closed forms that
use no sort, no inversion count and no Pieri walk.

On P^n, Weyl's product of (beta_i - beta_l) / (l - i) over 0 <= i < l <= n,
taken at the *unsorted* beta = (lam_0 + n, ..., lam_{n-1} + 1, t), is
chi(P^n, S_lam Q (x) O(-t)): it is 0 when two entries collide, and its sign
is the parity of the inversions.  Bott's table has one degree, so this pins
its dimension and the parity of its degree.

On X over P^n, Sym^a of the Euler sequence telescopes the sum over a of the
pushforward (see the ``pbundle`` docstring) to
chi(X, O_X(j) (x) pi^*F) = C(n + j, n) chi(P^n, F(j)) for j >= 0.  chi is 0
on the band -n <= j <= -1, and below it Serre duality on the
even-dimensional X gives chi(X, O_X(-n - 1 - j) (x) pi^*F-dual).

chi cannot see dimension moved between degrees of equal parity: the tables
of O(p) (x) pi^*Omega^p have h^{p-1} = h^p = 1 and chi = 0.  So this adds to
the Cech oracle (``cech_oracle.py``), which checks degree by degree at small
n; it does not replace it.
"""

import ast
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

import pytest

from euler_reference import chi_on_x, weyl_chi
from flopcalc.bwb import LeviWeight, bott_cohomology, exterior_power_theta, form_bundle
from flopcalc.pbundle import cohomology_with_pullback_twist

# what this module may import from the package: the two functions it
# checks, and value constructors, which hold no sort, twist, dual or Pieri code
ALLOWED = {
    "flopcalc.bwb": {"LeviWeight", "exterior_power_theta", "form_bundle", "bott_cohomology"},
    "flopcalc.pbundle": {"cohomology_with_pullback_twist"},
}


def flopcalc_imports(path):
    """The ``import flopcalc...`` modules and ``from flopcalc... import``
    (module, name) pairs of the Python file at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    plain = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names if alias.name.split(".")[0] == "flopcalc"]
    froms = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "flopcalc"
             for alias in node.names]
    return plain, froms


def test_imports_only_the_checked_functions_and_value_constructors():
    plain, froms = flopcalc_imports(Path(__file__))
    assert not plain
    assert froms
    assert [(m, name) for m, name in froms if name not in ALLOWED.get(m, ())] == []


def test_reference_imports_nothing_from_the_package():
    assert flopcalc_imports(Path(__file__).with_name("euler_reference.py")) == ([], [])


def test_weyl_chi_anchors():
    # O(k) on P^n is C(n + k, n) for k >= 0; 1-forms on P^3 sit in h^1
    assert [weyl_chi((0, 0), -k) for k in range(4)] == [1, 3, 6, 10]
    assert weyl_chi((0, 0, -1), 1) == -1
    assert weyl_chi((0,), 1) == 0   # O(-1) on P^1


@pytest.mark.parametrize("n", range(1, 7))
def test_bott_tables(n):
    # entries -2..2, t = -5..n+5
    tables = 0
    for lam in combinations_with_replacement(range(2, -3, -1), n):
        for t in range(-5, n + 6):
            w = LeviWeight(n, lam, t)
            assert bott_cohomology(w).euler() == weyl_chi(lam, t), w
            tables += 1
    assert tables == comb(n + 4, 4) * (n + 11)


@pytest.mark.parametrize("family", [form_bundle, exterior_power_theta])
def test_pushforward_of_koszul_terms(family):
    # Omega^p and Wedge^p Theta at j = p, -p and -n - 1 - p, 1 <= p <= n, 2 <= n <= 20:
    # the Koszul terms O(-p) (x) pi^*Wedge^p Theta, their duals and Serre partners
    tables = nonzero = 0
    for n in range(2, 21):
        for p in range(1, n + 1):
            w = family(p, n)
            for j in (p, -p, -n - 1 - p):
                chi = chi_on_x(j, w.lam, w.t)
                assert cohomology_with_pullback_twist(j, w).euler() == chi, (w, j)
                tables += 1
                nonzero += chi != 0
    assert tables == 627
    assert nonzero
