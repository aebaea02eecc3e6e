"""Euler characteristics on P^n and on X in closed form, the one copy the
tests check the engine's tables against.  It imports nothing from
``flopcalc`` (``test_euler_certificate.py`` checks that), so it shares no
sort, twist, dual or Pieri code with the engine.

On P^n, chi(O(m)) = C(n + m, n) as a polynomial in m, and the Euler sequence
gives chi(Sym^a Theta(k)) = C(n + a, n) chi(O(a + k)) - C(n + a - 1, n)
chi(O(a - 1 + k)).  chi(X, O(j) (x) pi^*O(k)) is the sum of those over
a <= j, continued to j < 0 as the polynomial it is (the empty sum at
j = -1).  For a general bundle F = S_lam Q (x) O(-t) on P^n, Weyl's product
gives chi(P^n, F), and ``chi_on_x`` the Euler characteristic of
O_X(j) (x) pi^*F by the branches ``test_euler_certificate.py`` describes.
"""

from itertools import combinations
from math import comb


def binom_poly(m, r):
    """C(m, r) as a polynomial in m: m (m - 1) ... (m - r + 1) / r!."""
    return comb(m, r) if m >= 0 else (-1) ** r * comb(r - m - 1, r)


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


def weyl_chi(lam, t):
    """chi(P^n, S_lam Q (x) O(-t)), Weyl's product at the unsorted beta."""
    n = len(lam)
    beta = [a + n - i for i, a in enumerate(lam)] + [t]
    num = den = 1
    for i, l in combinations(range(n + 1), 2):
        num *= beta[i] - beta[l]
        den *= l - i
    chi, rem = divmod(num, den)
    assert not rem, (lam, t)
    return chi


def chi_on_x(j, lam, t):
    """chi(X, O_X(j) (x) pi^*F), F = S_lam Q (x) O(-t) on P^n: C(n + j, n)
    chi(P^n, F(j)) for j >= 0, 0 on the band -n <= j <= -1, and below it the
    Serre partner O_X(-n - 1 - j) (x) pi^*F-dual."""
    n = len(lam)
    if j >= 0:
        return binom_poly(n + j, n) * weyl_chi(lam, t - j)
    if j >= -n:
        return 0
    return chi_on_x(-n - 1 - j, tuple(-a for a in reversed(lam)), -t)
