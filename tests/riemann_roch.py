"""The Riemann-Roch check on line-bundle tables, shared by the table test in
``test_pbundle.py`` and the engine mutants in ``test_mutants.py``.

It reads the tables through ``pbundle.cohomology_coords``, so a test that
rebinds that name checks the function it put there."""

from math import factorial, prod

from flopcalc import pbundle


def check_line_bundle_tables():
    """Every table cohomology_coords builds, against Riemann-Roch with no
    engine code: degrees strictly ascend within 0..2n, every dim is positive,
    and the alternating sum is C(n + j, n) C(n + j + k, n), with C(n + m, n)
    the polynomial (m + 1)...(m + n) / n!.  The box reaches j >= 0 with all
    three ranges of a (k <= -n - 2), the band, and j <= -n - 1, whose Serre
    partner (-n - 1 - j, -k) takes all three ranges at k >= n + 2."""
    for n in range(2, 41):
        js, ks = range(-2 * n - 4, n + 4), range(-n - 4, n + 5)
        c = {m: prod(range(m + 1, m + n + 1)) // factorial(n)
             for m in range(js[0] + ks[0], js[-1] + ks[-1] + 1)}
        shapes = set()
        for j in js:
            for k in ks:
                entries = pbundle.cohomology_coords(n, j, k).entries
                degrees = tuple(d for d, _ in entries)
                assert list(degrees) == sorted(set(degrees)), (n, j, k)
                assert all(0 <= d <= 2 * n and v > 0 for d, v in entries), (n, j, k)
                assert sum((-1) ** d * v for d, v in entries) == c[j] * c[j + k], (n, j, k)
                shapes.add(degrees)
        assert shapes == {(), (0,), (0, n - 1, n), (n - 1, n), (n,), (n, n + 1),
                          (n, n + 1, 2 * n), (2 * n,)}, n
