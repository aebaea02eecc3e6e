"""Correctness references for the benchmark's ops.

None of these import ``flopcalc.bwb`` or reuse its weight combinatorics:
line-bundle Euler characteristics come from the Euler sequence and binomial
coefficients, the centre's self-Ext table from Lemma 2.3's closed form, and
CLI output from bytes recorded once in ``data/verify_sweep_stdout.json``.

Each check returns ``None`` when the result is right and a one-line
description of the mismatch otherwise.
"""

from __future__ import annotations

import json
from math import comb
from pathlib import Path

VERIFY_REFERENCE = Path(__file__).resolve().parent / "data" / "verify_sweep_stdout.json"


def chi_line_pn(n, m):
    """chi(P^n, O(m)) = prod_{i=1..n} (m + i) / n!, valid for every integer m."""
    num = 1
    for i in range(1, n + 1):
        num *= m + i
    den = 1
    for i in range(2, n + 1):
        den *= i
    return num // den


def chi_sym_theta(n, a, k):
    """chi(Sym^a Theta (k)) from Sym^a of the Euler sequence 0 -> O -> O(1)^(n+1) -> Theta -> 0."""
    return comb(n + a, n) * chi_line_pn(n, a + k) - comb(n + a - 1, n) * chi_line_pn(n, a - 1 + k)


def chi_X(n, j, k):
    """chi(X, O_X(j) (x) pi^* O(k)) on X = P(O + Theta) over P^n."""
    if j >= 0:
        return sum(chi_sym_theta(n, a, k) for a in range(j + 1))
    if j >= -n:
        return 0
    # Serre duality against omega_X = O_X(-n-1); X has even dimension 2n
    return chi_X(n, -n - 1 - j, -k)


def check_cohomology_X(n, j, k, table, expected):
    """``expected`` is ``chi_X(n, j, k)``, computed once per class."""
    got = table.euler()
    if got != expected:
        return f"chi(O_X({j}) (x) pi*O({k})) on n={n}: engine {got}, Euler sequence {expected}"
    return None


def check_ext_table_OY(n, table):
    """Lemma 2.3: Ext^i(O_Y, O_Y) is 1 in each even degree 0..2n, 0 elsewhere."""
    expected = {i: 1 for i in range(0, 2 * n + 1, 2)}
    got = dict(table.dims())
    if got != expected:
        return f"Ext^*(O_Y, O_Y) at n={n}: engine {got}, expected {expected}"
    return None


def check_koszul_euler_sum(n, total):
    if total != 0:
        return f"Koszul alternating Euler sum at n={n} is {total}, expected 0"
    return None


def check_chase(system, solution):
    """The solver keeps every given dimension and leaves only ``unsolved`` open."""
    for term in system.terms:
        value = solution.values.get(term.label)
        if term.dim is not None and value != term.dim:
            return f"{system.name}: given {term.label} = {term.dim} came back as {value}"
        if value is None and term.label not in solution.unsolved:
            return f"{system.name}: {term.label} is open but not listed as unsolved"
    return None


def check_systems(n, systems):
    if not systems:
        return f"reference_chase_systems({n}) returned no systems"
    return None


def load_verify_reference():
    """Map from the CLI argv (joined by spaces) to its recorded stdout."""
    with open(VERIFY_REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def check_cli_output(argv_key, expected, result):
    code, text = result
    if code != 0:
        return f"flopcalc {argv_key} exited {code}"
    if text != expected:
        return f"flopcalc {argv_key} stdout differs from the recorded bytes"
    return None
