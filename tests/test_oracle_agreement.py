"""The engine against the chart-cover oracle, plus the oracle's own sanity.

The oracle computes dimensions from Laurent-monomial Cech blocks and exact
integer ranks; the engine computes them from weight sorting.  They share no
code, so agreement across the sweeps below is the anti-hallucination check
for the whole weight convention.
"""

import ast
from math import comb
from pathlib import Path

import pytest

from cech_oracle import (
    form_twist_cohomology,
    line_bundle_cohomology,
    matrix_rank,
    tangent_twist_cohomology,
)
from bundle_ops import tangent_bundle, twist
from flopcalc.bwb import bott_cohomology, form_bundle, line_bundle


class TestOracleSelfChecks:
    def test_imports_nothing_from_the_package(self):
        tree = ast.parse((Path(__file__).parent / "cech_oracle.py").read_text(encoding="utf-8"))
        modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names]
        modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert modules and not [m for m in modules if m.split(".")[0] == "flopcalc"]

    def test_matrix_rank(self):
        assert matrix_rank([]) == 0
        assert matrix_rank([[0, 0]]) == 0
        assert matrix_rank([[1, 2], [2, 4]]) == 1
        assert matrix_rank([[1, 2], [3, 4]]) == 2
        assert matrix_rank([[2, 0, 0], [0, 0, 3]]) == 2

    @pytest.mark.parametrize("n", [1, 2])
    def test_line_bundles_match_monomial_counts(self, n):
        for d in range(-8, 9):
            want = {}
            if d >= 0:
                want[0] = comb(d + n, n)
            if d <= -n - 1:
                want[n] = comb(-d - 1, n)
            assert line_bundle_cohomology(n, d) == want

    def test_tangent_on_p1_is_degree_two(self):
        for m in range(-6, 7):
            assert tangent_twist_cohomology(1, m) == line_bundle_cohomology(1, m + 2)

    def test_top_forms_are_canonical_twists(self):
        for k in range(-5, 6):
            assert form_twist_cohomology(2, 2, k) == line_bundle_cohomology(2, k - 3)

    def test_euler_characteristic_of_tangent_twists(self):
        def chi(table):
            return sum((-1) ** i * d for i, d in table.items())

        for m in range(-6, 7):
            lhs = chi(tangent_twist_cohomology(2, m))
            rhs = 3 * chi(line_bundle_cohomology(2, m + 1)) - chi(line_bundle_cohomology(2, m))
            assert lhs == rhs

    def test_hodge_diamond_p2(self):
        for p in range(3):
            for q in range(3):
                got = form_twist_cohomology(2, p, 0).get(q, 0)
                assert got == (1 if p == q else 0)


class TestEngineAgreement:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_line_bundles(self, n):
        for k in range(-8, 9):
            engine = bott_cohomology(line_bundle(n, k)).dims()
            assert engine == line_bundle_cohomology(n, k), (n, k)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tangent_twists(self, n):
        for m in range(-5, 6):
            engine = bott_cohomology(twist(tangent_bundle(n), m)).dims()
            assert engine == tangent_twist_cohomology(n, m), (n, m)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_form_twists(self, n):
        for p in range(n + 1):
            for k in range(-5, 6):
                engine = bott_cohomology(twist(form_bundle(p, n), k)).dims()
                assert engine == form_twist_cohomology(n, p, k), (n, p, k)
