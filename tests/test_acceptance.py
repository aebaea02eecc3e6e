"""Acceptance suite: one test per numbered criterion, exact equalities only.

Each test prints a single pass line once its assertions hold (visible with
``pytest -s`` or on failure), and enforces the stated wall-clock budget.
Run as ``pytest tests/test_acceptance.py -v``.
"""

import time
from itertools import product

import pytest

from cech_oracle import (
    form_twist_cohomology,
    line_bundle_cohomology,
    tangent_twist_cohomology,
)
from flopcalc.bwb import (
    bott_cohomology,
    form_bundle,
    line_bundle,
    tangent_bundle,
    twist,
)
from flopcalc.flop import SpanningClass, apply_phi, apply_phi_prime, apply_psi, \
    enumerate_spanning_class, phi_pullback
from flopcalc.homalg import (
    ChaseInconsistencyError,
    ChaseSystem,
    chase_solve,
    ext2_ideal_self_with_trace,
    ext_locally_free_vs_ideal,
    ext_table_OY,
    ideal_cohomology_system,
    koszul_resolution,
    reference_chase_systems,
)
from flopcalc.pbundle import ModelVariety, XLineBundle, cohomology_X, hom_dims
from flopcalc.verify import Status, verify_cor_2_2, verify_lemma_1_3


class Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} took {elapsed:.2f}s, "
                f"budget {self.seconds}s"
            )
            print(f"ACCEPTANCE {self.criterion}: PASS ({elapsed:.3f}s)")


def test_criterion_1_picard_transport_and_section_count():
    with Budget("1 (lemma-1-3)", 1.0):
        for n in (2, 3, 4, 5):
            result = verify_lemma_1_3(n)
            assert result.status is Status.PASS
            h0 = cohomology_X(XLineBundle(ModelVariety(n), 1, -1)).get(0)
            assert h0 == n + 1
            assert phi_pullback(n).is_involution()


def test_criterion_2_no_higher_cohomology_sweep():
    with Budget("2 (lemma-3-4)", 5.0):
        for n in (2, 3, 4):
            variety = ModelVariety(n)
            cases = 0
            for l in range(-n, n + 1):
                for m in range(-n, n + 1):
                    for j, k in ((l, m), (l + m, -m)):
                        table = cohomology_X(XLineBundle(variety, j, k))
                        assert set(table.dims()) <= {0}, (n, l, m)
                        cases += 1
            assert cases == 2 * (2 * n + 1) ** 2


def test_criterion_3_hom_tables_preserved():
    with Budget("3 (prop-3-5)", 5.0):
        for n in (2, 3):
            omega_prime = enumerate_spanning_class(n, SpanningClass.OMEGA_PRIME)
            pairs = 0
            for a, b in product(omega_prime, repeat=2):
                assert hom_dims(a, b) == hom_dims(apply_psi(a), apply_psi(b))
                pairs += 1
            assert pairs == (n + 1) ** 4


def test_criterion_4_centre_self_ext_table():
    with Budget("4 (lemma-2-3)", 1.0):
        for n in (2, 3, 4, 5):
            table = ext_table_OY(n)  # raises if off-diagonal entries appear
            assert table.dims() == {i: 1 for i in range(0, 2 * n + 1, 2)}


def test_criterion_5_ext2_pair_across_phi():
    with Budget("5 (cor-2-2)", 1.0):
        variety = ModelVariety(2)
        cls = XLineBundle(variety, 0, 1)
        source = hom_dims(cls, cls).get(2)
        image = ext2_ideal_self_with_trace(2)[0]
        assert (source, image) == (0, 1)
        assert verify_cor_2_2(2).status is Status.PASS


def test_criterion_6_first_route_ext_entries():
    with Budget("6 (lemma-2-1)", 1.0):
        wedge2 = ext_locally_free_vs_ideal(2, 2)
        assert len(wedge2) == 5 and wedge2[1] == 1
        wedge1 = ext_locally_free_vs_ideal(1, 2)
        if wedge1[1] is not None:
            assert wedge1[1] == 0
        else:
            # explicitly flagged as underdetermined, never silently zeroed
            assert len(wedge1) == 5 and 1 in [i for i, d in enumerate(wedge1) if d is None]


def test_criterion_7_round_trip_identity():
    with Budget("7 (lemma-1-6)", 1.0):
        for n in (2, 3, 4):
            variety = ModelVariety(n)
            for j in range(-n, 1):
                for k in range(-n + 1, 1):
                    lb = XLineBundle(variety, j, k)
                    image = apply_phi(lb)
                    assert image.bundle.coords() == (j + k, -k)
                    assert apply_phi_prime(image.bundle) == lb


def test_criterion_8_property_suite():
    # the Serre and Euler-sequence sweeps live in test_bwb.py (TestSerreDuality,
    # TestEulerSequence) and test_pbundle.py (test_serre_duality_reflection)
    with Budget("8 (properties)", 10.0):
        # Koszul alternating Euler characteristic vanishes
        for n in (2, 3, 4):
            assert koszul_resolution(n).alternating_euler_sum() == 0

        # engine vs chart-cover oracle on P^1 and P^2
        for n in (1, 2):
            for k in range(-5, 6):
                assert bott_cohomology(line_bundle(n, k)).dims() == \
                    line_bundle_cohomology(n, k)
                assert bott_cohomology(twist(tangent_bundle(n), k)).dims() == \
                    tangent_twist_cohomology(n, k)
                for p in range(n + 1):
                    assert bott_cohomology(twist(form_bundle(p, n), k)).dims() == \
                        form_twist_cohomology(n, p, k)


def test_criterion_9_solver_honesty():
    with Budget("9 (solver)", 1.0):
        for sysm in reference_chase_systems(2):
            forward = chase_solve(sysm)
            backward = chase_solve(ChaseSystem(sysm.name, sysm.labels[::-1], sysm.dims[::-1]))
            assert forward.values == backward.values
            assert set(forward.unsolved) == set(backward.unsolved)

        system = ideal_cohomology_system(2)
        perturbed = ChaseSystem(system.name, system.labels, [
            1 if label == "h^4(O_Y)" else dim for label, dim in zip(system.labels, system.dims)])
        with pytest.raises(ChaseInconsistencyError):
            chase_solve(perturbed)
        with pytest.raises(ChaseInconsistencyError):
            chase_solve(ChaseSystem(perturbed.name, perturbed.labels[::-1], perturbed.dims[::-1]))
