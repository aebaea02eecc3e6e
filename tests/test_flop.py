import pytest

from flopcalc import flop
from flopcalc.flop import (
    FMImage,
    FunctorRangeError,
    ImageKind,
    PicMap,
    SpanningClass,
    apply_phi,
    apply_phi_prime,
    apply_psi,
    enumerate_spanning_class,
    phi_pullback,
)
from flopcalc.pbundle import ModelVariety, Side, XLineBundle, hom_dims
from flopcalc.verify import Status, verify_serre_3_6


IDENTITY = PicMap(((1, 0), (0, 1)))
SHEAR = PicMap(((1, 1), (0, 1)))


class TestPicMap:
    def test_transport_of_basis(self):
        pic = phi_pullback(2)
        assert pic.apply(1, 0) == (1, 0)
        assert pic.apply(0, 1) == (1, -1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_involution_and_canonical_fixity(self, n):
        pic = phi_pullback(n)
        assert pic.is_involution()
        assert pic.apply(-n - 1, 0) == (-n - 1, 0)

    def test_shear_is_not_an_involution(self):
        assert not SHEAR.is_involution()

    def test_compose(self):
        assert SHEAR.compose(SHEAR).rows == ((1, 2), (0, 1))
        assert IDENTITY.compose(SHEAR) == SHEAR

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            phi_pullback(1)


class TestPhi:
    def test_structure_sheaf_fixed(self):
        image = apply_phi(XLineBundle(ModelVariety(2), 0, 0))
        assert image.kind is ImageKind.LINE
        assert image.bundle.coords() == (0, 0)
        assert image.bundle.variety.side is Side.X_PLUS

    def test_line_image(self):
        image = apply_phi(XLineBundle(ModelVariety(2), -1, -1))
        assert image.kind is ImageKind.LINE
        assert image.bundle.coords() == (-2, 1)

    def test_ideal_twist_at_top_k(self):
        image = apply_phi(XLineBundle(ModelVariety(2), 0, 1))
        assert image.kind is ImageKind.IDEAL_TWIST
        assert image.bundle.coords() == (1, -1)

    def test_range_errors(self):
        v = ModelVariety(2)
        for j, k in ((1, 0), (-3, 0), (0, 2), (0, -2)):
            with pytest.raises(FunctorRangeError) as err:
                apply_phi(XLineBundle(v, j, k))
            assert str(err.value) == (
                f"phi is only computed for -2 <= j <= 0 and -1 <= k <= 1, got (j, k) = ({j}, {k})")

    def test_wrong_side_rejected(self):
        with pytest.raises(FunctorRangeError) as err:
            apply_phi(XLineBundle(ModelVariety(2, Side.X_PLUS), 0, 0))
        assert str(err.value) == "phi expects a class on side x"

    def test_ideal_twist_only_lives_on_the_flopped_side(self):
        with pytest.raises(ValueError) as err:
            FMImage(ImageKind.IDEAL_TWIST, XLineBundle(ModelVariety(2), 1, -1))
        assert str(err.value) == "ideal-twist images only arise on the flopped side"


class TestPhiPrime:
    def test_inverse_formula(self):
        got = apply_phi_prime(XLineBundle(ModelVariety(2, Side.X_PLUS), -2, 1))
        assert got.coords() == (-1, -1)
        assert got.variety.side is Side.X

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_round_trip_on_the_full_grid(self, n):
        v = ModelVariety(n)
        for j in range(-n, 1):
            for k in range(-n + 1, 1):
                lb = XLineBundle(v, j, k)
                assert apply_phi_prime(apply_phi(lb).bundle) == lb

    def test_out_of_range(self):
        with pytest.raises(FunctorRangeError) as err:
            apply_phi_prime(XLineBundle(ModelVariety(2, Side.X_PLUS), 3, 0))
        assert str(err.value) == (
            "phi_prime is only computed on line images of the phi range, got class (3, 0)")

    def test_wrong_side_rejected(self):
        with pytest.raises(FunctorRangeError) as err:
            apply_phi_prime(XLineBundle(ModelVariety(2), 0, 0))
        assert str(err.value) == "phi_prime expects a class on side xplus"


class TestPsi:
    def test_examples(self):
        for n in (2, 3):
            v = ModelVariety(n)
            assert apply_psi(XLineBundle(v, 0, 0)).coords() == (0, 0)
            assert apply_psi(XLineBundle(v, 0, -n)).coords() == (-n, n)
            assert apply_psi(XLineBundle(v, -n, 0)).coords() == (-n, 0)

    def test_matches_phi_on_the_overlap(self):
        for n in (2, 3):
            v = ModelVariety(n)
            for j in range(-n, 1):
                for k in range(-n + 1, 1):
                    lb = XLineBundle(v, j, k)
                    assert apply_psi(lb) == apply_phi(lb).bundle

    def test_matches_lattice_transport(self):
        for n in (2, 3, 4):
            pic = phi_pullback(n)
            for c in enumerate_spanning_class(n, SpanningClass.OMEGA_PRIME):
                assert apply_psi(c).coords() == pic.apply(c.j, c.k)

    def test_rejects_the_ideal_corner_of_the_other_class(self):
        with pytest.raises(FunctorRangeError) as err:
            apply_psi(XLineBundle(ModelVariety(2), 0, 1))
        assert str(err.value) == "psi is only computed for -2 <= j, k <= 0, got (j, k) = (0, 1)"

    def test_out_of_range(self):
        with pytest.raises(FunctorRangeError) as err:
            apply_psi(XLineBundle(ModelVariety(3), -4, 0))
        assert str(err.value) == "psi is only computed for -3 <= j, k <= 0, got (j, k) = (-4, 0)"

    def test_wrong_side_rejected(self):
        with pytest.raises(FunctorRangeError) as err:
            apply_psi(XLineBundle(ModelVariety(2, Side.X_PLUS), 0, 0))
        assert str(err.value) == "psi expects a class on side x"


class TestSpanningClasses:
    def test_sizes(self):
        assert len(enumerate_spanning_class(2, SpanningClass.OMEGA)) == 9
        assert len(enumerate_spanning_class(2, SpanningClass.OMEGA_PRIME)) == 9
        assert len(enumerate_spanning_class(3, SpanningClass.OMEGA_PRIME)) == 16

    def test_omega_k_range(self):
        ks = {c.k for c in enumerate_spanning_class(2, SpanningClass.OMEGA)}
        assert ks == {-1, 0, 1}

    def test_deterministic_lexicographic_order(self):
        classes = enumerate_spanning_class(2, SpanningClass.OMEGA_PRIME)
        coords = [c.coords() for c in classes]
        assert coords == sorted(coords)


class TestSerreCompatibility:
    # the lattice-level check now lives in verify_serre_3_6
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_holds_for_the_flop_transport(self, n):
        assert verify_serre_3_6(n).status is Status.PASS

    def test_perturbed_map_fails(self, monkeypatch):
        monkeypatch.setattr(flop, "phi_pullback", lambda n: SHEAR)
        assert verify_serre_3_6(2).status is Status.FAIL


class TestHomPreservation:
    @pytest.mark.parametrize("n", [2, 3])
    def test_all_ordered_pairs(self, n):
        omega_prime = enumerate_spanning_class(n, SpanningClass.OMEGA_PRIME)
        for a in omega_prime:
            for b in omega_prime:
                before = hom_dims(a, b)
                assert before == hom_dims(apply_psi(a), apply_psi(b))
                # both sides live entirely in degree 0 on this rectangle
                assert set(before.dims()) <= {0}
