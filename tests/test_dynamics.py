"""Tests for pseudo-Anosov classification and the half-plane dynamics."""

import math

import numpy as np
import pytest

from stabmetric.errors import (
    MissingMatrix,
    NonPositiveDeterminant,
    NotHyperbolic,
    NotPseudoAnosov,
    NotUnimodular,
)
from stabmetric.dynamics import (
    PA_TABLE,
    Autoeq,
    MassSeed,
    axis_point,
    c_element,
    curve_pa_summary,
    displacement_grid,
    entropy_value,
    h_coordinate,
    initial_mass_decay,
    mass_growth_estimate,
    mobius_apply,
    pa_classify,
    poincare_distance,
    poincare_translation_length,
    random_unimodular_hyperbolic,
    stretch_factor,
    translation_length,
    upper_bound_dbar,
)
from stabmetric.lin2 import CoveredMap, Mat2, compose, lift_eval

FIB = Autoeq(2, 1, 1, 1)
LOG_GOLD = math.log((3.0 + math.sqrt(5.0)) / 2.0)


class TestAutoeq:
    def test_determinant_enforced(self):
        with pytest.raises(NotUnimodular):
            Autoeq(1, 1, 1, 1)
        with pytest.raises(NotUnimodular):
            Autoeq(2, 0, 0, 2)

    def test_integer_entries_enforced(self):
        with pytest.raises(NotUnimodular):
            Autoeq(1.0, 0, 0, 1)  # type: ignore[arg-type]

    def test_power_and_inverse(self):
        assert FIB.power(3) == FIB @ FIB @ FIB
        assert FIB @ FIB.inverse() == Autoeq(1, 0, 0, 1)
        assert FIB.power(-2) == (FIB.inverse()) @ (FIB.inverse())

    def test_round_trip(self):
        assert Autoeq.from_dict(FIB.to_dict()) == FIB


class TestClassification:
    def test_fibonacci_is_pseudo_anosov(self):
        cls = pa_classify(FIB)
        assert cls.pseudo_anosov
        assert cls.trace == 3
        assert cls.kind == "hyperbolic"

    def test_shear_is_parabolic(self):
        cls = pa_classify(Autoeq(1, 1, 0, 1))
        assert not cls.pseudo_anosov
        assert cls.kind == "parabolic"

    def test_rotation_is_elliptic(self):
        cls = pa_classify(Autoeq(0, -1, 1, 0))
        assert not cls.pseudo_anosov
        assert cls.kind == "elliptic"

    def test_minus_identity_is_central(self):
        assert pa_classify(Autoeq(-1, 0, 0, -1)).kind == "central"

    def test_table(self):
        for mat, expected in PA_TABLE:
            cls = pa_classify(mat)
            assert cls.kind == expected
            assert cls.pseudo_anosov == (expected == "hyperbolic")

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            mat = random_unimodular_hyperbolic(rng)
            conj = random_unimodular_hyperbolic(rng)
            other = conj @ mat @ conj.inverse()
            assert pa_classify(other).pseudo_anosov == pa_classify(mat).pseudo_anosov
            assert stretch_factor(other) == stretch_factor(mat)
            assert translation_length(other) == translation_length(mat)


class TestStretchAndTranslation:
    def test_fibonacci_stretch(self):
        assert stretch_factor(FIB) == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)

    def test_trace_four_stretch(self):
        assert stretch_factor(Autoeq(3, 1, 2, 1)) == pytest.approx(2 + math.sqrt(3), abs=1e-12)

    def test_power_iteration_oracle(self):
        # |A^n v| grows like rho^n; the ratio of consecutive norms converges
        rho = stretch_factor(FIB)
        v = np.array([1.0, 0.0])
        a = np.array(FIB.rows(), dtype=float)
        for _ in range(60):
            v = a @ v
            v /= np.linalg.norm(v)
        assert np.linalg.norm(a @ v) == pytest.approx(rho, abs=1e-9)

    def test_non_hyperbolic_rejected(self):
        with pytest.raises(NotPseudoAnosov):
            stretch_factor(Autoeq(1, 1, 0, 1))
        with pytest.raises(NotPseudoAnosov):
            translation_length(Autoeq(0, -1, 1, 0))

    def test_fibonacci_translation_length(self):
        assert translation_length(FIB) == pytest.approx(LOG_GOLD, abs=1e-12)
        assert translation_length(FIB) == pytest.approx(0.9624237, abs=1e-7)

    def test_matches_half_plane_length(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            mat = random_unimodular_hyperbolic(rng)
            assert translation_length(mat) == pytest.approx(
                poincare_translation_length(mat), abs=1e-12
            )

    def test_parabolic_and_elliptic_lengths_vanish(self):
        assert poincare_translation_length(Autoeq(1, 1, 0, 1)) == 0.0
        assert poincare_translation_length(Autoeq(0, -1, 1, 0)) == 0.0


class TestHalfPlane:
    def test_distance_examples(self):
        assert poincare_distance(1j, 1j) == 0.0
        assert poincare_distance(1j, 2j) == pytest.approx(math.log(2) / 2, abs=1e-12)
        assert poincare_distance(1j, 1 + 1j) == pytest.approx(
            0.5 * math.acosh(1.5), abs=1e-12
        )

    def test_vertical_geodesic_additivity(self):
        # distance along a vertical line integrates dy / (2y)
        for y in (2.0, 3.0, 7.5):
            assert poincare_distance(1j, y * 1j) == pytest.approx(math.log(y) / 2, abs=1e-12)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            poincare_distance(1j, -1j)
        with pytest.raises(ValueError):
            poincare_distance(1 - 2j, 1j)

    def test_coordinate_of_identity(self):
        assert h_coordinate(Mat2.identity()) == pytest.approx(1j, abs=1e-15)

    def test_coordinate_of_diagonal(self):
        assert h_coordinate(Mat2.diagonal(0.5, 2.0)) == pytest.approx(4j, abs=1e-12)

    def test_coordinate_squares_of_stretch(self):
        for r in (2.0, 3.0, 2.5):
            z = h_coordinate(Mat2.diagonal(1.0 / r, r))
            assert z == pytest.approx(r * r * 1j, abs=1e-12)
            assert poincare_distance(1j, z) == pytest.approx(math.log(r), abs=1e-12)

    def test_coordinate_ignores_rotation_dilation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = Mat2(*(rng.uniform(-2, 2) for _ in range(4)))
            if m.det <= 0.1:
                continue
            twist = Mat2.rotation(rng.uniform(-1, 1)).scale(rng.uniform(0.5, 2.0))
            assert h_coordinate(m @ twist) == pytest.approx(h_coordinate(m), abs=1e-9)

    def test_rejects_nonpositive_determinant(self):
        with pytest.raises(NonPositiveDeterminant):
            h_coordinate(Mat2.diagonal(1.0, -1.0))

    def test_axis_point_attains_length(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            mat = random_unimodular_hyperbolic(rng)
            apex = axis_point(mat)
            displacement = poincare_distance(apex, mobius_apply(mat, apex))
            assert displacement == pytest.approx(translation_length(mat), abs=1e-9)

    def test_axis_rejects_elliptic(self):
        with pytest.raises(NotHyperbolic):
            axis_point(Autoeq(0, -1, 1, 0))

    def test_displacement_dominates_translation_length(self):
        rng = np.random.default_rng(7)
        grid = [complex(x, y) for x in np.linspace(-3, 3, 15)
                for y in np.geomspace(0.1, 10, 15)]
        for _ in range(20):
            mat = random_unimodular_hyperbolic(rng)
            length = translation_length(mat)
            assert min(
                poincare_distance(z, mobius_apply(mat, z)) for z in grid
            ) >= length - 1e-3

    def test_displacement_grid_matches_scalar_calls(self):
        rng = np.random.default_rng(9)
        x, y = np.meshgrid(np.linspace(-3, 3, 21), np.geomspace(0.05, 20, 21), indexing="ij")
        for _ in range(20):
            mat = random_unimodular_hyperbolic(rng)
            grid = displacement_grid(mat, x, y)
            assert grid.shape == x.shape
            for (i, j), value in np.ndenumerate(grid):
                z = complex(x[i, j], y[i, j])
                scalar = poincare_distance(z, mobius_apply(mat, z))
                assert value == pytest.approx(scalar, rel=1e-14, abs=1e-15)


class TestMassGrowth:
    def test_unit_seed_converges(self):
        values = mass_growth_estimate(FIB.as_mat2(), MassSeed.of((1.0, 0.0)), 200)
        assert abs(values[199] - LOG_GOLD) <= 0.02
        assert abs(values[199] - LOG_GOLD) < abs(values[49] - LOG_GOLD)

    def test_identity_limit_zero(self):
        values = mass_growth_estimate(Mat2.identity(), MassSeed.of((3.0, 4.0)), 200)
        # total mass stays constant so a_k = log(5) / k
        assert values[0] == pytest.approx(math.log(5.0), abs=1e-12)
        assert values[199] == pytest.approx(math.log(5.0) / 200, abs=1e-12)

    def test_contracting_seed_flagged(self):
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        values = mass_growth_estimate(FIB.as_mat2(), MassSeed.of((1.0, -phi)), 200)
        assert initial_mass_decay(values)
        assert values[9] < 0.0  # still decaying after ten steps
        assert values[199] > 0.0  # round-off reinjected the expanding direction

    def test_generic_seed_not_flagged(self):
        values = mass_growth_estimate(FIB.as_mat2(), MassSeed.of((0.3, 0.7), (-1.0, 2.0)), 50)
        assert not initial_mass_decay(values)

    def test_multi_vector_seed_converges(self):
        seed = MassSeed.of((0.3, 0.7), (-1.0, 2.0))
        values = mass_growth_estimate(FIB.as_mat2(), seed, 200)
        assert abs(values[199] - LOG_GOLD) <= 0.02

    def test_no_overflow_for_long_runs(self):
        values = mass_growth_estimate(FIB.as_mat2(), MassSeed.of((1.0, 0.0)), 400)
        assert math.isfinite(values[-1])

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            MassSeed.of()
        with pytest.raises(ValueError):
            MassSeed.of((0.0, 0.0))


class TestDisplacementBound:
    def test_identity(self):
        assert upper_bound_dbar(CoveredMap(Mat2.identity())) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_two(self):
        g = CoveredMap(Mat2.diagonal(0.5, 2.0))
        assert upper_bound_dbar(g) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_diagonal_stretch_attains_translation_length(self):
        rho = stretch_factor(FIB)
        g = CoveredMap(Mat2.diagonal(1.0 / rho, rho))
        assert upper_bound_dbar(g) == pytest.approx(LOG_GOLD, abs=1e-12)

    def test_translates_only_increase_the_bound(self):
        rho = stretch_factor(FIB)
        g = CoveredMap(Mat2.diagonal(1.0 / rho, rho))
        for lam in (0.0, 0.4, -0.3 + 0.2j, 0.6j, 1.0 + 0.1j):
            assert upper_bound_dbar(compose(g, c_element(lam))) >= LOG_GOLD - 1e-12

    def test_c_element_lift_is_translation(self):
        for lam in (0.3, -1.2 + 0.4j, 2.5j):
            g = c_element(lam)
            for phi in (0.0, 0.3, -0.7, 1.9):
                assert lift_eval(g, phi) == pytest.approx(
                    phi - complex(lam).real, abs=1e-12
                )


class TestEntropy:
    def test_pseudo_anosov_value(self):
        assert entropy_value(FIB) == pytest.approx(LOG_GOLD, abs=1e-12)

    def test_vanishes_below_trace_two(self):
        assert entropy_value(Autoeq(1, 1, 0, 1)) == 0.0
        assert entropy_value(Autoeq(0, -1, 1, 0)) == 0.0

    def test_dominates_translation_length_on_table(self):
        for mat, _ in PA_TABLE:
            assert entropy_value(mat) >= poincare_translation_length(mat) - 1e-12

    def test_orbit_growth_rate(self):
        n = 100
        rate = poincare_distance(1j, mobius_apply(FIB.power(n), 1j)) / n
        assert rate == pytest.approx(LOG_GOLD, abs=0.01)


class TestCurveSummary:
    def test_low_genus(self):
        for genus in (0, 2, 3):
            summary = curve_pa_summary(genus)
            assert not summary.exists
            assert "no pseudo-Anosov" in summary.message

    def test_genus_one_requires_matrix(self):
        with pytest.raises(MissingMatrix):
            curve_pa_summary(1)

    def test_genus_one_full_report(self):
        summary = curve_pa_summary(1, FIB)
        assert summary.exists
        assert summary.stretch == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
        assert summary.translation == pytest.approx(LOG_GOLD, abs=1e-12)
        assert summary.entropy == pytest.approx(LOG_GOLD, abs=1e-12)

    def test_genus_one_non_pa(self):
        summary = curve_pa_summary(1, Autoeq(1, 1, 0, 1))
        assert not summary.exists
        assert summary.entropy == 0.0
