"""Tests for the Kronecker model and the orbit metric."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabmetric.errors import OutsideRegion
from stabmetric.metriclab import as_jsonable
from stabmetric.stabmodel import (
    REGION_HIGH,
    REGION_LOW,
    KroneckerPoint,
    KroneckerRows,
    ObjectClass,
    c_act,
    c_orbit_distance,
    central_charge,
    d_B_closed,
    d_B_sampled,
    hn_profile,
    random_region_point,
    random_region_vector,
    region_rows,
    sup_abs,
    support_constant,
)

BASE = KroneckerPoint((0.5, 0.0, 1.0, 0.0))


def class_by_class_supremum(p: KroneckerPoint, q: KroneckerPoint, K: int) -> float:
    """Reference for ``d_B_sampled``: the supremum over the classes
    k1 [S1] + k2 [S2] with multiplicities up to K, one HN profile per class
    and point, and the log-mass of a mixed class summed in math."""
    best = 0.0
    for k1 in range(K + 1):
        for k2 in range(K + 1):
            if k1 == 0 and k2 == 0:
                continue
            cls = ObjectClass(k1, k2)
            prof_p = hn_profile(p, cls)
            prof_q = hn_profile(q, cls)
            best = max(
                best,
                abs(prof_p.phi_plus - prof_q.phi_plus),
                abs(prof_p.phi_minus - prof_q.phi_minus),
                _log_mass_ratio(cls, p, q),
            )
    return best


def _log_mass_ratio(c: ObjectClass, p: KroneckerPoint, q: KroneckerPoint) -> float:
    if c.k2 == 0:
        return abs(p.x[1] - q.x[1])
    if c.k1 == 0:
        return abs(p.x[3] - q.x[3])
    return abs(_log_mass(c, p) - _log_mass(c, q))


def _log_mass(c: ObjectClass, p: KroneckerPoint) -> float:
    a = math.log(c.k1) + p.x[1]
    b = math.log(c.k2) + p.x[3]
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


class TestObjectClass:
    def test_rejects_zero_class(self):
        with pytest.raises(ValueError):
            ObjectClass(0, 0)

    def test_rejects_negative_multiplicities(self):
        with pytest.raises(ValueError):
            ObjectClass(-1, 2)

    def test_round_trip(self):
        c = ObjectClass(2, 3, -1)
        assert ObjectClass.from_dict(c.to_dict()) == c


class TestCentralCharge:
    def test_first_simple(self):
        assert central_charge(BASE, ObjectClass(1, 0)) == pytest.approx(1j, abs=1e-12)

    def test_second_simple(self):
        assert central_charge(BASE, ObjectClass(0, 1)) == pytest.approx(-1.0, abs=1e-12)

    def test_additive(self):
        assert central_charge(BASE, ObjectClass(1, 1)) == pytest.approx(-1 + 1j, abs=1e-12)

    def test_shift_negates(self):
        assert central_charge(BASE, ObjectClass(1, 0, 1)) == pytest.approx(-1j, abs=1e-12)

    def test_outside_region(self):
        with pytest.raises(OutsideRegion):
            central_charge(KroneckerPoint((0.5, 0.0, 0.3, 0.0)), ObjectClass(1, 0))

    @pytest.mark.parametrize("x, cls", [
        ((0.0, 1e308, 0.5, 0.0), ObjectClass(0, 1)),
        ((0.0, 0.0, 0.5, 1e308), ObjectClass(2, 0, 1)),
    ])
    def test_absent_simple_not_evaluated(self, x, cls):
        # exp of the other log-modulus overflows, but the class does not contain it
        z = central_charge(KroneckerPoint(x), cls)
        assert math.isfinite(z.real) and math.isfinite(z.imag)
        with pytest.raises(ValueError, match="out of range"):
            central_charge(KroneckerPoint(x), ObjectClass(1, 1))

    def test_mixed_class_sums_both_simples(self):
        p = KroneckerPoint((0.3, -0.4, 0.8, 1.1))
        one, two = central_charge(p, ObjectClass(1, 0)), central_charge(p, ObjectClass(0, 1))
        assert central_charge(p, ObjectClass(3, 2)) == 3 * one + 2 * two


class TestHNProfile:
    def test_two_step_filtration(self):
        prof = hn_profile(BASE, ObjectClass(2, 3))
        assert [(f.object_class.k1, f.object_class.k2) for f in prof.factors] == [(0, 3), (2, 0)]
        assert prof.factors[0].phase == pytest.approx(1.0)
        assert prof.factors[1].phase == pytest.approx(0.5)
        assert prof.factors[0].mass_term == pytest.approx(3.0)
        assert prof.factors[1].mass_term == pytest.approx(2.0)
        assert prof.mass == pytest.approx(5.0)
        assert prof.phi_plus == pytest.approx(1.0)
        assert prof.phi_minus == pytest.approx(0.5)
        assert not prof.semistable

    def test_simple_is_stable(self):
        prof = hn_profile(BASE, ObjectClass(1, 0))
        assert prof.semistable
        assert prof.phi_plus == prof.phi_minus == pytest.approx(0.5)
        assert prof.mass == pytest.approx(1.0)

    def test_shift_moves_phase_not_mass(self):
        prof = hn_profile(BASE, ObjectClass(1, 0, 1))
        assert prof.phi_plus == pytest.approx(1.5)
        assert prof.mass == pytest.approx(1.0)

    def test_phases_strictly_decreasing(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = random_region_point(rng)
            prof = hn_profile(p, ObjectClass(2, 5))
            phases = [f.phase for f in prof.factors]
            assert phases == sorted(phases, reverse=True)
            assert phases[0] > phases[1]

    def test_mass_additive_on_direct_sums(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_region_point(rng)
            c1 = ObjectClass(int(rng.integers(0, 4)), int(rng.integers(1, 4)))
            c2 = ObjectClass(int(rng.integers(1, 4)), int(rng.integers(0, 4)))
            total = hn_profile(p, ObjectClass(c1.k1 + c2.k1, c1.k2 + c2.k2)).mass
            assert total == pytest.approx(
                hn_profile(p, c1).mass + hn_profile(p, c2).mass, abs=1e-12
            )


class TestClosedMetric:
    def test_fixture_pair(self):
        x = KroneckerPoint((0.2, 0.0, 0.5, 0.3))
        y = KroneckerPoint((0.3, -0.1, 0.9, 0.0))
        assert d_B_closed(x, y) == pytest.approx(0.4, abs=1e-15)

    def test_identical_points(self):
        assert d_B_closed(BASE, BASE) == 0.0

    def test_region_enforced(self):
        with pytest.raises(OutsideRegion):
            d_B_closed(BASE, KroneckerPoint((0.0, 0.0, 1.0, 0.0)))

    def test_translation_distance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_region_point(rng)
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            expected = max(abs(lam.real), math.pi * abs(lam.imag))
            assert d_B_closed(p, c_act(p, lam)) == pytest.approx(expected, abs=1e-12)

    def test_translation_is_isometry(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p, q = random_region_point(rng), random_region_point(rng)
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert d_B_closed(c_act(p, lam), c_act(q, lam)) == pytest.approx(
                d_B_closed(p, q), abs=1e-12
            )

    def test_straight_lines_are_geodesics(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p, q = random_region_point(rng), random_region_point(rng)
            d = d_B_closed(p, q)
            for t, s in ((0.25, 0.75), (0.0, 0.4), (0.1, 1.0)):
                pt = KroneckerPoint(tuple((1 - t) * a + t * b for a, b in zip(p.x, q.x)))
                ps = KroneckerPoint(tuple((1 - s) * a + s * b for a, b in zip(p.x, q.x)))
                assert d_B_closed(pt, ps) == pytest.approx(abs(t - s) * d, abs=1e-12)


class TestSampledOracle:
    def test_fixture_pair_all_caps(self):
        x = KroneckerPoint((0.2, 0.0, 0.5, 0.3))
        y = KroneckerPoint((0.3, -0.1, 0.9, 0.0))
        for cap in (1, 5, 10):
            assert d_B_sampled(x, y, cap) == 0.4

    def test_equals_closed_form_exactly(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p, q = random_region_point(rng), random_region_point(rng)
            closed = d_B_closed(p, q)
            assert d_B_sampled(p, q, 1) == closed
            assert d_B_sampled(p, q, 7) == closed

    def test_identical_points(self):
        assert d_B_sampled(BASE, BASE, 4) == 0.0

    def test_supremum_attained_at_pure_classes(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p, q = random_region_point(rng), random_region_point(rng)
            pure = 0.0
            for cls in (ObjectClass(1, 0), ObjectClass(0, 1)):
                pp, pq = hn_profile(p, cls), hn_profile(q, cls)
                pure = max(pure, abs(pp.phi_plus - pq.phi_plus),
                           abs(math.log(pp.mass) - math.log(pq.mass)))
            assert d_B_sampled(p, q, 6) <= pure + 1e-12

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            d_B_sampled(BASE, BASE, 0)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6),
           st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2),
           st.integers(1, 12))
    def test_matches_class_by_class_reference(self, coords, gaps, K):
        x1, x2, x4, y1, y2, y4 = coords
        p = KroneckerPoint((x1, x2, x1 + gaps[0], x4))
        q = KroneckerPoint((y1, y2, y1 + gaps[1], y4))
        got, ref = d_B_sampled(p, q, K), class_by_class_supremum(p, q, K)
        # A mixed class's log-mass difference is a weighted mean of dx2 and
        # dx4 with weights above 3e-6 in this box, so it stays clear of the
        # supremum unless dx2 and dx4 nearly tie; there numpy's exp and
        # log1p may round an ulp away from math's.
        if abs((x2 - y2) - (x4 - y4)) > 1e-6:
            assert got == ref
        else:
            assert abs(got - ref) <= 1e-14

    def test_single_class_cap_warns_nothing(self):
        p = KroneckerPoint((0.2, 0.0, 0.5, 0.3))
        q = KroneckerPoint((0.3, -0.1, 0.9, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d_B_sampled(p, q, 1) == class_by_class_supremum(p, q, 1) == 0.4


class TestCAct:
    def test_zero_is_identity(self):
        assert c_act(BASE, 0).x == BASE.x

    def test_shift_functor(self):
        p = KroneckerPoint((0.2, 0.0, 0.5, 0.0))
        moved = c_act(p, 1.0)
        assert moved.x == pytest.approx((1.2, 0.0, 1.5, 0.0))
        assert central_charge(moved, ObjectClass(1, 0)) == pytest.approx(
            -central_charge(p, ObjectClass(1, 0)), abs=1e-12
        )

    def test_preserves_region(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            p = random_region_point(rng)
            x1, _, x3, _ = c_act(p, complex(rng.uniform(-9, 9), rng.uniform(-9, 9))).x
            assert 0.0 < x3 - x1 < 1.0


class TestSupportConstant:
    def test_unit_charges(self):
        assert support_constant(BASE) == pytest.approx(1.0, abs=1e-15)

    def test_log_modulus(self):
        assert support_constant(KroneckerPoint((0.2, -1.0, 0.5, 0.0))) == pytest.approx(
            math.e, abs=1e-12
        )

    def test_zero_log_moduli(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            x1 = rng.uniform(0.05, 0.5)
            p = KroneckerPoint((x1, 0.0, x1 + rng.uniform(0.05, 0.45), 0.0))
            assert support_constant(p) == pytest.approx(1.0, abs=1e-15)


class TestSupAbs:
    @pytest.mark.parametrize("k", range(4))
    def test_nan_anywhere_is_kept(self, k):
        values = [0.0, -1.0, 2.0, 0.5]
        values[k] = math.nan
        assert math.isnan(sup_abs(values))

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=6))
    def test_finite_values_as_max(self, values):
        assert sup_abs(values) == max(abs(v) for v in values)

    @pytest.mark.parametrize("k", [1, 3])
    def test_metric_keeps_nan(self, k):
        # inf - inf is NaN in one log-modulus; the phase differences are 0
        x = [0.0, 0.0, 0.5, 0.0]
        x[k] = math.inf
        p = KroneckerPoint(tuple(x))
        assert math.isnan(d_B_closed(p, p))
        with np.errstate(invalid="ignore"):
            assert math.isnan(d_B_sampled(p, p, 3))


    def test_arrays_match_scalar_calls_bit_for_bit(self):
        # NaN, infinities and -0.0 in every place of three columns
        parts = [0.0, -0.0, 1.5, -2.25, math.inf, -math.inf, math.nan]
        rows = [(a, b, c) for a in parts for b in parts for c in parts]
        out = sup_abs(np.array(rows).T)
        assert isinstance(out, np.ndarray) and out.shape == (len(rows),)
        assert [v.hex() for v in out.tolist()] == [
            float(sup_abs(row)).hex() for row in rows]

    def test_d_B_closed_on_rows_is_each_pairs_distance(self):
        rng = np.random.default_rng(5)
        x = region_rows(rng.uniform(REGION_LOW, REGION_HIGH, (40, 4)))
        y = region_rows(rng.uniform(REGION_LOW, REGION_HIGH, (40, 4)))
        out = d_B_closed(KroneckerRows(x), KroneckerRows(y))
        assert [v.hex() for v in out.tolist()] == [
            d_B_closed(KroneckerPoint(a), KroneckerPoint(b)).hex()
            for a, b in zip(x.tolist(), y.tolist())]


class TestOrbitDistance:
    def test_real_translation(self):
        assert c_orbit_distance(0, 1) == 1.0

    def test_imaginary_translation(self):
        assert c_orbit_distance(0, 1j) == math.pi

    def test_identical(self):
        z = complex(0.3, 0.1)
        assert c_orbit_distance(z, z) == 0.0

    def test_accepts_orbit_points(self):
        assert c_orbit_distance(complex(0.0, 0.5), complex(0.0, 0.0)) == pytest.approx(
            math.pi / 2, abs=1e-15
        )

    @pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex(0.0, math.inf)])
    def test_nan_difference_is_kept(self, z):
        # inf - inf is NaN in one part; the other part's difference is 0
        assert math.isnan(c_orbit_distance(z, z))

    def test_arrays_match_scalar_calls_bit_for_bit(self):
        # every pair of parts from the list, NaN, infinities and -0.0 included,
        # as complex arrays against one scalar call per element
        parts = [0.0, -0.0, 1.5, -2.25, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324]
        grid = np.array([complex(re, im) for re in parts for im in parts])
        a, b = np.repeat(grid, grid.size), np.tile(grid, grid.size)
        out = c_orbit_distance(a, b)
        assert isinstance(out, np.ndarray) and out.shape == a.shape
        assert [v.hex() for v in out.tolist()] == [
            c_orbit_distance(u, v).hex() for u, v in zip(a.tolist(), b.tolist())]
        # one side an array: the other broadcasts, as the fixture calls it
        assert [v.hex() for v in c_orbit_distance(0.0, grid).tolist()] == [
            c_orbit_distance(0.0, v).hex() for v in grid.tolist()]
        assert [v.hex() for v in c_orbit_distance(grid, 1j).tolist()] == [
            c_orbit_distance(v, 1j).hex() for v in grid.tolist()]

    def test_scalar_call_returns_float(self):
        assert type(c_orbit_distance(0, 1)) is float
        assert type(c_orbit_distance(np.complex128(1j), 0)) is float

    @settings(max_examples=80, deadline=None)
    @given(
        st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
    )
    def test_metric_axioms(self, a, b, c):
        assert c_orbit_distance(a, b) == c_orbit_distance(b, a)
        assert c_orbit_distance(a, a) == 0.0
        if a != b:
            assert c_orbit_distance(a, b) > 0.0
        assert c_orbit_distance(a, c) <= c_orbit_distance(a, b) + c_orbit_distance(b, c) + 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            mu = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert c_orbit_distance(a + mu, b + mu) == pytest.approx(
                c_orbit_distance(a, b), abs=1e-12
            )


class TestRegionRows:
    def test_block_rows_are_the_scalar_vectors(self):
        block = np.random.default_rng(41).uniform(REGION_LOW, REGION_HIGH, (30, 4))
        rng = np.random.default_rng(41)
        assert region_rows(block).tolist() == [list(random_region_vector(rng))
                                                for _ in range(30)]

    @pytest.mark.parametrize("bad", [1.0, 0.0, -0.5, math.nan])
    def test_first_row_outside_is_named_as_the_point_names_it(self, bad):
        rows = np.array([[0.0, 0.0, 0.5, 0.0], [0.25, 0.0, 0.25 + bad, 0.0],
                         [0.0, 0.0, 7.0, 0.0]])
        with pytest.raises(OutsideRegion) as point_error:
            KroneckerPoint(tuple(rows[1]))
        with pytest.raises(OutsideRegion) as rows_error:
            KroneckerRows(rows)
        assert str(rows_error.value) == str(point_error.value)
        inside = rows[:1]
        assert [col.tolist() for col in KroneckerRows(inside).x] == inside.T.tolist()


class TestSerialization:
    def test_kronecker_round_trip(self):
        p = KroneckerPoint((0.2, -0.1, 0.7, 0.3), l=5)
        assert KroneckerPoint.from_dict(as_jsonable(p)) == p

    def test_json_shape(self):
        assert as_jsonable(BASE) == {"x": [0.5, 0.0, 1.0, 0.0], "l": 3}
        assert ObjectClass(2, 3).to_dict() == {"k": [2, 3], "shift": 0}
