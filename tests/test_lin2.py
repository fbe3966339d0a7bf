"""Tests for the 2x2 algebra and the universal cover."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stabmetric import lin2
from stabmetric.dynamics import c_element
from stabmetric.errors import NonPositiveDeterminant, NotHyperbolic
from stabmetric.lin2 import (
    IDENTITY,
    CoveredMap,
    Mat2,
    compose,
    diagonal_from_form,
    diagonalize_hyperbolic,
    eigen_pair,
    golden_section_max,
    invert,
    is_identity,
    lift_eval,
    operator_norm,
    sup_displacement,
)

GOLD = (3.0 + math.sqrt(5.0)) / 2.0


def random_covered_map(rng) -> CoveredMap:
    while True:
        m = Mat2(*(rng.uniform(-3.0, 3.0) for _ in range(4)))
        if m.det > 0.1:
            return CoveredMap(m, int(rng.integers(-2, 3)))


def sampled_sup_displacement(g: CoveredMap, samples: int = 4096) -> float:
    """Definitional oracle for sup_displacement: |f - id| at `samples`
    evenly spaced phases of [0, 2), then golden-section refinement around
    the best sample."""

    def disp(phi: float) -> float:
        return abs(lift_eval(g, phi) - phi)

    step = 2.0 / samples
    best, best_phi = max((disp(i * step), i * step) for i in range(samples))
    return max(best, golden_section_max(disp, best_phi - step, best_phi + step, 1e-13))


def random_integer_hyperbolic(rng, max_entry=20) -> Mat2:
    lower = np.array([[1, 0], [1, 1]], dtype=object)
    upper = np.array([[1, 1], [0, 1]], dtype=object)
    while True:
        word = np.array([[1, 0], [0, 1]], dtype=object)
        picks = rng.integers(0, 2, size=int(rng.integers(2, 5)))
        if picks.min() == picks.max():
            continue  # need both shears for |trace| > 2
        for p in picks:
            word = word @ (lower if p == 0 else upper)
        if rng.random() < 0.5:
            word = -word
        entries = [int(word[0, 0]), int(word[0, 1]), int(word[1, 0]), int(word[1, 1])]
        if max(abs(e) for e in entries) <= max_entry and abs(entries[0] + entries[3]) > 2:
            return Mat2(*(float(e) for e in entries))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(Mat2.identity()) == 1.0

    def test_fibonacci_matrix(self):
        # largest eigenvalue of M^T M via its characteristic polynomial
        assert operator_norm(Mat2.from_rows([[2, 1], [1, 1]])) == pytest.approx(GOLD, abs=1e-12)

    def test_diagonal(self):
        assert operator_norm(Mat2.diagonal(1.0 / 3.0, 3.0)) == pytest.approx(3.0, abs=1e-15)

    def test_against_numpy_svd(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = Mat2(*(rng.uniform(-4.0, 4.0) for _ in range(4)))
            expected = np.linalg.svd(np.array(m.rows()), compute_uv=False)[0]
            assert operator_norm(m) == pytest.approx(expected, abs=1e-10)

    def test_product_with_inverse_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = random_covered_map(rng).matrix
            assert operator_norm(m) * operator_norm(m.inverse()) >= 1.0 - 1e-12
        # equality exactly for multiples of orthogonal matrices
        for m in (Mat2.rotation(0.37), Mat2.rotation(-1.2).scale(2.5), Mat2.diagonal(3, 3)):
            assert operator_norm(m) * operator_norm(m.inverse()) == pytest.approx(1.0, abs=1e-12)


class TestEigenPair:
    def test_fibonacci_matrix(self):
        big, small = eigen_pair(Mat2.from_rows([[2, 1], [1, 1]]))
        assert big == pytest.approx(GOLD, abs=1e-12)
        assert small == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)

    def test_rotation(self):
        assert eigen_pair(Mat2.from_rows([[0, -1], [1, 0]])) == (1j, -1j)

    def test_unipotent(self):
        assert eigen_pair(Mat2.from_rows([[1, 1], [0, 1]])) == (1.0, 1.0)

    def test_against_numpy_roots(self):
        key = lambda z: (z.real, z.imag)  # noqa: E731
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = Mat2(*(rng.uniform(-4.0, 4.0) for _ in range(4)))
            got = sorted((complex(v) for v in eigen_pair(m)), key=key)
            expected = sorted((complex(v) for v in np.roots([1.0, -m.trace, m.det])), key=key)
            for g, e in zip(got, expected):
                assert g == pytest.approx(e, abs=1e-9)
        # ordering: largest modulus first
        for _ in range(50):
            m = Mat2(*(rng.uniform(-4.0, 4.0) for _ in range(4)))
            big, small = eigen_pair(m)
            assert abs(big) >= abs(small) - 1e-12


class TestLiftEval:
    def test_identity(self):
        assert lift_eval(IDENTITY, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_antipodal(self):
        # -I lifts to a translation by one within the base window
        g = CoveredMap(Mat2.from_rows([[-1.0, 0.0], [0.0, -1.0]]), 0)
        assert lift_eval(g, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert lift_eval(g, 0.25) == pytest.approx(1.25, abs=1e-12)

    def test_diagonal_angle(self):
        g = CoveredMap(Mat2.diagonal(0.5, 2.0), 0)
        assert lift_eval(g, 0.25) == pytest.approx(math.atan(4.0) / math.pi, abs=1e-12)

    def test_periodicity_and_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_covered_map(rng)
            phis = np.linspace(-2.0, 2.0, 200)
            values = [lift_eval(g, p) for p in phis]
            assert all(b > a for a, b in zip(values, values[1:]))
            for p in phis[::7]:
                assert lift_eval(g, p + 1.0) - lift_eval(g, p) == pytest.approx(1.0, abs=1e-12)

    def test_direction_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            g = random_covered_map(rng)
            for phi in rng.uniform(-3.0, 3.0, 200):
                f = lift_eval(g, phi)
                w = g.matrix.apply((math.cos(math.pi * phi), math.sin(math.pi * phi)))
                n = math.hypot(*w)
                assert w[0] / n == pytest.approx(math.cos(math.pi * f), abs=1e-12)
                assert w[1] / n == pytest.approx(math.sin(math.pi * f), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-5.0, 5.0), st.integers(-3, 3))
    def test_lift_index_shifts_by_two(self, phi, k):
        m = Mat2.diagonal(0.5, 2.0)
        base = lift_eval(CoveredMap(m, 0), phi)
        assert lift_eval(CoveredMap(m, k), phi) == pytest.approx(base + 2 * k, abs=1e-12)

    def test_requires_positive_determinant(self):
        with pytest.raises(NonPositiveDeterminant):
            CoveredMap(Mat2.diagonal(1.0, -1.0), 0)


class TestSupDisplacement:
    def test_identity(self):
        assert sup_displacement(IDENTITY) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_closed_form(self):
        # maximize arctan(4 tan t) - t: the optimum is at tan t = 1/2
        expected = (math.atan(2.0) - math.atan(0.5)) / math.pi
        g = CoveredMap(Mat2.diagonal(0.5, 2.0), 0)
        assert sup_displacement(g) == pytest.approx(expected, abs=1e-9)

    def test_antipodal_constant(self):
        g = CoveredMap(Mat2.from_rows([[-1.0, 0.0], [0.0, -1.0]]), 0)
        assert sup_displacement(g) == pytest.approx(1.0, abs=1e-12)

    def test_grid_lower_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            g = random_covered_map(rng)
            sup = sup_displacement(g)
            coarse = max(abs(lift_eval(g, p) - p) for p in np.linspace(0.0, 2.0, 257))
            assert sup >= coarse - 1e-12

    @settings(max_examples=80, deadline=None)
    @given(st.tuples(*[st.floats(-3.0, 3.0)] * 4), st.integers(-2, 2),
           st.none() | st.tuples(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)))
    def test_matches_sampled_oracle(self, entries, k, lam):
        m = Mat2(*entries)
        assume(m.det > 0.1)
        g = CoveredMap(m, k)
        if lam is not None:
            g = compose(g, c_element(complex(*lam)))
        assert abs(sup_displacement(g) - sampled_sup_displacement(g)) <= 1e-12

    def test_conformal_maps_move_every_phase_alike(self):
        # c(lam) shifts phases by -Re(lam), so compositions have |Re| as displacement
        rng = np.random.default_rng(31)
        for _ in range(50):
            lam1, lam2 = (complex(rng.uniform(-3, 3), rng.uniform(-1, 1)) for _ in range(2))
            g = compose(c_element(lam1), c_element(lam2))
            assert sup_displacement(g) == pytest.approx(abs((lam1 + lam2).real), abs=1e-14)

    def test_at_most_five_lift_evaluations(self, monkeypatch):
        calls = []
        monkeypatch.setattr(lin2, "lift_eval", lambda g, phi: calls.append(phi) or lift_eval(g, phi))
        sup_displacement(CoveredMap(Mat2.from_rows([[2.0, 1.0], [1.0, 1.0]]), 1))
        assert len(calls) == 5
        calls.clear()
        sup_displacement(IDENTITY)
        assert calls == [0.0]


class TestGroupLaw:
    def test_compose_with_inverse(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            g = random_covered_map(rng)
            assert is_identity(compose(g, invert(g)), tol=1e-9)
            assert is_identity(compose(invert(g), g), tol=1e-9)

    def test_rotation_by_half_turn_squared(self):
        g = CoveredMap(Mat2.from_rows([[-1.0, 0.0], [0.0, -1.0]]), 0)
        gg = compose(g, g)
        assert gg.lift_index == 1
        assert gg.matrix.max_abs_diff(Mat2.identity()) <= 1e-15

    def test_diagonal_composition(self):
        g1 = CoveredMap(Mat2.diagonal(0.5, 2.0), 0)
        g2 = CoveredMap(Mat2.diagonal(1.0 / 3.0, 3.0), 0)
        g = compose(g1, g2)
        assert g.lift_index == 0
        assert g.matrix.max_abs_diff(Mat2.diagonal(1.0 / 6.0, 6.0)) <= 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            g1, g2, g3 = (random_covered_map(rng) for _ in range(3))
            left = compose(compose(g1, g2), g3)
            right = compose(g1, compose(g2, g3))
            assert left.lift_index == right.lift_index
            assert left.matrix.max_abs_diff(right.matrix) <= 1e-9

    def test_composed_lift_is_composition(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            g1, g2 = random_covered_map(rng), random_covered_map(rng)
            g = compose(g1, g2)
            for phi in rng.uniform(-2.0, 2.0, 20):
                assert lift_eval(g, phi) == pytest.approx(
                    lift_eval(g1, lift_eval(g2, phi)), abs=1e-9
                )


class TestSerialization:
    def test_covered_map_round_trip(self):
        g = CoveredMap(Mat2.from_rows([[2.0, 1.0], [1.0, 1.0]]), -2)
        data = g.to_dict()
        assert data == {"matrix": [[2.0, 1.0], [1.0, 1.0]], "lift_index": -2}
        assert CoveredMap.from_dict(data) == g


class TestDiagonalizeHyperbolic:
    def test_already_diagonal(self):
        h, r, form = diagonalize_hyperbolic(Mat2.from_rows([[2.0, 0.0], [0.0, 0.5]]))
        assert r == pytest.approx(2.0, abs=1e-15)
        assert form == "diag(r,1/r)"
        assert h.max_abs_diff(Mat2.identity()) <= 1e-15

    def test_fibonacci_matrix(self):
        a = Mat2.from_rows([[2.0, 1.0], [1.0, 1.0]])
        h, r, form = diagonalize_hyperbolic(a)
        assert r == pytest.approx(GOLD, abs=1e-12)
        rebuilt = h @ diagonal_from_form(r, form) @ h.inverse()
        assert rebuilt.max_abs_diff(a) <= 1e-12

    def test_unipotent_rejected(self):
        with pytest.raises(NotHyperbolic):
            diagonalize_hyperbolic(Mat2.from_rows([[1.0, 1.0], [0.0, 1.0]]))

    def test_random_integer_matrices(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            a = random_integer_hyperbolic(rng)
            h, r, form = diagonalize_hyperbolic(a)
            assert abs(r) > 1.0
            assert h.det > 0.0
            rebuilt = h @ diagonal_from_form(r, form) @ h.inverse()
            assert rebuilt.max_abs_diff(a) <= 1e-12
