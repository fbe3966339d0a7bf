"""Tests for pseudo-Anosov classification and the half-plane dynamics."""

import math
import re
from decimal import Decimal, localcontext
from itertools import accumulate, islice
from operator import add, sub, truediv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabmetric.errors import (
    MissingMatrix,
    NonPositiveDeterminant,
    NotHyperbolic,
    NotPseudoAnosov,
    NotUnimodular,
)
from stabmetric import dynamics
from stabmetric.dynamics import (
    HUGE_TRACE,
    MAX_ITERATES,
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


def _word_product_hyperbolic(rng) -> Autoeq:
    """The shear word of random_unimodular_hyperbolic multiplied out with
    Autoeq.power and @, drawing from rng in the same order."""
    lower = Autoeq(1, 0, 1, 1)
    upper = Autoeq(1, 1, 0, 1)
    while True:
        m = Autoeq(1, 0, 0, 1)
        used = [False, False]
        for _ in range(int(rng.integers(2, 5))):
            pick = int(rng.integers(0, 2))
            used[pick] = True
            m = m @ (lower if pick == 0 else upper).power(int(rng.integers(1, 3)))
        if not (used[0] and used[1]):
            continue
        if rng.random() < 0.5:
            m = Autoeq(-m.a, -m.b, -m.c, -m.d)
        if abs(m.trace) > 2:
            return m


class TestRandomHyperbolic:
    def test_is_an_exact_mat2(self):
        assert type(FIB @ FIB) is Autoeq and (FIB @ FIB).rows() == [[5, 3], [3, 2]]
        assert type(FIB @ Mat2.identity()) is Mat2
        assert FIB @ Mat2.identity() == Mat2.identity() @ FIB == Mat2(2.0, 1.0, 1.0, 1.0)
        assert h_coordinate(FIB) == h_coordinate(Mat2(2.0, 1.0, 1.0, 1.0))
        assert compose(CoveredMap(FIB), c_element(0.5j)).matrix == FIB @ c_element(0.5j).matrix

    def test_matches_word_product(self):
        for seed in range(50):
            fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(200):
                assert random_unimodular_hyperbolic(fast) == _word_product_hyperbolic(ref)
            assert fast.random() == ref.random()


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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 2**60 - 1), st.booleans())
    def test_formula_below_huge_trace(self, tr, negate):
        f = Autoeq(tr - 1, tr - 2, 1, 1)
        if negate:
            f = Autoeq(-f.a, -f.b, -f.c, -f.d)
        assert stretch_factor(f) == 0.5 * (tr + math.sqrt(tr * tr - 4.0))

    @pytest.mark.parametrize("tr", [10**160 + 2, HUGE_TRACE, 2**512 - 1, 2**1000])
    def test_huge_trace_is_finite(self, tr):
        for f in (Autoeq(tr - 1, tr - 2, 1, 1), Autoeq(1 - tr, 2 - tr, -1, -1)):
            assert stretch_factor(f) == float(tr)
            assert translation_length(f) == math.log(float(tr))
            assert entropy_value(f) == translation_length(f)
            assert poincare_translation_length(f) == pytest.approx(translation_length(f),
                                                                   rel=1e-15)
            apex = axis_point(f)
            assert math.isfinite(apex.real) and math.isfinite(apex.imag)
            assert apex.real == pytest.approx((f.a - f.d) / (2 * f.c), rel=1e-12)
            assert apex.imag == pytest.approx(abs(f.trace) / (2 * abs(f.c)), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 2**60 - 1), st.integers(-2**40, 2**40), st.booleans())
    def test_axis_point_below_huge_trace(self, tr, shift, negate):
        # conjugating by the shear (1, shift; 0, 1) moves the axis without changing the trace
        shear = Autoeq(1, shift, 0, 1)
        f = shear @ Autoeq(tr - 1, tr - 2, 1, 1) @ shear.inverse()
        if negate:
            f = Autoeq(-f.a, -f.b, -f.c, -f.d)
        s = math.sqrt(f.trace * f.trace - 4.0)
        p1 = ((f.a - f.d) - s) / (2.0 * f.c)
        p2 = ((f.a - f.d) + s) / (2.0 * f.c)
        assert axis_point(f) == complex(0.5 * (p1 + p2), 0.5 * abs(p1 - p2))

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


def decimal_half_plane_distance(z, w) -> float:
    """0.5 acosh(1 + |z - w|^2 / (2 y1 y2)) in decimal arithmetic, with 50
    digits of the argument's excess over 1 and no exponent limit."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 50, 10 ** 6, -10 ** 6
        dx, dy = Decimal(z.real) - Decimal(w.real), Decimal(z.imag) - Decimal(w.imag)
        q = (dx * dx + dy * dy) / (2 * Decimal(z.imag) * Decimal(w.imag))
        if not q:
            return 0.0
        ctx.prec += max(0, -q.adjusted())
        x = 1 + q
        return float((x + (x * x - 1).sqrt()).ln() / 2)


# coordinates of either sign from the subnormals to 1e308
_SCALED = st.builds(lambda s, m, e: s * m * 10.0 ** e, st.sampled_from([1.0, -1.0]),
                    st.floats(1.0, 9.99), st.integers(-320, 307))


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

    # gap^2 overflows, gap^2 / (2 y1 y2) overflows, 2 y1 y2 underflows
    @pytest.mark.parametrize("z, w, expected", [
        (1e-320j, 1e300j, 713.8013843945938),
        (1j, 1e200 + 1j, 460.51701859880916),
        (1e300j, 1e200 + 1e300j, 4.9999999999999995e-101),
        (1e-10j, 1e150 + 1e-10j, 368.4136148790473),
        (1e-320j, 1 + 1e-320j, 736.8272408909739),
        (1e-200j, 1e-200j, 0.0),
        (1 + 9e307j, 1e155 + 9e307j, 5.555555555555555e-154),  # 2 sqrt(y1) sqrt(y2) overflows
        (1e-320j, 1e-320 + 1e-320j, 0.48121182505960347),  # sqrt(y1) sqrt(y2) is subnormal
        (1j, 1.5e308 + 1.5e308j, 355.14741046541707),  # |z - w| itself overflows
        (1e-320j, -1.5e308 + 1e308j, 723.6010522647408),  # and so does u
        (1e-311 + 1e-310j, 2e-311 + 1e-311j, 1.1563172094745326),  # |z - w| is subnormal
    ])
    def test_far_points_finite(self, z, w, expected):
        assert decimal_half_plane_distance(z, w) == expected
        assert poincare_distance(z, w) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(_SCALED, _SCALED.filter(lambda v: v > 0.0)),
           st.tuples(_SCALED, _SCALED.filter(lambda v: v > 0.0)))
    def test_distance_at_every_scale(self, z, w):
        z, w = complex(*z), complex(*w)
        try:
            plain = dynamics._half_plane_distance(abs(z - w), z.imag, w.imag, math.acosh)
        except (OverflowError, ZeroDivisionError):
            plain = math.inf
        d = poincare_distance(z, w)
        if plain < math.inf:  # a distance the plain formula gives keeps its bits
            assert d.hex() == plain.hex()
        elif math.isfinite(z.real - w.real) and math.isfinite(z.imag - w.imag):
            assert d == pytest.approx(decimal_half_plane_distance(z, w), rel=1e-14, abs=0.0)

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
            grid = displacement_grid([mat], x, y)[0]
            assert grid.shape == x.shape
            for (i, j), value in np.ndenumerate(grid):
                z = complex(x[i, j], y[i, j])
                scalar = poincare_distance(z, mobius_apply(mat, z))
                assert value == pytest.approx(scalar, rel=1e-14, abs=1e-15)


def per_matrix_grid(f, x, y):
    """Reference for the batched ``displacement_grid``: one matrix's grid,
    with its entries as Python floats."""
    fx, fy = dynamics._mobius_parts(float(f.a), float(f.b), float(f.c), float(f.d), x, y)
    return dynamics._half_plane_distance(np.hypot(x - fx, y - fy), y, fy, np.arccosh)


class TestBatchedDisplacementGrid:
    """Slice i of the batched grid is fs[i]'s own grid, bit for bit."""

    @pytest.mark.parametrize("chunk", [1, 7, 20, 100])
    def test_matches_per_matrix_grids(self, chunk):
        rng = np.random.default_rng([3, 9])
        mats = [random_unimodular_hyperbolic(rng) for _ in range(100)]
        x, y = np.meshgrid(np.linspace(-3, 3, 21), np.geomspace(0.05, 20, 21), indexing="ij")
        for lo in range(0, len(mats), chunk):
            grids = displacement_grid(mats[lo:lo + chunk], x, y)
            assert grids.shape == (len(mats[lo:lo + chunk]), *x.shape)
            for f, grid in zip(mats[lo:lo + chunk], grids):
                assert [v.hex() for v in grid.ravel().tolist()] == [
                    v.hex() for v in per_matrix_grid(f, x, y).ravel().tolist()]

    def test_any_point_shape(self):
        mats = [Autoeq(2, 1, 1, 1), Autoeq(-5, 2, 2, -1), Autoeq(1, 1, 0, 1)]
        x, y = np.linspace(-2.0, 2.0, 7), np.geomspace(0.1, 10.0, 7)
        grids = displacement_grid(mats, x, y)
        assert grids.shape == (3, 7)
        assert [[v.hex() for v in row] for row in grids.tolist()] == [
            [v.hex() for v in per_matrix_grid(f, x, y).tolist()] for f in mats]
        assert displacement_grid([], x, y).shape == (0, 7)


def reference_mass_growth(m, seed, n):
    """Reference for ``mass_growth_estimate``: one sequential loop through
    ``m.apply`` and the module-level ``math`` functions, iterate by
    iterate and vector by vector."""
    norms = [math.hypot(*v) for v in seed.vectors]
    for i, s in enumerate(norms):
        if s == math.inf:
            raise ValueError(f"seed vector {list(seed.vectors[i])} overflows a double "
                             f"at iterate 0")
    logs = [math.log(s) for s in norms]
    units = [(v[0] / s, v[1] / s) for v, s in zip(seed.vectors, norms)]
    out = []
    for k in range(1, n + 1):
        for i, u in enumerate(units):
            w = m.apply(u)
            s = math.hypot(*w)
            if s == 0.0:
                raise ValueError(f"seed vector {list(seed.vectors[i])} collapses to zero "
                                 f"at iterate {k}")
            if not s < math.inf:
                raise ValueError(f"seed vector {list(seed.vectors[i])} overflows a double "
                                 f"at iterate {k}")
            logs[i] += math.log(s)
            units[i] = (w[0] / s, w[1] / s)
        hi = max(logs)
        out.append((hi + math.log(math.fsum(math.exp(v - hi) for v in logs))) / k)
    return out


class TestMassGrowthReference:
    @pytest.mark.parametrize("m", [FIB, Mat2.identity(), Autoeq(-5, 2, 2, -1),
                                   Mat2(0.5, -1.25, 0.75, 2.0)])
    @pytest.mark.parametrize("vectors", [
        ((1.0, 0.0),),
        ((0.3, 0.7), (-1.0, 2.0)),
        ((1.0, 0.0), (3.0, -4.0), (1e-300, 2.5)),
    ])
    def test_bit_for_bit(self, m, vectors):
        seed = MassSeed(vectors)
        values = mass_growth_estimate(m, seed, 2000)
        assert list(map(float.hex, values)) == list(map(float.hex, reference_mass_growth(
            m, seed, 2000)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4),
           st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
                    .filter(lambda v: v != (0.0, 0.0)), min_size=1, max_size=4),
           st.integers(1, 300))
    def test_random_bit_for_bit(self, entries, vectors, n):
        m, seed = Mat2(*entries), MassSeed(tuple(vectors))
        try:
            expected = list(map(float.hex, reference_mass_growth(m, seed, n)))
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                mass_growth_estimate(m, seed, n)
        else:
            assert list(map(float.hex, mass_growth_estimate(m, seed, n))) == expected

    @pytest.mark.parametrize("m, vectors, message", [
        (Mat2(1.0, 1.0, 1.0, 1.0), ((1.0, -1.0),),
         "seed vector [1.0, -1.0] collapses to zero at iterate 1"),
        (Mat2(0.0, 1.0, 0.0, 0.0), ((1.0, 2.0), (0.0, 1.0), (3.0, 0.0)),
         "seed vector [3.0, 0.0] collapses to zero at iterate 1"),
        (Mat2(0.0, 1.0, 0.0, 0.0), ((0.0, 1.0),),
         "seed vector [0.0, 1.0] collapses to zero at iterate 2"),
    ])
    def test_collapse_message(self, m, vectors, message):
        seed = MassSeed(vectors)
        with pytest.raises(ValueError) as reference:
            reference_mass_growth(m, seed, 10)
        with pytest.raises(ValueError) as inlined:
            mass_growth_estimate(m, seed, 10)
        assert str(inlined.value) == str(reference.value) == message

    # |M u| beyond the doubles at iterate k is named there, not as the
    # collapse of the unit vector (0, 0) that it leaves, nor as a NaN report
    @pytest.mark.parametrize("m, vectors, message", [
        (Mat2(1e308, 1e308, 1e308, 1e308), ((1.0, 0.0),),
         "seed vector [1.0, 0.0] overflows a double at iterate 2"),
        (Mat2(1e308, 1e308, -1e308, -1e308), ((1.0, 1.0),),
         "seed vector [1.0, 1.0] overflows a double at iterate 1"),
        (Mat2(1e308, 1e308, 1e308, 1e308), ((1.0, 0.0), (1.0, 1.0), (1.0, -1.0)),
         "seed vector [1.0, 1.0] overflows a double at iterate 1"),
        (Mat2(1e308, 1e308, 1e308, 1e308), ((1.0, 0.0), (1.0, -1.0)),
         "seed vector [1.0, -1.0] collapses to zero at iterate 1"),
        (Mat2(0.0, 1.0, 0.0, 0.0), ((1.0, 2.0), (1.5e308, 1.5e308)),
         "seed vector [1.5e+308, 1.5e+308] overflows a double at iterate 0"),
    ])
    def test_overflow_message(self, m, vectors, message):
        seed = MassSeed(vectors)
        with pytest.raises(ValueError) as reference:
            reference_mass_growth(m, seed, 10)
        with pytest.raises(ValueError) as inlined:
            mass_growth_estimate(m, seed, 10)
        assert str(inlined.value) == str(reference.value) == message

    def test_overflow_at_last_iterate(self):
        # the last step's norm is inf: no NaN estimate comes back
        seed = MassSeed.of((1.0, 0.0))
        with pytest.raises(ValueError, match="overflows a double at iterate 2"):
            mass_growth_estimate(Mat2(1e308, 1e308, 1e308, 1e308), seed, 2)


def full_run_mass_growth(m, seed, n):
    """Reference for ``mass_growth_estimate``: its body before the
    recurrence stopped at a fixed point, every vector iterated n times and
    every log-sum-exp taken through fsum."""
    if not 1 <= n <= MAX_ITERATES:
        raise ValueError(f"n must be in 1..{MAX_ITERATES}, got {n!r}")
    a, b, c, d = m.a, m.b, m.c, m.d
    hypot, inf = math.hypot, math.inf
    runs = []
    bad = (n + 1, 0, 0.0)  # (iterate, vector, step norm) of the first failure
    for i, (x, y) in enumerate(seed.vectors):
        s = hypot(x, y)
        norms = [s]  # |z|, then the step norms
        if s < inf:
            append = norms.append
            x, y = x / s, y / s
            for _ in range(bad[0] - 1):
                x, y = a * x + b * y, c * x + d * y  # Mat2.apply's expressions, bit for bit
                s = hypot(x, y)
                append(s)
                if not 0.0 < s < inf:
                    break
                x, y = x / s, y / s
        k = len(norms) - 1
        if not 0.0 < s < inf and k < bad[0]:
            bad = (k, i, s)
        runs.append(norms)
    k, i, s = bad
    if k <= n:
        what = "collapses to zero" if s == 0.0 else "overflows a double"
        raise ValueError(f"seed vector {list(seed.vectors[i])} {what} at iterate {k}")
    log = math.log
    scales = [list(islice(accumulate(map(log, norms)), 1, None)) for norms in runs]
    his = list(map(max, zip(*scales)))
    terms = zip(*[map(math.exp, map(sub, scale, his)) for scale in scales])
    return list(map(truediv, map(add, his, map(log, map(math.fsum, terms))), range(1, n + 1)))


def assert_same_as_full_run(m, seed, n):
    """Bit-identical estimates, or the identical ValueError message."""
    try:
        expected = list(map(float.hex, full_run_mass_growth(m, seed, n)))
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            mass_growth_estimate(m, seed, n)
        assert str(raised.value) == str(exc)
    else:
        assert list(map(float.hex, mass_growth_estimate(m, seed, n))) == expected


_HUGE = st.floats(1e307, 1.7976931348623157e308).flatmap(lambda v: st.sampled_from([v, -v]))
_MATRICES = st.one_of(
    st.sampled_from([f for f, _ in PA_TABLE]),  # hyperbolic of either trace sign, parabolic, elliptic
    st.sampled_from([Mat2.identity(), Mat2(-1.0, 0.0, 0.0, -1.0), Mat2(0.0, 0.0, 0.0, 0.0),
                     Mat2(1.0, 2.0, 2.0, 4.0), Mat2(0.0, 1.0, 0.0, 0.0), Mat2(1.0, 1.0, 1.0, 1.0)]),
    st.builds(Mat2, *[st.integers(-6, 6).map(float)] * 4),
    st.builds(Mat2, *[st.floats(-4.0, 4.0)] * 4),
    st.builds(Mat2, *[st.one_of(_HUGE, st.floats(-4.0, 4.0))] * 4),
)
_ENTRY = st.one_of(st.integers(-3, 3).map(float), st.floats(-5.0, 5.0), _HUGE,
                   st.sampled_from([1e-300, -5e-324, 1e300]))
_VECTORS = st.lists(st.tuples(_ENTRY, _ENTRY).filter(lambda v: v != (0.0, 0.0)),
                    min_size=1, max_size=4)


class TestMassGrowthFixedPoint:
    """Stopping each recurrence at its float fixed point (up to sign) and
    the one- and two-vector log-sum-exps change no bit and no message."""

    @settings(max_examples=300, deadline=None)
    @given(_MATRICES, _VECTORS, st.integers(1, 3000))
    def test_same_as_full_run(self, m, vectors, n):
        assert_same_as_full_run(m, MassSeed(tuple(vectors)), n)

    @pytest.mark.parametrize("m, vectors", [
        (FIB, ((0.3, 0.7), (0.5, 0.2), (0.9, 0.4))),
        (Autoeq(-2, -1, -1, -1), ((0.3, 0.7), (1.0, 0.0))),  # settles with alternating sign
        (Autoeq(-5, 2, 2, -1), ((1.0, 0.0),)),
        (Autoeq(1, 1, 0, 1), ((0.3, 0.7), (0.0, -1.0))),  # parabolic: (1, 0) is fixed
        (Autoeq(0, -1, 1, 1), ((0.3, 0.7), (1.0, 0.0))),  # elliptic: never settles
        (Mat2(-1.0, 0.0, 0.0, -1.0), ((0.0, 1.0), (-0.0, 2.0))),  # zero signs flip
        (Mat2(0.0, 0.0, 0.0, 0.0), ((1.0, 0.0),)),
    ])
    @pytest.mark.parametrize("n", [1, 2, 2000])
    def test_named_cases(self, m, vectors, n):
        assert_same_as_full_run(m, MassSeed(vectors), n)

    def test_max_iterates(self):
        assert_same_as_full_run(Autoeq(-2, -1, -1, -1),
                                MassSeed.of((0.3, 0.7), (0.5, 0.2), (1.0, 0.0)), MAX_ITERATES)

    def test_out_of_range_n(self):
        for n in (0, MAX_ITERATES + 1):
            assert_same_as_full_run(FIB, MassSeed.of((1.0, 0.0)), n)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_iteration_stops(self, monkeypatch, sign):
        calls = []
        hypot = math.hypot

        def counting_hypot(x, y):
            calls.append(1)
            return hypot(x, y)

        monkeypatch.setattr(math, "hypot", counting_hypot)
        seed = MassSeed.of((1.0, 0.0), (0.3, 0.7), (0.5, 0.2))
        mass_growth_estimate(Mat2(2.0 * sign, sign, sign, sign), seed, 2000)
        assert 0 < len(calls) < 100 * len(seed.vectors)


class TestMassGrowth:
    def test_unit_seed_converges(self):
        values = mass_growth_estimate(FIB, MassSeed.of((1.0, 0.0)), 200)
        assert abs(values[199] - LOG_GOLD) <= 0.02
        assert abs(values[199] - LOG_GOLD) < abs(values[49] - LOG_GOLD)

    def test_identity_limit_zero(self):
        values = mass_growth_estimate(Mat2.identity(), MassSeed.of((3.0, 4.0)), 200)
        # total mass stays constant so a_k = log(5) / k
        assert values[0] == pytest.approx(math.log(5.0), abs=1e-12)
        assert values[199] == pytest.approx(math.log(5.0) / 200, abs=1e-12)

    def test_contracting_seed_flagged(self):
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        values = mass_growth_estimate(FIB, MassSeed.of((1.0, -phi)), 200)
        assert initial_mass_decay(values)
        assert values[9] < 0.0  # still decaying after ten steps
        assert values[199] > 0.0  # round-off reinjected the expanding direction

    def test_generic_seed_not_flagged(self):
        values = mass_growth_estimate(FIB, MassSeed.of((0.3, 0.7), (-1.0, 2.0)), 50)
        assert not initial_mass_decay(values)

    def test_multi_vector_seed_converges(self):
        seed = MassSeed.of((0.3, 0.7), (-1.0, 2.0))
        values = mass_growth_estimate(FIB, seed, 200)
        assert abs(values[199] - LOG_GOLD) <= 0.02

    def test_autoeq_iterates_as_its_float_matrix(self):
        seed = MassSeed.of((0.3, 0.7), (-1.0, 2.0))
        assert (mass_growth_estimate(FIB, seed, 200)
                == mass_growth_estimate(Mat2(2.0, 1.0, 1.0, 1.0), seed, 200))

    def test_no_overflow_for_long_runs(self):
        values = mass_growth_estimate(FIB, MassSeed.of((1.0, 0.0)), 400)
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
            assert not summary.pseudo_anosov_exists
            assert "no pseudo-Anosov" in summary.message

    def test_genus_one_requires_matrix(self):
        with pytest.raises(MissingMatrix):
            curve_pa_summary(1)

    def test_matrix_away_from_genus_one_rejected(self):
        for genus in (0, 2):
            with pytest.raises(ValueError, match="genus one only"):
                curve_pa_summary(genus, FIB)

    def test_genus_one_full_report(self):
        summary = curve_pa_summary(1, FIB)
        assert summary.pseudo_anosov_exists
        assert summary.stretch_factor == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
        assert summary.translation_length == pytest.approx(LOG_GOLD, abs=1e-12)
        assert summary.entropy == pytest.approx(LOG_GOLD, abs=1e-12)

    def test_genus_one_non_pa(self):
        summary = curve_pa_summary(1, Autoeq(1, 1, 0, 1))
        assert not summary.pseudo_anosov_exists
        assert summary.entropy == 0.0
