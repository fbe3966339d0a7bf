"""Tests for the R^4 model, the quotient metric, and the embedding."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabmetric import quotient
from stabmetric.errors import OutsideRegion, SolverDiverged
from stabmetric.fixtures import _closed_form_pairs
from stabmetric.quotient import (
    QuotPoint,
    dprime,
    embed_q,
    isometry_report,
    isometry_samples,
    kron_quot_closed,
    quot_dist_closed,
    quot_dist_inf,
    quot_dist_lp,
    quot_minimizer,
    r4_act,
)
from stabmetric.stabmodel import (
    REGION_HIGH,
    REGION_LOW,
    KroneckerPoint,
    ObjectClass,
    c_act,
    central_charge,
    d_B_closed,
    random_region_point,
    random_region_vector,
    region_rows,
)


def random_vec4(rng):
    return tuple(rng.uniform(-3.0, 3.0, 4))


class TestDPrime:
    def test_example(self):
        assert dprime((0, 0, 0, 0), (1, 2, -1, 0)) == 2

    def test_zero_on_equal(self):
        x = (0.3, -1.0, 2.0, 0.7)
        assert dprime(x, x) == 0.0

    def test_action_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            x, y = random_vec4(rng), random_vec4(rng)
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert dprime(r4_act(x, lam), r4_act(y, lam)) == pytest.approx(
                dprime(x, y), abs=1e-12
            )

    @pytest.mark.parametrize("k", range(4))
    def test_nan_in_any_coordinate(self, k):
        x = [0.0] * 4
        x[k] = math.nan
        assert math.isnan(dprime(x, (0.0, 0.0, 0.0, 0.0)))
        assert math.isnan(dprime((0.0, 0.0, 0.0, 0.0), x))


class TestQuotPoint:
    def test_canonical_representative(self):
        p = QuotPoint.from_vector((0.2, 0.5, 0.7, 0.1))
        assert p.rep[0] == 0.0 and p.rep[1] == 0.0
        assert p.rep[2] == pytest.approx(0.5)
        assert p.rep[3] == pytest.approx(-0.4)

    def test_equality_is_rep_equality(self):
        a = QuotPoint.from_vector((0.0, 0.0, 1.0, 2.0))
        b = QuotPoint.from_vector((0.5, 0.5, 1.5, 2.5))
        assert a == b
        assert hash(a) == hash(b)

    def test_rejects_noncanonical(self):
        with pytest.raises(ValueError):
            QuotPoint((0.1, 0.0, 1.0, 0.0))

    def test_orbit_members_collapse(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = random_vec4(rng)
            lam = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            assert quot_dist_closed(
                QuotPoint.from_vector(x), QuotPoint.from_vector(r4_act(x, lam))
            ) == pytest.approx(0.0, abs=1e-12)


class TestClosedForm:
    def test_collinear_triple(self):
        r = 0.2
        p1 = QuotPoint.from_vector((r, 0.0, 2 * r, 0.0))
        p2 = QuotPoint.from_vector((r, 0.0, 3 * r, r / 2))
        p3 = QuotPoint.from_vector((r, 0.0, 4 * r, 0.0))
        d12 = quot_dist_closed(p1, p2)
        d23 = quot_dist_closed(p2, p3)
        d13 = quot_dist_closed(p1, p3)
        assert d12 == pytest.approx(0.1, abs=1e-12)
        assert d23 == pytest.approx(0.1, abs=1e-12)
        assert d13 == pytest.approx(0.2, abs=1e-12)
        assert d12 + d23 == pytest.approx(d13, abs=1e-12)

    def test_identical_orbits(self):
        p = QuotPoint.from_vector((0.1, 0.2, 0.3, 0.4))
        assert quot_dist_closed(p, p) == 0.0

    def test_halved_single_coordinate(self):
        a = QuotPoint.from_vector((0, 0, 0, 0))
        b = QuotPoint.from_vector((0, 0, 1, 0))
        assert quot_dist_closed(a, b) == 0.5

    @pytest.mark.parametrize("rep", [(0.0, 0.0, math.nan, 0.0), (0.0, 0.0, 0.0, math.nan)])
    def test_nan_in_either_coordinate(self, rep):
        zero = QuotPoint((0.0, 0.0, 0.0, 0.0))
        assert math.isnan(quot_dist_closed(QuotPoint(rep), zero))
        assert math.isnan(quot_dist_closed(zero, QuotPoint(rep)))

    def test_kronecker_nan_is_kept(self):
        # the transported minimizer's Im part is (inf - inf) / 2pi = NaN, while
        # the first coordinate's difference is 0
        p = KroneckerPoint((0.0, 1e308, 0.5, -1e308))
        q = KroneckerPoint((0.0, -1e308, 0.5, 1e308))
        assert math.isnan(kron_quot_closed(p, q))

    def test_metric_axioms(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c = (QuotPoint.from_vector(random_vec4(rng)) for _ in range(3))
            assert quot_dist_closed(a, b) == quot_dist_closed(b, a)
            assert quot_dist_closed(a, c) <= (
                quot_dist_closed(a, b) + quot_dist_closed(b, c) + 1e-12
            )


class TestInfimumSolver:
    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            x, y = random_vec4(rng), random_vec4(rng)
            closed = quot_dist_closed(QuotPoint.from_vector(x), QuotPoint.from_vector(y))
            numeric = quot_dist_inf(dprime, x, y, r4_act)
            assert numeric == pytest.approx(closed, abs=1e-6)

    def test_same_orbit_vanishes(self):
        rng = np.random.default_rng(7)
        x = random_vec4(rng)
        y = r4_act(x, complex(0.7, -0.4))
        assert quot_dist_inf(dprime, x, y, r4_act) == pytest.approx(0.0, abs=1e-9)

    def test_minimizer_attains_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            x, y = random_vec4(rng), random_vec4(rng)
            closed = quot_dist_closed(QuotPoint.from_vector(x), QuotPoint.from_vector(y))
            attained = dprime(r4_act(x, quot_minimizer(x, y)), y)
            assert attained == pytest.approx(closed, abs=1e-12)

    def test_kronecker_model_agrees(self):
        rng = np.random.default_rng(13)
        from stabmetric.stabmodel import random_region_point

        for _ in range(10):
            p, q = random_region_point(rng), random_region_point(rng)
            closed = kron_quot_closed(p, q)
            numeric = quot_dist_inf(d_B_closed, p, q, c_act)
            assert numeric == pytest.approx(closed, abs=1e-6)


def strip_pairs(n, seed):
    rng = np.random.default_rng(seed)
    return [(random_region_point(rng), random_region_point(rng)) for _ in range(n)]


def looped_quot_dist_inf(dist, sigma, tau, act, sweeps=200) -> float:
    """Reference for the solver: the grid and a first-improvement pattern
    search as plain loops over one pair, one objective call per point.
    A sweep tries _DIRECTIONS in order, moves at each improvement and goes
    on from the new point; at most ``sweeps`` sweeps run."""

    def f(u, v):
        return dist(sigma, act(tau, complex(u, v)))

    box = dist(sigma, tau) + 1.0
    grid = quotient._GRID
    axis = [-box + 2.0 * box * i / (grid - 1) for i in range(grid)]
    best_u, best_v, best = 0.0, 0.0, f(0.0, 0.0)
    for u in axis:
        for v in axis:
            val = f(u, v)
            if val < best:
                best, best_u, best_v = val, u, v
    h = 2.0 * box / (grid - 1)
    iterations = 0
    while h > quotient._STEP_FLOOR and iterations < sweeps:
        iterations += 1
        moved = False
        for du, dv in quotient._DIRECTIONS:
            u, v = best_u + h * du, best_v + h * dv
            val = f(u, v)
            if val < best:
                best, best_u, best_v = val, u, v
                moved = True
        if not moved:
            h *= 0.5
    return best


_HALVES = st.integers(-8, 8).map(lambda k: k / 2.0)
_HALF_VECS = st.tuples(_HALVES, _HALVES, _HALVES, _HALVES)


@st.composite
def tied_pairs(draw):
    """R^4 pairs on a half-integer grid whose closed form is an exact tie,
    |d1 - d3| = |d2 - d4| for the differences d = sigma - tau."""
    tau = draw(_HALF_VECS)
    d1, d2, d3 = draw(_HALVES), draw(_HALVES), draw(_HALVES)
    d4 = d2 - draw(st.sampled_from((1.0, -1.0))) * (d1 - d3)
    return tuple(t + d for t, d in zip(tau, (d1, d2, d3, d4))), tau


_STRIP_POINTS = st.builds(
    lambda x1, x2, gap, x4: KroneckerPoint((x1, x2, x1 + gap, x4)),
    st.floats(-2.0, 2.0), st.floats(-1.5, 1.5), st.floats(0.01, 0.99), st.floats(-1.5, 1.5))


@st.composite
def scaled_pairs(draw):
    """R^4 pairs of entries in [-1, 1], each either times one power of ten
    up to 1e300 or not: the scales within a pair may differ by 1e300."""
    scale = 10.0 ** draw(st.integers(-6, 300))
    return tuple(tuple(draw(st.floats(-1.0, 1.0)) * draw(st.sampled_from((scale, 1.0)))
                       for _ in range(4)) for _ in range(2))


def looped_to_the_floor(dist, sigma, tau, act) -> float:
    """The looped reference with as many sweeps as the solver has steps,
    so that neither cap ends a descent the other goes on with."""
    return looped_quot_dist_inf(dist, sigma, tau, act, sweeps=quotient._MAX_STEPS)


class TestDescentRule:
    """The pattern search moves to the first best of its eight
    directions; the looped reference sweeps them and moves at the first
    improvement.  On these objectives the two rules reach the same value
    bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.tuples(_HALF_VECS, _HALF_VECS), tied_pairs()))
    def test_tie_heavy_pairs(self, pair):
        x, y = pair
        assert quot_dist_inf(dprime, x, y, r4_act) == looped_to_the_floor(dprime, x, y, r4_act)

    @settings(max_examples=60, deadline=None)
    @given(_STRIP_POINTS, _STRIP_POINTS)
    def test_strip_pairs(self, p, q):
        assert quot_dist_inf(d_B_closed, p, q, c_act) == looped_to_the_floor(
            d_B_closed, p, q, c_act)

    @settings(max_examples=50, deadline=None)
    @given(scaled_pairs())
    def test_scaled_pairs(self, pair):
        x, y = pair
        assert quot_dist_inf(dprime, x, y, r4_act) == looped_to_the_floor(dprime, x, y, r4_act)

    def test_long_descent_reaches_the_closed_form(self):
        # the grid hits v = 1e200 exactly, and the u-part then waits some
        # 660 halvings for a step near 1: 200 sweeps stop at 1.0
        x, y = (0.0, 1e200, 1.0, 1e200), (0.0, 0.0, 0.0, 0.0)
        assert looped_quot_dist_inf(dprime, x, y, r4_act) == 1.0
        assert quot_dist_inf(dprime, x, y, r4_act) == pytest.approx(0.5, abs=1e-12)

    def test_overflowing_pair_stops_at_once(self):
        calls = 0

        def counted(x, y):
            nonlocal calls
            calls += 1
            return dprime(x, y)

        # sigma - tau overflows, so the box and the step are infinite
        assert quot_dist_inf(counted, (1e308, 0.0, 0.0, 0.0), (-1e308, 0.0, 0.0, 0.0),
                             r4_act) == math.inf
        # the box, the seed point, the grid, and at most one step
        assert calls <= 2 + quotient._GRID ** 2 + len(quotient._DIRECTIONS)


def closed_form_exact(sigma, tau) -> float:
    """max(|d3 - d1|, |d4 - d2|) / 2 in Fractions on the float differences
    d = sigma - tau, rounded once."""
    d = [Fraction(a - b) for a, b in zip(sigma, tau)]
    return float(max(abs(d[2] - d[0]), abs(d[3] - d[1])) / 2)


@st.composite
def lp_pairs(draw):
    """R^4 pairs at one scale from 1e-5 to 1e200: random, tied (|d1 - d3|
    = |d2 - d4|) or on a common orbit of S lam = (u, s v, u, s v)."""
    scale = 10.0 ** draw(st.integers(-5, 200))
    s = draw(st.sampled_from((1.0, math.pi)))
    unit = st.floats(-1.0, 1.0)
    tau = tuple(draw(unit) * scale for _ in range(4))
    kind = draw(st.sampled_from(("random", "tie", "orbit")))
    if kind == "random":
        d = [draw(unit) * scale for _ in range(4)]
    elif kind == "tie":
        d1, d2, d3 = (draw(unit) * scale for _ in range(3))
        d = [d1, d2, d3, d2 - draw(st.sampled_from((1.0, -1.0))) * (d1 - d3)]
    else:
        u, v = draw(unit) * scale, draw(unit) * scale
        d = [u, s * v, u, s * v]
    return tuple(t + e for t, e in zip(tau, d)), tau, s


def pattern_search_pairs(sigma, tau):
    """The pattern search over P R^4 pairs at once, on the objectives
    max_k |d_k - (S lam)_k|; quot_dist_inf poses one problem at a time."""
    sigma, tau = np.asarray(sigma), np.asarray(tau)

    def objective(rows, u, v):
        d = sigma[rows] - tau[rows]
        return np.max([np.abs(d[:, k, None] - w) for k, w in enumerate((u, v, u, v))], axis=0)

    return quotient._pattern_search(objective, np.abs(sigma - tau).max(axis=1) + 1.0)


class TestBatchedSolver:
    """quot_dist_lp solves P pairs in one batch, and each value is the
    exact LP optimum: the closed form in Fractions on the same float
    differences, rounded once.  The pattern search also takes P problems
    at once, in blocks of grid cells."""

    @settings(max_examples=300, deadline=None)
    @given(lp_pairs())
    def test_exact_on_tie_orbit_and_scaled_pairs(self, case):
        sigma, tau, s = case
        assert quot_dist_lp([sigma], [tau], s)[0] == closed_form_exact(sigma, tau)

    def test_looped_reference(self):
        # the black-box search matches its looped reference bit for bit,
        # and both reach the exact optimum within the search's tolerance
        sigma, tau = _closed_form_pairs(4)
        pairs = strip_pairs(10, 37)
        exact = quot_dist_lp(sigma, tau)
        searched = [quot_dist_inf(dprime, x, y, r4_act) for x, y in zip(sigma, tau)]
        assert searched == [looped_quot_dist_inf(dprime, x, y, r4_act)
                            for x, y in zip(sigma, tau)]
        assert np.max(np.abs(exact - searched)) <= 1e-6
        exact = quot_dist_lp([p.x for p, _ in pairs], [q.x for _, q in pairs], math.pi)
        searched = [quot_dist_inf(d_B_closed, p, q, c_act) for p, q in pairs]
        assert searched == [looped_quot_dist_inf(d_B_closed, p, q, c_act) for p, q in pairs]
        assert np.max(np.abs(exact - searched)) <= 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_r4_pairs_of_the_fixture(self, seed):
        sigma, tau = _closed_form_pairs(seed)
        assert quot_dist_lp(sigma, tau).tolist() == [
            closed_form_exact(x, y) for x, y in zip(sigma, tau)]

    def test_strip_pairs(self):
        pairs = strip_pairs(20, 31)
        exact = quot_dist_lp([p.x for p, _ in pairs], [q.x for _, q in pairs], math.pi)
        assert exact.tolist() == [closed_form_exact(p.x, q.x) for p, q in pairs]
        assert np.max(np.abs(exact - [kron_quot_closed(p, q) for p, q in pairs])) <= 1e-15

    @pytest.mark.parametrize("pairs_per_block", [1, 7])
    def test_grid_blocks_do_not_change_values(self, monkeypatch, pairs_per_block):
        sigma, tau = _closed_form_pairs(5)
        whole = pattern_search_pairs(sigma, tau).tolist()
        monkeypatch.setattr(quotient, "_BLOCK_CELLS", pairs_per_block * quotient._GRID ** 2)
        assert pattern_search_pairs(sigma, tau).tolist() == whole

    def test_single_pair_matches_its_batch(self):
        sigma, tau = _closed_form_pairs(6)
        batched = quot_dist_lp(sigma, tau).tolist()
        assert [quot_dist_lp([x], [y])[0] for x, y in zip(sigma[:10], tau[:10])] == batched[:10]

    def test_extreme_differences(self):
        # finite differences near the float range, and subnormal ones
        big = (1.7e308, -1.7e308, -1.7e308, 1.7e308)
        tiny = (5e-324, 1e-310, -5e-324, 1e-310)
        zero = (0.0, 0.0, 0.0, 0.0)
        assert quot_dist_lp([big, tiny], [zero, zero]).tolist() == [1.7e308, 5e-324]

    def test_non_finite_difference_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            quot_dist_lp([(1e308, 0.0, 0.0, 0.0)], [(-1e308, 0.0, 0.0, 0.0)])

    def test_zero_im_scale_rejected(self):
        with pytest.raises(ValueError, match="im_scale"):
            quot_dist_lp([(0.0, 1.0, 0.0, 0.0)], [(0.0, 0.0, 0.0, 0.0)], 0.0)


class TestSolverDiverged:
    """With a tolerance of -inf every descent ends "above" its grid minimum."""

    def test_batched_solver_raises(self, monkeypatch):
        monkeypatch.setattr(quotient, "_TOL", -math.inf)
        sigma, tau = _closed_form_pairs(0)
        with pytest.raises(SolverDiverged):
            pattern_search_pairs(sigma, tau)

    def test_black_box_solver_raises(self, monkeypatch):
        monkeypatch.setattr(quotient, "_TOL", -math.inf)
        with pytest.raises(SolverDiverged):
            quot_dist_inf(dprime, (0.0, 0.0, 0.5, 0.0), (0.2, 0.1, 0.3, 0.4), r4_act)


class TestEmbedding:
    def test_base_point_charges(self):
        p = embed_q((0.5, 0.0, 1.0, 0.0))
        assert central_charge(p, ObjectClass(1, 0)) == pytest.approx(1j, abs=1e-12)
        assert central_charge(p, ObjectClass(0, 1)) == pytest.approx(-1.0, abs=1e-12)

    def test_outside_region_rejected(self):
        with pytest.raises(OutsideRegion):
            embed_q((0.5, 0.0, 0.3, 0.0))

    def test_intertwines_actions(self):
        rng = np.random.default_rng(17)
        from stabmetric.stabmodel import random_region_vector

        for _ in range(30):
            x = random_region_vector(rng)
            lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            left = embed_q(r4_act(x, lam))
            right = c_act(embed_q(x), complex(lam.real, lam.imag / math.pi))
            assert max(abs(a - b) for a, b in zip(left.x, right.x)) <= 1e-12

    def test_region_convexity(self):
        rng = np.random.default_rng(19)
        from stabmetric.stabmodel import random_region_vector

        for _ in range(30):
            x = np.array(random_region_vector(rng))
            y = np.array(random_region_vector(rng))
            t = rng.uniform()
            embed_q(tuple((1 - t) * x + t * y))  # must not raise


class TestIsometryReport:
    def test_empty_report(self):
        # a maximum over zero pairs would read as a perfect isometry
        with pytest.raises(ValueError, match="sample count"):
            isometry_report(0, seed=0)

    def test_deviations_are_tiny(self):
        rep = isometry_report(100, seed=42)
        assert rep.max_metric_deviation <= 1e-12
        assert rep.max_quotient_deviation <= 1e-12

    def test_samples_are_deterministic(self):
        first = isometry_samples(20, seed=9).tolist()
        second = isometry_samples(20, seed=9).tolist()
        assert first == second


def looped_isometry_samples(n, seed):
    """Reference for ``isometry_samples``: two ``random_region_vector``
    calls per pair, each of them four scalar draws."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = random_region_vector(rng)
        y = random_region_vector(rng)
        yield (abs(d_B_closed(embed_q(x), embed_q(y)) - dprime(x, y)),
               abs(quot_dist_closed(QuotPoint.from_vector(x), QuotPoint.from_vector(y))
                   - kron_quot_closed(embed_q(x), embed_q(y))))


class TestBlockedDraws:
    # 1025 and 3000 pairs cross the block boundary of quotient._DRAW_PAIRS
    @pytest.mark.parametrize("n", [0, 1, 100, 1025, 3000])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_scalar_draws(self, seed, n):
        def hexed(samples):
            return [(dm.hex(), dq.hex()) for dm, dq in samples]

        assert hexed(isometry_samples(n, seed).tolist()) == hexed(looped_isometry_samples(n, seed))

    def test_row_outside_the_strip_is_named(self, monkeypatch):
        # gaps drawn up to 3 leave the strip; the block check names the row
        monkeypatch.setattr(quotient, "REGION_HIGH", (2.0, 3.0, 1.5, 1.5))
        with pytest.raises(OutsideRegion, match=r"^x3 - x1 = .* is not in \(0, 1\)$"):
            isometry_samples(100, 0)


class TestRowForms:
    """The closed forms on a block of rows give each pair's scalar value,
    and isometry_samples measures with the module's own forms."""

    @staticmethod
    def _blocks(seed, m=50):
        rng = np.random.default_rng(seed)
        draws = rng.uniform(REGION_LOW, REGION_HIGH, (2 * m, 4))
        rows = region_rows(draws)
        return rows[0::2], rows[1::2]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_each_form_matches_its_scalar_calls(self, seed):
        x, y = self._blocks(seed)
        pairs = list(zip(x.tolist(), y.tolist()))
        forms = {
            "dprime": (dprime(x.T, y.T), [dprime(a, b) for a, b in pairs]),
            "d_B_closed": (d_B_closed(embed_q(x), embed_q(y)),
                           [d_B_closed(embed_q(a), embed_q(b)) for a, b in pairs]),
            "quot_dist_closed": (
                quot_dist_closed(QuotPoint.from_vector(x), QuotPoint.from_vector(y)),
                [quot_dist_closed(QuotPoint.from_vector(a), QuotPoint.from_vector(b))
                 for a, b in pairs]),
            "kron_quot_closed": (kron_quot_closed(embed_q(x), embed_q(y)),
                                 [kron_quot_closed(embed_q(a), embed_q(b)) for a, b in pairs]),
        }
        for name, (block, scalar) in forms.items():
            assert [v.hex() for v in block.tolist()] == [v.hex() for v in scalar], name

    def test_nan_row_keeps_nan(self):
        x, y = self._blocks(2, 3)
        x[1, 3] = math.nan
        out = kron_quot_closed(embed_q(x), embed_q(y))
        assert [math.isnan(v) for v in out.tolist()] == [False, True, False]
        assert math.isnan(quot_dist_closed(QuotPoint.from_vector(x),
                                           QuotPoint.from_vector(y))[1])

    def test_embedding_a_row_outside_names_it_as_the_point_does(self):
        x, _ = self._blocks(3, 4)
        x[2, 2] = x[2, 0] + 1.0
        with pytest.raises(OutsideRegion) as rows_error:
            embed_q(x)
        with pytest.raises(OutsideRegion) as point_error:
            embed_q(tuple(x[2]))
        assert str(rows_error.value) == str(point_error.value)

    @pytest.mark.parametrize("name, column", [("d_B_closed", 0), ("dprime", 0),
                                              ("quot_dist_closed", 1),
                                              ("kron_quot_closed", 1)])
    def test_samples_see_a_changed_form(self, monkeypatch, name, column):
        # a form that is 1e-9 off shows in its deviation column, and only there
        form = getattr(quotient, name)
        monkeypatch.setattr(quotient, name, lambda a, b: form(a, b) + 1e-9)
        samples = isometry_samples(30, seed=4)
        assert (samples[:, column] > 1e-12).all()
        assert (samples[:, 1 - column] <= 1e-12).all()
