"""Tests for the R^4 model, the quotient metric, and the embedding."""

import math

import numpy as np
import pytest

from stabmetric import quotient
from stabmetric.errors import OutsideRegion, SolverDiverged
from stabmetric.fixtures import _closed_form_pairs, build_fixture
from stabmetric.quotient import (
    QuotPoint,
    dprime,
    embed_q,
    isometry_report,
    iter_isometry_samples,
    kron_quot_closed,
    quot_dist_closed,
    quot_dist_inf,
    quot_dist_pairs,
    quot_minimizer,
    r4_act,
)
from stabmetric.stabmodel import (
    ObjectClass,
    c_act,
    central_charge,
    d_B_closed,
    random_region_point,
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


def looped_quot_dist_inf(dist, sigma, tau, act) -> float:
    """Reference for the solver: the grid and the pattern search as plain
    loops over one pair, one objective call per point."""

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
    while h > quotient._STEP_FLOOR and iterations < quotient._MAX_ITER:
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


class TestBatchedSolver:
    """quot_dist_pairs and the black-box quot_dist_inf share one grid and
    one pattern search, so they must agree bit for bit, with each other
    and with the looped reference."""

    def test_looped_reference(self):
        sigma, tau = _closed_form_pairs(4)
        pairs = strip_pairs(10, 37)
        assert quot_dist_pairs(sigma, tau).tolist() == [
            looped_quot_dist_inf(dprime, x, y, r4_act) for x, y in zip(sigma, tau)]
        assert quot_dist_pairs([p.x for p, _ in pairs], [q.x for _, q in pairs],
                               math.pi).tolist() == [
            looped_quot_dist_inf(d_B_closed, p, q, c_act) for p, q in pairs]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_r4_pairs_of_the_fixture(self, seed):
        sigma, tau = _closed_form_pairs(seed)
        batched = quot_dist_pairs(sigma, tau).tolist()
        assert batched == [quot_dist_inf(dprime, x, y, r4_act) for x, y in zip(sigma, tau)]

    def test_strip_pairs(self):
        pairs = strip_pairs(20, 31)
        batched = quot_dist_pairs([p.x for p, _ in pairs], [q.x for _, q in pairs], math.pi)
        assert batched.tolist() == [quot_dist_inf(d_B_closed, p, q, c_act) for p, q in pairs]

    @pytest.mark.parametrize("pairs_per_block", [1, 7])
    def test_grid_blocks_do_not_change_values(self, monkeypatch, pairs_per_block):
        sigma, tau = _closed_form_pairs(5)
        whole = quot_dist_pairs(sigma, tau).tolist()
        monkeypatch.setattr(quotient, "_BLOCK_CELLS", pairs_per_block * quotient._GRID ** 2)
        assert quot_dist_pairs(sigma, tau).tolist() == whole

    def test_single_pair_matches_its_batch(self):
        sigma, tau = _closed_form_pairs(6)
        batched = quot_dist_pairs(sigma, tau).tolist()
        assert [quot_dist_pairs([x], [y])[0] for x, y in zip(sigma[:10], tau[:10])] == batched[:10]


class TestSolverDiverged:
    """With a tolerance of -inf every descent ends "above" its grid minimum."""

    def test_batched_solver_raises(self, monkeypatch):
        monkeypatch.setattr(quotient, "_TOL", -math.inf)
        sigma, tau = _closed_form_pairs(0)
        with pytest.raises(SolverDiverged):
            quot_dist_pairs(sigma, tau)

    def test_black_box_solver_raises(self, monkeypatch):
        monkeypatch.setattr(quotient, "_TOL", -math.inf)
        with pytest.raises(SolverDiverged):
            quot_dist_inf(dprime, (0.0, 0.0, 0.5, 0.0), (0.2, 0.1, 0.3, 0.4), r4_act)

    def test_fixture_reports_the_error(self, monkeypatch):
        monkeypatch.setattr(quotient, "_TOL", -math.inf)
        result = build_fixture("quotient-closed-form", 0, 512)
        assert result.passed is False
        assert result.details["error"] == "SolverDiverged"


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
        first = list(iter_isometry_samples(20, seed=9))
        second = list(iter_isometry_samples(20, seed=9))
        assert first == second
