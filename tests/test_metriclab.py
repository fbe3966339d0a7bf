"""Tests for the comparison-triangle, slimness, and geodesic checkers."""

import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabmetric import metriclab
from stabmetric.errors import (
    BadSideLengths,
    DegenerateBase,
    RejectNotAdditive,
    RejectOnGeodesic,
    StabmetricError,
)
from stabmetric.metriclab import (
    c_orbit_space,
    cat0_check,
    comparison_triangle,
    euclidean_plane,
    geodesic_deviation,
    kronecker_quotient_space,
    kronecker_space,
    nonunique_geodesic_check,
    quotient_r4_space,
    r4_space,
    slim_check,
    verify_certificate,
)
from stabmetric.quotient import QuotPoint, embed_q
from stabmetric.stabmodel import KroneckerPoint, random_region_point


class TestComparisonTriangle:
    def test_right_triangle(self):
        x, y, z = comparison_triangle(3, 4, 5)
        assert x == (0.0, 0.0)
        assert y == (3.0, 0.0)
        assert z[0] == pytest.approx(3.0, abs=1e-12)
        assert z[1] == pytest.approx(4.0, abs=1e-12)

    def test_degenerate_collinear(self):
        _, _, z = comparison_triangle(2, 1, 1)
        assert z == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_equilateral(self):
        _, _, z = comparison_triangle(1, 1, 1)
        assert z[0] == pytest.approx(0.5, abs=1e-12)
        assert z[1] == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_triangle_inequality_enforced(self):
        with pytest.raises(BadSideLengths):
            comparison_triangle(1, 1, 3)

    def test_negative_side_rejected(self):
        with pytest.raises(BadSideLengths):
            comparison_triangle(-1, 1, 1)

    def test_degenerate_base(self):
        with pytest.raises(DegenerateBase):
            comparison_triangle(0, 1, 2)
        x, y, z = comparison_triangle(0, 2, 2)
        assert x == y == (0.0, 0.0)
        assert z == (2.0, 0.0)

    def test_side_lengths_reproduced(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.uniform(0.1, 5.0, 2)
            c = rng.uniform(abs(a - b) + 1e-6, a + b - 1e-6)
            x, y, z = (complex(*p) for p in comparison_triangle(a, b, c))
            assert abs(x - y) == pytest.approx(a, abs=1e-9)
            assert abs(y - z) == pytest.approx(b, abs=1e-9)
            assert abs(z - x) == pytest.approx(c, abs=1e-9)


class TestCat0Check:
    def test_euclidean_plane_passes(self):
        space = euclidean_plane()
        rng = np.random.default_rng(2)
        for _ in range(100):
            x, y, z = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
            if min(abs(x - y), abs(y - z), abs(z - x)) < 0.1:
                continue
            assert cat0_check(space, x, y, z, resolution=24) is None

    def test_orbit_degenerate_comparison_violation(self):
        space = c_orbit_space()
        z = complex(1.0, 1.0 / math.pi)
        cert = cat0_check(space, 0j, 2 + 0j, z, resolution=128)
        assert cert is not None
        assert cert.margin == pytest.approx(1.0, abs=1e-9)
        witnesses = (cert.witness["p"], cert.witness["q"])
        assert any(abs(w - z) <= 1e-9 for w in witnesses)
        assert any(abs(w - (1 + 0j)) <= 1e-9 for w in witnesses)

    def test_quotient_triple_violation(self):
        space = quotient_r4_space()
        r = 0.2
        p1 = QuotPoint.from_vector((r, 0, 2 * r, 0))
        p2 = QuotPoint.from_vector((r, 0, 3 * r, r / 2))
        p3 = QuotPoint.from_vector((r, 0, 4 * r, 0))
        cert = cat0_check(space, p1, p2, p3, resolution=128)
        assert cert is not None
        assert cert.margin == pytest.approx(r / 4, abs=1e-9)

    def test_certificate_reproducible(self):
        space = c_orbit_space()
        cert = cat0_check(space, 0j, 2 + 0j, complex(1.0, 1.0 / math.pi), resolution=64)
        assert abs(verify_certificate(space, cert) - cert.margin) <= 1e-12

    def test_certificate_serializes(self):
        space = c_orbit_space()
        cert = cat0_check(space, 0j, 2 + 0j, complex(1.0, 1.0 / math.pi), resolution=64)
        payload = json.dumps(metriclab.as_jsonable(cert), sort_keys=True)
        data = json.loads(payload)
        assert data["kind"] == "cat0-violation"
        assert data["resolution"] == 64
        assert data["margin"] == pytest.approx(1.0, abs=1e-9)


class TestSlimCheck:
    def test_euclidean_longest_side_bound(self):
        space = euclidean_plane()
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y, z = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3))
            if min(abs(x - y), abs(y - z), abs(z - x)) < 0.1:
                continue
            delta = max(abs(x - y), abs(y - z), abs(z - x))
            assert slim_check(space, x, y, z, delta, resolution=64) is None

    def test_orbit_witness_scales_with_delta(self):
        space = c_orbit_space()
        for delta in (1.0, 2.0, 4.0, 8.0):
            cert = slim_check(
                space, 0j, complex(4 * delta, 0), complex(0, 4 * delta / math.pi),
                delta, resolution=128,
            )
            assert cert is not None
            assert cert.margin == pytest.approx(delta, abs=1e-9)
            assert cert.witness["point"] == pytest.approx(
                complex(2 * delta, 2 * delta / math.pi), abs=1e-9
            )
            assert cert.witness["side"] == "yz"

    def test_certificate_reproducible(self):
        space = c_orbit_space()
        cert = slim_check(space, 0j, 4 + 0j, 4j / math.pi, 1.0, resolution=128)
        assert abs(verify_certificate(space, cert) - cert.margin) <= 1e-12

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            slim_check(euclidean_plane(), 0j, 1 + 0j, 1j, 0.0)


class TestNonuniqueGeodesic:
    def test_orbit_detour(self):
        space = c_orbit_space()
        r = 0.2
        z = 0.5 * r * complex(1.0, 1.0 / (2.0 * math.pi))
        cert = nonunique_geodesic_check(space, 0j, z, complex(r, 0))
        assert cert.witness["additivity_residual"] <= 1e-12
        assert cert.margin == pytest.approx(r / 4, abs=1e-9)
        assert cert.margin >= r / (4 * math.pi) - 1e-9

    def test_quotient_detour(self):
        space = quotient_r4_space()
        r = 0.2
        p1 = QuotPoint.from_vector((r, 0, 2 * r, 0))
        p2 = QuotPoint.from_vector((r, 0, 3 * r, r / 2))
        p3 = QuotPoint.from_vector((r, 0, 4 * r, 0))
        cert = nonunique_geodesic_check(space, p1, p2, p3)
        assert cert.witness["additivity_residual"] <= 1e-12
        assert cert.margin == pytest.approx(r / 4, abs=1e-9)

    def test_kronecker_quotient_detour(self):
        space = kronecker_quotient_space()
        r = 0.2
        k1 = embed_q((r, 0, 2 * r, 0))
        k2 = embed_q((r, 0, 3 * r, r / 2))
        k3 = embed_q((r, 0, 4 * r, 0))
        cert = nonunique_geodesic_check(space, k1, k2, k3)
        assert cert.witness["additivity_residual"] <= 1e-12
        assert cert.margin == pytest.approx(r / 4, abs=1e-9)

    def test_euclidean_midpoint_rejected(self):
        space = euclidean_plane()
        with pytest.raises(RejectOnGeodesic):
            nonunique_geodesic_check(space, 0j, 0.5 + 0j, 1 + 0j)

    def test_non_additive_rejected(self):
        space = euclidean_plane()
        with pytest.raises(RejectNotAdditive):
            nonunique_geodesic_check(space, 0j, 1j, 1 + 0j)

    def test_certificate_reproducible(self):
        space = c_orbit_space()
        r = 0.2
        z = 0.5 * r * complex(1.0, 1.0 / (2.0 * math.pi))
        cert = nonunique_geodesic_check(space, 0j, z, complex(r, 0))
        assert abs(verify_certificate(space, cert) - cert.margin) <= 1e-12


class TestGeodesicDeviation:
    def test_orbit_straight_line(self):
        space = c_orbit_space()
        assert geodesic_deviation(space, 0j, complex(1, 0.7), resolution=128) <= 1e-12

    def test_quotient_straight_line(self):
        space = quotient_r4_space()
        a = QuotPoint.from_vector((0, 0, 0.3, -1.0))
        b = QuotPoint.from_vector((0, 0, -0.5, 2.0))
        assert geodesic_deviation(space, a, b, resolution=128) <= 1e-12

    def test_kronecker_straight_line(self):
        space = kronecker_space()
        rng = np.random.default_rng(5)
        p, q = random_region_point(rng), random_region_point(rng)
        assert geodesic_deviation(space, p, q, resolution=128) <= 1e-12

    def test_r4_straight_line(self):
        space = r4_space()
        assert geodesic_deviation(space, (0, 0, 0, 0), (1, 2, -1, 0.5), resolution=64) <= 1e-12

    def test_quarter_arc_deviates(self):
        def quarter_arc(a, b, ts):
            return np.column_stack((np.cos(0.5 * math.pi * ts), np.sin(0.5 * math.pi * ts)))

        arc = replace(euclidean_plane(), name="quarter-arc", path=quarter_arc)
        deviation = geodesic_deviation(arc, 1 + 0j, 1j, resolution=256)
        # independent one-dimensional oracle: maximize the chord excess
        # 2 sin(pi u / 4) - sqrt(2) u over the parameter gap u
        grid = np.linspace(0.0, 1.0, 200001)
        oracle = float(np.max(2.0 * np.sin(0.25 * math.pi * grid) - math.sqrt(2.0) * grid))
        assert deviation > 0.05
        assert deviation == pytest.approx(oracle, abs=1e-4)


class TestCustomHandleFallback:
    def test_loops_without_pairwise(self):
        space = euclidean_plane()
        assert cat0_check(space, 0j, 1 + 0j, 0.5 + 0.5j, resolution=16) is None
        assert geodesic_deviation(space, 0j, 1 + 1j, resolution=16) <= 1e-12


def _linear_handles():
    """The five bundled linear sup-space handles with a seeded point sampler
    and the tolerance of pairwise against the model's closed form."""
    return [
        (c_orbit_space(), lambda rng: complex(*rng.uniform(-3.0, 3.0, 2)), 0.0),
        (r4_space(), lambda rng: tuple(rng.uniform(-3.0, 3.0, 4)), 0.0),
        (quotient_r4_space(), lambda rng: QuotPoint.from_vector(rng.uniform(-3.0, 3.0, 4)), 0.0),
        (kronecker_space(), random_region_point, 0.0),
        # the closed form translates before it subtracts, so it is off by round-off
        (kronecker_quotient_space(), random_region_point, 1e-12),
    ]


class TestLinearSupHandles:
    @pytest.mark.parametrize("index", range(5))
    def test_pairwise_matches_dist(self, index):
        space, sample, tol = _linear_handles()[index]
        rng = np.random.default_rng([index, 17])
        ps = [sample(rng) for _ in range(23)]
        qs = [sample(rng) for _ in range(19)]
        a, b = space.coords(*ps), space.coords(*qs)
        for mat, rows, cols in ((space.pairwise(a, b), ps, qs),
                                (space.pairwise(a, a), ps, ps)):
            assert mat.shape == (len(rows), len(cols))
            for i, p in enumerate(rows):
                for j, q in enumerate(cols):
                    assert abs(mat[i, j] - space.dist(p, q)) <= tol

    @pytest.mark.parametrize("index", range(5))
    def test_geodesic_hits_both_ends(self, index):
        space, sample, _ = _linear_handles()[index]
        rng = np.random.default_rng([index, 18])
        x, y = sample(rng), sample(rng)
        start, middle, end = space.path(*space.coords(x, y), np.array([0.0, 0.5, 1.0]))
        assert space.decode(start.tolist()) == x
        assert space.decode(end.tolist()) == y
        assert type(space.decode(middle.tolist())) is type(x)


class TestCoordinateContract:
    def test_model_points_do_not_scale_with_resolution(self, monkeypatch):
        built = []
        post_init = KroneckerPoint.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(KroneckerPoint, "__post_init__", counting)
        x, y, z = (KroneckerPoint(v) for v in ((0.0, 0.0, 0.5, 0.0), (4.0, 0.0, 4.5, 0.0),
                                               (0.0, 4.0, 0.5, 4.0)))
        space = kronecker_space()
        counts = []
        for resolution in (64, 1024):
            built.clear()
            cert = slim_check(space, x, y, z, 1.0, resolution=resolution)
            assert cert is not None
            counts.append(len(built))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("resolution", [0, -1])
    def test_resolution_below_one_rejected(self, resolution):
        space = c_orbit_space()
        checks = (
            lambda: cat0_check(space, 0j, 2 + 0j, 1j, resolution=resolution),
            lambda: slim_check(space, 0j, 4 + 0j, 1j, 1.0, resolution=resolution),
            lambda: geodesic_deviation(space, 0j, 1j, resolution=resolution),
            lambda: nonunique_geodesic_check(space, 0j, 0.1 + 0.01j, 0.2 + 0j,
                                             resolution=resolution),
        )
        for check in checks:
            with pytest.raises(ValueError, match="resolution"):
                check()


class TestRowBlocks:
    """The checkers scan distance matrices in row blocks; the block size
    must not change any result, down to the witness and the last bit."""

    @pytest.mark.parametrize("make_space, tri", [
        (euclidean_plane, (0j, 1 + 0j, 0.3 + 0.7j)),
        (kronecker_space, tuple(KroneckerPoint((a, b, a + 0.5, b))
                                for a, b in ((0.0, 0.0), (2.0, 0.3), (1.0, 1.2)))),
    ])
    def test_block_size_does_not_change_results(self, monkeypatch, make_space, tri):
        space = make_space()

        def run():
            return (metriclab.as_jsonable(cat0_check(space, *tri, resolution=40, tol=-1.0)),
                    metriclab.as_jsonable(slim_check(space, *tri, 0.01, resolution=40)),
                    geodesic_deviation(space, tri[0], tri[2], resolution=40))

        whole = run()
        monkeypatch.setattr(metriclab, "_BLOCK_CELLS", 7 * 123)  # 7 rows, uneven last block
        assert run() == whole
        monkeypatch.setattr(metriclab, "_BLOCK_CELLS", 1)  # one row per block
        assert run() == whole


def full_cat0_scan(space, pts, carr):
    """Reference for ``metriclab._cat0_scan``: the first maximum of the
    whole violation matrix in row-major order."""
    dmat = space.pairwise(pts, pts)
    emat = np.abs(carr[:, None] - carr[None, :])
    viol = dmat - emat
    i, j = np.unravel_index(int(np.argmax(viol)), viol.shape)
    return float(viol[i, j]), i, j, float(dmat[i, j]), float(emat[i, j])


def six_matrix_slim_scan(space, sampled):
    """Reference for ``metriclab._slim_scan``: each side against the other
    two sides together, one matrix per side."""
    return [space.pairwise(sampled[k], np.concatenate((sampled[(k + 1) % 3],
                                                       sampled[(k + 2) % 3]))).min(axis=1)
            for k in range(3)]


def full_geodesic_deviation(space, x, y, resolution):
    """Reference for ``geodesic_deviation``: the whole deviation matrix."""
    ts = metriclab.sample_params(resolution)
    pts = space.path(*space.coords(x, y), ts)
    return float(np.max(np.abs(space.pairwise(pts, pts)
                               - np.abs(ts[:, None] - ts[None, :]) * space.dist(x, y))))


def _all_handles():
    return [euclidean_plane()] + [space for space, _, _ in _linear_handles()]


def _model_point(space, v):
    """A point of the handle's model from four coordinates in [-3, 3]."""
    a, b, c, d = v
    if space.name in ("euclidean-plane", "c-orbit"):
        return complex(a, b)
    if space.name == "r4-sup":
        return v
    if space.name == "r4-quotient":
        return QuotPoint.from_vector(v)
    return KroneckerPoint((a, b, a + 0.05 + 0.9 * (c % 1.0), d))


def _outcome(check):
    """A check's result as JSON text, or the name of the rejection it raised."""
    try:
        return json.dumps(metriclab.as_jsonable(check()))
    except StabmetricError as exc:  # both scans must reject alike
        return type(exc).__name__


# quarter-integer coordinates make many equal distances, so the first
# maximum in scan order decides the witness
_COORD = st.one_of(st.integers(-12, 12).map(lambda k: k / 4.0), st.floats(-3.0, 3.0))
_VERTEX = st.tuples(_COORD, _COORD, _COORD, _COORD)


class TestScanReferences:
    """Each symmetric distance pair is scanned once; the certificates and
    deviations are those of the full scans, bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 64), st.tuples(_VERTEX, _VERTEX, _VERTEX),
           st.sampled_from((1, 7 * 123, metriclab._BLOCK_CELLS)))
    def test_half_scans_equal_full_scans(self, index, resolution, vertices, cells):
        space = _all_handles()[index]
        x, y, z = (_model_point(space, v) for v in vertices)

        def run():
            return (_outcome(lambda: cat0_check(space, x, y, z, resolution=resolution,
                                                tol=-1.0)),
                    _outcome(lambda: slim_check(space, x, y, z, 1e-3, resolution=resolution)))

        with mock.patch.object(metriclab, "_BLOCK_CELLS", cells):
            half = run()
            deviation = _outcome(lambda: geodesic_deviation(space, x, z, resolution=resolution))
        with mock.patch.object(metriclab, "_cat0_scan", full_cat0_scan), \
                mock.patch.object(metriclab, "_slim_scan", six_matrix_slim_scan):
            assert half == run()
        assert deviation == _outcome(lambda: full_geodesic_deviation(space, x, z, resolution))

    @pytest.mark.parametrize("index", range(6))
    def test_pairwise_is_exactly_symmetric(self, index):
        space = _all_handles()[index]
        rng = np.random.default_rng([index, 19])
        a = space.coords(*(_model_point(space, tuple(rng.uniform(-3.0, 3.0, 4)))
                           for _ in range(40)))
        b = a[::-1].copy()
        mat = space.pairwise(a, a)
        assert np.array_equal(mat, mat.T)
        assert np.array_equal(space.pairwise(a, b), space.pairwise(b, a).T)


class TestAsJsonable:
    def test_nested_containers_become_json(self):
        value = {"a": [1 + 2j, {"b": np.float64(0.5)}], "c": (np.int64(3), np.bool_(True))}
        assert metriclab.as_jsonable(value) == {"a": [[1.0, 2.0], {"b": 0.5}], "c": [3, True]}

    def test_unknown_object_rejected(self):
        with pytest.raises(TypeError):
            metriclab.as_jsonable(object())
