"""Tests for the comparison-triangle, slimness, and geodesic checkers."""

import json
import math
import tracemalloc
from dataclasses import replace
from operator import attrgetter
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

    # a triangle from three points, or with one side stretched past the
    # triangle inequality or shrunk to zero, scaled by a power of two so that
    # its longest side is in [1, 2) and its slack is 1e-12 times that side
    @staticmethod
    def unit_sides(draw):
        x, y, z = (complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
                   for _ in range(3))
        sides = [abs(x - y), abs(y - z), abs(z - x)]
        k = draw(st.integers(0, 2))
        sides[k] *= draw(st.sampled_from([1.0, 1.0, 1.0, 0.0, 1.5, 2.0]))
        e = math.frexp(max(sides))[1]
        return [math.ldexp(v, 1 - e) for v in sides]

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(-300, 499))
    def test_formula_below_huge_sides(self, data, exponent):
        # every triangle below 2**500 keeps the plain formula's bits and errors
        sides = [math.ldexp(v, exponent) for v in self.unit_sides(data.draw)]
        a, b, c = sides
        try:
            got = comparison_triangle(a, b, c)
        except (BadSideLengths, DegenerateBase) as exc:
            assert exc.args[0]  # raised in the checks, before any corner is built
            return
        if a > 0.0:
            t = (a * a + c * c - b * b) / (2.0 * a)
            h2 = c * c - t * t
            assert got == ((0.0, 0.0), (a, 0.0), (t, math.sqrt(h2) if h2 > 0.0 else 0.0))

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(501, 1020))
    def test_huge_sides_scale_exactly(self, data, exponent):
        # above 2**500 the corner is 2**exponent times the unit triangle's
        unit = self.unit_sides(data.draw)
        sides = [math.ldexp(v, exponent) for v in unit]
        if max(sides) <= 2.0 ** 500:
            return
        try:
            small = comparison_triangle(*unit)
        except (BadSideLengths, DegenerateBase):
            with pytest.raises((BadSideLengths, DegenerateBase)):
                comparison_triangle(*sides)
            return
        x, y, z = comparison_triangle(*sides)
        assert (x, y) == ((0.0, 0.0), (sides[0], 0.0))
        assert z == tuple(math.ldexp(v, exponent) for v in small[2])
        assert all(map(math.isfinite, z))

    def test_huge_sides_keep_the_slack_in_their_units(self):
        big = 2.0 ** 600
        slack = 1e-12 * 2 * big
        assert comparison_triangle(big, big, 2 * big + 0.5 * slack)[2][1] == 0.0
        with pytest.raises(BadSideLengths):
            comparison_triangle(big, big, 2 * big + 2 * slack)
        with pytest.raises(DegenerateBase):
            comparison_triangle(0.0, big, big + 2 * 1e-12 * big)

    def test_base_below_the_subnormals_of_its_units(self):
        # 1e-300 / 2**665 is zero: the corner lies on the line, at the third side
        assert comparison_triangle(1e-300, 1e200, 1e200) == ((0.0, 0.0), (1e-300, 0.0),
                                                             (1e200, 0.0))

    @pytest.mark.parametrize("sides", [(1e200, 1e200, 1e200), (1e308, 1e308, 1e308),
                                       (1.5e308, 1.7e308, 1.6e308)])
    def test_huge_sides_reproduced(self, sides):
        a, b, c = sides
        x, y, z = (complex(*p) for p in comparison_triangle(a, b, c))
        assert abs(x - y) == a
        assert abs(0.5 * y - 0.5 * z) == pytest.approx(0.5 * b, rel=1e-14)
        assert abs(z - x) == pytest.approx(c, rel=1e-14)


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


def _quarter_arc():
    """The Euclidean plane with the unit quarter circle as its only path."""
    def quarter_arc(a, b, ts):
        return np.column_stack((np.cos(0.5 * math.pi * ts), np.sin(0.5 * math.pi * ts)))

    return replace(euclidean_plane(), name="quarter-arc", path=quarter_arc)


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
        arc = _quarter_arc()
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
    """The scans skip the tiles that float bounds rule out, and the CAT(0)
    scan reads each symmetric pair of the rest once; the certificates and
    deviations are those of the full scans, bit for bit.  Tiles of 1 and
    3 samples make small resolutions prune."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 64), st.tuples(_VERTEX, _VERTEX, _VERTEX),
           st.sampled_from((1, 7 * 123, metriclab._BLOCK_CELLS)), st.sampled_from((1, 3, 64)))
    def test_scans_equal_full_scans(self, index, resolution, vertices, cells, tile):
        space = _all_handles()[index]
        x, y, z = (_model_point(space, v) for v in vertices)

        def run():
            return (_outcome(lambda: cat0_check(space, x, y, z, resolution=resolution,
                                                tol=-1.0)),
                    _outcome(lambda: slim_check(space, x, y, z, 1e-3, resolution=resolution)))

        with mock.patch.object(metriclab, "_BLOCK_CELLS", cells), \
                mock.patch.object(metriclab, "_TILE", tile):
            scanned = run()
            deviation = _outcome(lambda: geodesic_deviation(space, x, z, resolution=resolution))
        with mock.patch.object(metriclab, "_cat0_scan", full_cat0_scan), \
                mock.patch.object(metriclab, "_slim_scan", six_matrix_slim_scan):
            assert scanned == run()
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


def _full_outcomes(space, x, y, z, resolution):
    """cat0_check and slim_check outcomes from the full reference scans."""
    with mock.patch.object(metriclab, "_cat0_scan", full_cat0_scan), \
            mock.patch.object(metriclab, "_slim_scan", six_matrix_slim_scan):
        return (_outcome(lambda: cat0_check(space, x, y, z, resolution=resolution, tol=-1.0)),
                _outcome(lambda: slim_check(space, x, y, z, 1e-3, resolution=resolution)))


class TestTiledScanFallbacks:
    """Where the tile bounds do not hold, or a NaN makes the pick depend on
    the scan order, the scans keep the results of the full scans."""

    @pytest.mark.parametrize("tile", [1, 3])
    def test_euclidean_plane_has_no_projection(self, tile):
        # no bounds: each row is scanned against every tile from its own on
        # (after the three arc rows and the first tile), and each sample
        # against both other sides
        space = euclidean_plane()
        assert space.proj is None and space.weights is None
        counted, shapes = _counting(space)
        x, y, z = 0j, 1 + 0.25j, 0.5 + 0.75j
        n = 21
        with mock.patch.object(metriclab, "_TILE", tile), \
                mock.patch.object(metriclab, "_BLOCK_CELLS", 1):
            cat0 = _outcome(lambda: cat0_check(counted, x, y, z, resolution=20, tol=-1.0))
            assert shapes == ([(1, n)] * 3 + [(tile, tile)]
                              + [(1, 3 * n - i // tile * tile) for i in range(3 * n)])
            shapes.clear()
            slim = _outcome(lambda: slim_check(counted, x, y, z, 1e-3, resolution=20))
            assert shapes[:3 * n] == [(1, 2 * n)] * (3 * n)
        assert (cat0, slim) == _full_outcomes(space, x, y, z, 20)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("tile", [1, 3])
    @pytest.mark.parametrize("vertices", [
        (-1e308 + 0j, 1e308 + 0j, 0.5e308j),
        (-0.9e308 + 0j, 0.95e308 + 1j, 0.5e308 + 0.5e308j),
        (-1e308 - 1e308j, 1.0 + 0j, 1e308 + 1e308j),
        (0j, 1.7e308 + 0j, 0.6e308j),
    ])
    def test_c_orbit_near_overflow(self, tile, vertices):
        space = c_orbit_space()
        ts = metriclab.sample_params(16)
        pts = np.concatenate([space.path(a, b, ts)
                              for a, b in metriclab._sides(space.coords(*vertices))])
        # the coordinates are finite, but their distances overflow
        assert np.isfinite(pts).all() and np.isinf(space.pairwise(pts, pts)).any()
        with mock.patch.object(metriclab, "_TILE", tile):
            outcomes = (_outcome(lambda: cat0_check(space, *vertices, resolution=16, tol=-1.0)),
                        _outcome(lambda: slim_check(space, *vertices, 1e-3, resolution=16)))
        assert outcomes == _full_outcomes(space, *vertices, 16)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("tile", [1, 3])
    def test_nan_bound(self, tile):
        space = c_orbit_space()
        # infinite space and comparison distances between the first two
        # tiles: a NaN bound, and NaN violations inside it
        pts = np.array([[-1e308, 0.0]] * 3 + [[1e308, 0.0]] * 3 + [[0.0, 0.25], [0.5, 0.0]])
        carr = pts[:, 0] + 1j * pts[:, 1]
        with mock.patch.object(metriclab, "_TILE", tile):
            assert metriclab._projected(space, pts, carr) is not None
            got = metriclab._cat0_scan(space, pts, carr)
        assert math.isnan(got[0])
        assert (json.dumps(metriclab.as_jsonable(got))
                == json.dumps(metriclab.as_jsonable(full_cat0_scan(space, pts, carr))))

        # a zero weight times an infinite difference: NaN distances and bounds
        zero = metriclab.linear_sup_space("zero-weight", None, ((1, 0), (0, 1)), (1.0, 0.0),
                                          encode=attrgetter("real", "imag"),
                                          decode=lambda c: complex(*c))
        x, y, z = 0j, 1 + 1e308j, 2 - 1e308j
        ts = metriclab.sample_params(16)
        pts = np.concatenate([zero.path(a, b, ts) for a, b in metriclab._sides(zero.coords(x, y, z))])
        with mock.patch.object(metriclab, "_TILE", tile):
            assert metriclab._projected(zero, pts) is not None
            got = _outcome(lambda: slim_check(zero, x, y, z, 1e-3, resolution=16))
        with mock.patch.object(metriclab, "_slim_scan", six_matrix_slim_scan):
            assert got == _outcome(lambda: slim_check(zero, x, y, z, 1e-3, resolution=16))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("cells", [1, 7 * 123])
    def test_nan_past_the_first_row_block(self, cells):
        # x2 - x4 of every sample is near -7e307 and overflows in some
        # differences: the first NaN in row-major order lies past the first
        # row block, and the scan must not stop at a finite margin before it
        space = kronecker_quotient_space()
        x, y, z = (KroneckerPoint(v) for v in ((1.5, -0.5, 1.55, 5e307), (3.0, 1.25, 3.05, 7e307),
                                                (0.25, 1.0, 0.3, 7e307)))
        with mock.patch.object(metriclab, "_BLOCK_CELLS", cells):
            got = _outcome(lambda: cat0_check(space, x, y, z, resolution=16, tol=-1.0))
        assert math.isnan(json.loads(got)["margin"])
        with mock.patch.object(metriclab, "_cat0_scan", full_cat0_scan):
            assert got == _outcome(lambda: cat0_check(space, x, y, z, resolution=16, tol=-1.0))

    def test_negative_weight_is_not_bounded(self):
        space = metriclab.linear_sup_space("negative", None, ((1, 0), (0, 1)), (1.0, -1.0),
                                           encode=attrgetter("real", "imag"),
                                           decode=lambda c: complex(*c))
        assert metriclab._projected(space, np.zeros((4, 2))) is None


def _counting(space):
    """The handle with its pairwise recording the shape of each block it
    computes."""
    shapes = []

    def pairwise(A, B):
        shapes.append((len(A), len(B)))
        return space.pairwise(A, B)

    return replace(space, pairwise=pairwise), shapes


def _cells(shapes):
    return sum(rows * cols for rows, cols in shapes)


# the c-orbit triangles of the corbit-cat0-violation and corbit-slim-violation
# fixtures, which perfbench scales
_CAT0_TRIANGLE = (0j, 2 + 0j, complex(1.0, 1.0 / math.pi))
_SLIM_TRIANGLE = (0j, 4 + 0j, 4j / math.pi)


class TestTiledScanCost:
    """The pruning and the memory bound of the tiled scans, pinned."""

    def test_scans_skip_most_cells(self):
        resolution = 2048
        n = resolution + 1
        upper_cat0 = sum(len(range(3 * n)[rows]) * (3 * n - rows.start)
                         for rows in metriclab._row_blocks(3 * n, 3 * n))
        space, shapes = _counting(c_orbit_space())
        cert = cat0_check(space, *_CAT0_TRIANGLE, resolution=resolution)
        assert cert.margin == pytest.approx(1.0, rel=1e-7)
        assert _cells(shapes) < 0.05 * upper_cat0

        space, shapes = _counting(c_orbit_space())
        cert = slim_check(space, *_SLIM_TRIANGLE, 1.0, resolution=resolution)
        assert cert.margin == pytest.approx(1.0, abs=1e-12)
        assert _cells(shapes) < 0.05 * 3 * n * n

    def test_memory_bound_at_max_resolution(self):
        space = c_orbit_space()
        peaks = []
        for check in (lambda: cat0_check(space, *_CAT0_TRIANGLE,
                                         resolution=metriclab.MAX_RESOLUTION),
                      lambda: slim_check(space, *_SLIM_TRIANGLE, 1.0,
                                         resolution=metriclab.MAX_RESOLUTION)):
            tracemalloc.start()
            try:
                assert check() is not None
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 16 * 2 ** 20

    @pytest.mark.parametrize("index", range(6))
    def test_pairwise_on_slices_is_sliced_pairwise(self, index):
        # the tile bounds are exact because a cell does not depend on
        # which other rows share its pairwise call
        space = _all_handles()[index]
        rng = np.random.default_rng([index, 20])
        a, b = (space.coords(*(_model_point(space, tuple(rng.uniform(-3.0, 3.0, 4)))
                               for _ in range(count))) for count in (70, 45))
        whole = space.pairwise(a, b)
        for s, t in ((slice(3, 17), slice(0, 45)), (slice(64, 70), slice(5, 29)),
                     (rng.permutation(70)[:20], np.sort(rng.choice(45, 12, replace=False)))):
            assert np.array_equal(space.pairwise(a[s], b[t]), whole[s][:, t])


# coordinates near overflow: infinite distances and NaN deviations
_WIDE_COORD = st.one_of(_COORD, st.sampled_from((-1e308, 1e308, 0.7e308)))


def _wide_point(space, v):
    """``_model_point`` on coordinates that may be near overflow; a
    Kronecker point's first coordinate is clipped so that it keeps its
    strip gap."""
    if "kronecker" in space.name:
        v = (min(max(v[0], -3.0), 3.0),) + tuple(v[1:])
    return _model_point(space, v)


def _deviations(space, vertices, resolution):
    """geodesic_deviation on the handle, and on the same handle without its
    projection, where every block comes from ``pairwise``, as JSON text."""
    unprojected = replace(space, proj=None, weights=None)
    return [_outcome(lambda: geodesic_deviation(s, *(_wide_point(s, v) for v in vertices),
                                                resolution=resolution))
            for s in (space, unprojected)]


@st.composite
def _near_tie_pair(draw):
    """Endpoints whose coordinates move by nearly one step: the same step,
    its negative, the step a few ulp off, no step, or a copy of
    coordinate 0, so that projection rows tie or almost tie."""
    x = list(draw(st.tuples(*[_COORD] * 4)))
    step = draw(st.one_of(_COORD, st.floats(1e-8, 1e8), st.floats(-1e8, -1e-8)))
    y = []
    for k in range(4):
        kind = draw(st.sampled_from(("same", "negated", "ulps", "flat", "copy")))
        if kind == "copy":
            x[k] = x[0]
            y.append(y[0] if k else x[0] + step)
            continue
        ulps = draw(st.integers(-4, 4))
        move = {"same": step, "negated": -step, "ulps": step * (1.0 + ulps * 2.0 ** -52),
                "flat": 0.0}[kind]
        y.append(x[k] + move)
    return tuple(x), tuple(y)


@st.composite
def _tied_rows(draw):
    """Rows of samples whose steps tie or nearly tie: an increasing row and
    copies of it, maybe negated, shifted by an offset and then by a few
    ulp at each sample."""
    n = draw(st.integers(2, 8))
    base = np.sort(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    rows = [base]
    for _ in range(draw(st.integers(1, 3))):
        ulps = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
        row = base + draw(st.sampled_from((0.0, 0.5, -1.25)))
        rows.append(draw(st.sampled_from((1.0, -1.0))) * (row + ulps * np.spacing(row)))
    return np.array(rows)


def _sup_cells(a, weights, rows):
    """``_sup_into`` of the rows of a against themselves."""
    out = np.empty((a.shape[1],) * 2)
    return metriclab._sup_into(a[rows], a[rows], weights[rows], out, np.empty_like(out))


def _projected_rows(space, x, y, resolution):
    """The projected samples (m, N) of the segment from x to y, and the
    rows of them that ``geodesic_deviation`` scans."""
    pts = space.path(*space.coords(x, y), metriclab.sample_params(resolution))
    a = np.ascontiguousarray((pts @ space.proj).T)
    return a, metriclab._attaining_rows(a, space.weights)


def _strip_image(z):
    """perfbench's isometric image of a c-orbit point in the Kronecker strip."""
    return KroneckerPoint((z.real, math.pi * z.imag, z.real + 0.5, math.pi * z.imag))


class TestAttainingRows:
    """geodesic_deviation scans only the projection rows that can set the
    maximum in some cell: equal rows once, and no row whose every step is
    below the leading row's."""

    def test_one_dominant_coordinate_keeps_one_row(self):
        # rows 0 and 2, and 1 and 3, are equal; row 1 moves half as fast as row 0
        _, keep = _projected_rows(r4_space(), (0, 0, 0, 0), (1, 0.5, 1, 0.5), 8192)
        assert keep == [0]

    def test_equal_rows_collapse(self):
        row = [0.0, 1.0, 0.5, 2.0]  # steps of both signs: no row dominates
        a = np.array([row, row, [0.0, 0.3, 0.1, 0.2], row])
        assert metriclab._attaining_rows(a, np.ones(4)) == [0, 2]
        assert metriclab._attaining_rows(a, np.array([1.0, 2.0, 1.0, 1.0])) == [0, 1, 2]

    def test_equal_slopes_at_other_offsets_keep_both_rows(self):
        # the re rows have one slope and offsets 0.5 apart; the im rows collapse
        x, y = _strip_image(0.3 - 0.1j), _strip_image(-1.8 + 0.2j)
        _, keep = _projected_rows(kronecker_space(), x, y, 2048)
        assert keep == [0, 2]

    def test_corbit_keeps_both_rows(self):
        _, keep = _projected_rows(c_orbit_space(), 0j, 5 + 0.1j, 512)
        assert keep == [0, 1]

    def test_steps_that_tie_in_floats_keep_their_rows(self):
        # row 1's steps round to row 0's, but its whole span rounds higher
        a = np.array([[-0.17512090900347888, 0.18017658012037363, 0.6944308506299652],
                      [-0.17512090900347885, 0.18017658012037369, 0.6944308506299653]])
        assert np.array_equal(np.diff(a[0]), np.diff(a[1]))
        assert a[1, 2] - a[1, 0] > a[0, 2] - a[0, 0]
        assert metriclab._attaining_rows(a, np.ones(2)) == [0, 1]

    def test_infinite_weight_keeps_every_row(self):
        # row 1 times an infinite weight is NaN where its ends meet, row 0 inf
        a = np.array([[0.0, 1.0, 2.0], [0.0, 0.5, 0.0]])
        assert metriclab._attaining_rows(a, np.ones(2)) == [0]
        assert metriclab._attaining_rows(a, np.full(2, math.inf)) == [0, 1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nan_or_inf_row_keeps_every_row(self, bad):
        a = np.array([[0.0, 1.0, 2.0], [0.0, 0.5, 1.0], [0.0, bad, 2.0]])
        assert metriclab._attaining_rows(a, np.ones(3)) == [0, 1, 2]
        a[2] = bad
        assert metriclab._attaining_rows(a, np.ones(3)) == [0, 1, 2]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 40),
           st.one_of(st.tuples(*[st.tuples(*[_WIDE_COORD] * 4)] * 2), _near_tie_pair()))
    def test_kept_rows_give_every_cell(self, index, resolution, vertices):
        space = _linear_handles()[index][0]
        a, keep = _projected_rows(space, *(_wide_point(space, v) for v in vertices), resolution)
        assert np.array_equal(_sup_cells(a, space.weights, keep),
                              _sup_cells(a, space.weights, list(range(len(a)))), equal_nan=True)

    @settings(max_examples=500, deadline=None)
    @given(_tied_rows(), st.sampled_from((1.0, math.pi)))
    def test_kept_rows_give_every_cell_of_tied_rows(self, a, weight):
        weights = np.full(len(a), weight)
        keep = metriclab._attaining_rows(a, weights)
        assert np.array_equal(_sup_cells(a, weights, keep),
                              _sup_cells(a, weights, list(range(len(a)))))

    def test_bench_kronecker_pair_scans_one_row(self, monkeypatch):
        # the im rows lead; the re rows move slower at every step
        x, y = _strip_image(0.3 - 0.7j), _strip_image(-1.1 + 0.4j)
        space = kronecker_space()
        scanned = []
        sup_into = metriclab._sup_into

        def spy(a, b, weights, out, scratch):
            scanned.append(len(weights))
            return sup_into(a, b, weights, out, scratch)

        monkeypatch.setattr(metriclab, "_sup_into", spy)
        deviation = geodesic_deviation(space, x, y, resolution=2048)
        assert scanned and set(scanned) == {1}
        monkeypatch.undo()
        assert deviation == full_geodesic_deviation(space, x, y, 2048)


class TestProjectedDeviation:
    """On a linear sup-space geodesic_deviation projects the samples once,
    keeps the rows that can attain the maximum, and accumulates each row
    block in two reused buffers; its deviations are those of the
    ``pairwise`` blocks, NaN included, bit for bit."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=250, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 300),
           st.one_of(st.tuples(*[st.tuples(*[_WIDE_COORD] * 4)] * 2), _near_tie_pair()),
           st.sampled_from((1, 7 * 123, metriclab._BLOCK_CELLS)))
    def test_projected_blocks_equal_pairwise_blocks(self, index, resolution, vertices, cells):
        space = _linear_handles()[index][0]
        with mock.patch.object(metriclab, "_BLOCK_CELLS", cells):
            projected, unprojected = _deviations(space, vertices, resolution)
        assert projected == unprojected

    def test_kronecker_at_2048(self):
        vertices = ((0.3, -1.2, 0.9, 0.4), (-1.1, 0.8, -0.6, 1.3))
        projected, unprojected = _deviations(kronecker_space(), vertices, 2048)
        assert projected == unprojected
        assert float(projected) <= 1e-12

    def test_r4_at_8192(self):
        # duplicated rows and one dominant row: one row is scanned
        projected, unprojected = _deviations(r4_space(), ((0, 0, 0, 0), (1, 0.5, 1, 0.5)), 8192)
        assert projected == unprojected
        assert float(projected) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_distance_is_kept(self):
        # a zero weight times an infinite difference: NaN distances far from
        # the diagonal, though d(x, y) is finite
        zero = metriclab.linear_sup_space("zero-weight", lambda p, q: abs((p - q).real),
                                          ((1, 0), (0, 1)), (1.0, 0.0),
                                          encode=attrgetter("real", "imag"),
                                          decode=lambda c: complex(*c))
        deviations = [geodesic_deviation(s, -1e308j, 1 + 1e308j, resolution=300)
                      for s in (zero, replace(zero, proj=None, weights=None))]
        assert all(math.isnan(d) for d in deviations)

    @pytest.mark.parametrize("index", range(5))
    def test_linear_handles_do_not_call_pairwise(self, index):
        space, sample, _ = _linear_handles()[index]
        counted, shapes = _counting(space)
        rng = np.random.default_rng([index, 21])
        assert geodesic_deviation(counted, sample(rng), sample(rng), resolution=300) <= 1e-12
        assert shapes == []

    @pytest.mark.parametrize("cells", [7 * 123, metriclab._BLOCK_CELLS])
    @pytest.mark.parametrize("make_space", [euclidean_plane, _quarter_arc])
    def test_other_handles_call_pairwise_once_per_row_block(self, monkeypatch, make_space,
                                                            cells):
        monkeypatch.setattr(metriclab, "_BLOCK_CELLS", cells)
        counted, shapes = _counting(make_space())
        geodesic_deviation(counted, 1 + 0j, 1j, resolution=300)
        assert shapes == [(len(range(301)[rows]), 301 - rows.start)
                          for rows in metriclab._row_blocks(301, 301)]


class TestAsJsonable:
    def test_nested_containers_become_json(self):
        value = {"a": [1 + 2j, {"b": np.float64(0.5)}], "c": (np.int64(3), np.bool_(True))}
        assert metriclab.as_jsonable(value) == {"a": [[1.0, 2.0], {"b": 0.5}], "c": [3, True]}

    def test_unknown_object_rejected(self):
        with pytest.raises(TypeError):
            metriclab.as_jsonable(object())
