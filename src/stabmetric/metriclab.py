"""Generic metric-space property checkers with reproducible certificates.

A space is handed over as a distance function plus a geodesic chooser;
the checkers sample geodesic triangles, compare against Euclidean
comparison triangles (CAT(0)), test Gromov slimness, and certify
non-unique geodesics.  A certificate stores the witnesses, the margin,
and the sampling parameters, so a second implementation can re-derive
the margin from the same data.

Every bundled space but the Euclidean plane is one linear sup-space:
coordinates x in R^n, straight lines as geodesics, and the metric
max_k w_k |L_k (x - y)| (``linear_sup_space``); ``dist`` stays each
model's own closed form.

    handle               rows L                     weights w
    c-orbit              I_2 on (Re, Im)            (1, pi)
    r4-sup               I_4                        1
    kronecker            I_4 (strip checked)        1
    r4-quotient          rows 3-4 of I_4            1/2
    kronecker-quotient   [[1,0,-1,0],[0,1,0,-1]]    1/2
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional

import numpy as np

from .errors import BadSideLengths, DegenerateBase, RejectNotAdditive, RejectOnGeodesic
from .quotient import QuotPoint, dprime, quot_dist_closed, kron_quot_closed
from .stabmodel import KroneckerPoint, c_orbit_distance, d_B_closed

CAT0_VIOLATION = "cat0-violation"
SLIM_VIOLATION = "slim-violation"
NONUNIQUE_GEODESIC = "nonunique-geodesic"


@dataclass(frozen=True)
class SpaceHandle:
    """A metric space presented by callables.

    ``geodesic(x, y)`` returns a path p(t) on [0, 1] with p(0) = x and
    p(1) = y.  ``pairwise`` is an optional vectorized distance matrix for
    lists of points; the checkers fall back to loops without it.
    """

    dist: Callable
    geodesic: Callable
    name: str
    pairwise: Optional[Callable] = None


@dataclass(frozen=True)
class TriangleCertificate:
    """Reproducible witness of a metric-space property violation."""

    kind: str
    space: str
    vertices: tuple
    witness: dict
    margin: float
    resolution: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "space": self.space,
            "vertices": [as_jsonable(v) for v in self.vertices],
            "witness": {k: as_jsonable(v) for k, v in self.witness.items()},
            "margin": self.margin,
            "resolution": self.resolution,
            "seed": self.seed,
            "params": {k: as_jsonable(v) for k, v in self.params.items()},
        }


def as_jsonable(value):
    """Serialize points and numbers from any of the bundled models."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (list, tuple)):
        return [as_jsonable(v) for v in value]
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return repr(value)


def comparison_triangle(a: float, b: float, c: float):
    """Euclidean triangle with side lengths a = |xy|, b = |yz|, c = |zx|.

    Returns planar points x = (0,0), y = (a,0) and z with nonnegative
    second coordinate; collinear (degenerate) triangles are allowed.
    """
    slack = 1e-12 * max(a, b, c, 1.0)
    if min(a, b, c) < 0.0:
        raise BadSideLengths("side lengths must be nonnegative")
    if a == 0.0:
        if abs(b - c) > slack:
            raise DegenerateBase("zero base with unequal legs")
        return (0.0, 0.0), (0.0, 0.0), (c, 0.0)
    if a > b + c + slack or b > c + a + slack or c > a + b + slack:
        raise BadSideLengths(f"sides ({a}, {b}, {c}) violate a triangle inequality")
    t = (a * a + c * c - b * b) / (2.0 * a)
    h2 = c * c - t * t
    h = math.sqrt(h2) if h2 > 0.0 else 0.0
    return (0.0, 0.0), (a, 0.0), (t, h)


def _pairwise(space: SpaceHandle, ps, qs) -> np.ndarray:
    if space.pairwise is not None:
        return np.asarray(space.pairwise(ps, qs), dtype=float)
    return np.array([[space.dist(p, q) for q in qs] for p in ps], dtype=float)


def _sample_side(space: SpaceHandle, p0, p1, resolution: int):
    geo = space.geodesic(p0, p1)
    ts = [i / resolution for i in range(resolution + 1)]
    return ts, [geo(t) for t in ts]


def cat0_check(space: SpaceHandle, x, y, z, *, resolution: int = 512,
               tol: float = 1e-9, seed: int = 0) -> Optional[TriangleCertificate]:
    """Compare a sampled geodesic triangle against its Euclidean comparison
    triangle; returns the maximal thin-triangle violation if above tol.

    Comparison points are matched by arclength from the first-named
    vertex of each side.
    """
    sides = ((x, y), (y, z), (z, x))
    side_names = ("xy", "yz", "zx")
    lengths = tuple(space.dist(p0, p1) for p0, p1 in sides)
    cx, cy, cz = (complex(*p) for p in comparison_triangle(*lengths))
    comp_ends = ((cx, cy), (cy, cz), (cz, cx))

    pts: list = []
    comp: list[complex] = []
    meta: list[tuple[str, float]] = []
    for (p0, p1), (e0, e1), length, name in zip(sides, comp_ends, lengths, side_names):
        ts, sampled = _sample_side(space, p0, p1, resolution)
        for t, pt in zip(ts, sampled):
            s = space.dist(p0, pt) / length if length > 0.0 else 0.0
            pts.append(pt)
            comp.append(e0 + s * (e1 - e0))
            meta.append((name, t))

    dmat = _pairwise(space, pts, pts)
    carr = np.array(comp, dtype=complex)
    emat = np.abs(carr[:, None] - carr[None, :])
    viol = dmat - emat
    i, j = np.unravel_index(int(np.argmax(viol)), viol.shape)
    margin = float(viol[i, j])
    if margin <= tol:
        return None
    witness = {
        "p": pts[i],
        "q": pts[j],
        "p_side": meta[i][0],
        "q_side": meta[j][0],
        "p_t": meta[i][1],
        "q_t": meta[j][1],
        "p_comparison": carr[i],
        "q_comparison": carr[j],
        "space_distance": float(dmat[i, j]),
        "comparison_distance": float(emat[i, j]),
    }
    return TriangleCertificate(
        kind=CAT0_VIOLATION,
        space=space.name,
        vertices=(x, y, z),
        witness=witness,
        margin=margin,
        resolution=resolution,
        seed=seed,
        params={"tol": tol, "side_lengths": lengths},
    )


def _min_dist_to_side(space: SpaceHandle, point, p0, p1, resolution: int,
                      refine_rounds: int = 1) -> float:
    """Distance from a point to a sampled side, with local refinement
    around the coarse argmin."""
    ts, sampled = _sample_side(space, p0, p1, resolution)
    row = _pairwise(space, [point], sampled)[0]
    j = int(np.argmin(row))
    best = float(row[j])
    lo = ts[max(j - 1, 0)]
    hi = ts[min(j + 1, resolution)]
    geo = space.geodesic(p0, p1)
    for _ in range(refine_rounds):
        fine_ts = [lo + (hi - lo) * i / 200 for i in range(201)]
        fine = [geo(t) for t in fine_ts]
        row = _pairwise(space, [point], fine)[0]
        j = int(np.argmin(row))
        best = min(best, float(row[j]))
        lo = fine_ts[max(j - 1, 0)]
        hi = fine_ts[min(j + 1, 200)]
    return best


def slim_check(space: SpaceHandle, x, y, z, delta: float, *, resolution: int = 512,
               seed: int = 0) -> Optional[TriangleCertificate]:
    """Find a sampled point of one side farther than delta from the union
    of the other two sides; returns the maximal such witness or None.

    Set distances are approximated from side samples and tightened by one
    local refinement pass around the witness.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    vertices = (x, y, z)
    sides = ((x, y), (y, z), (z, x))
    side_names = ("xy", "yz", "zx")
    sampled = [_sample_side(space, p0, p1, resolution) for p0, p1 in sides]

    best = None  # (min_dist, side_idx, sample_idx)
    for idx in range(3):
        _, own = sampled[idx]
        others = sampled[(idx + 1) % 3][1] + sampled[(idx + 2) % 3][1]
        mins = _pairwise(space, own, others).min(axis=1)
        i = int(np.argmax(mins))
        if best is None or mins[i] > best[0]:
            best = (float(mins[i]), idx, i)

    min_dist, idx, i = best
    witness_point = sampled[idx][1][i]
    refined = min(
        _min_dist_to_side(space, witness_point, *sides[(idx + 1) % 3], resolution),
        _min_dist_to_side(space, witness_point, *sides[(idx + 2) % 3], resolution),
    )
    margin = refined - delta
    if margin <= 0.0:
        return None
    witness = {
        "point": witness_point,
        "side": side_names[idx],
        "t": sampled[idx][0][i],
        "min_distance": refined,
    }
    return TriangleCertificate(
        kind=SLIM_VIOLATION,
        space=space.name,
        vertices=vertices,
        witness=witness,
        margin=margin,
        resolution=resolution,
        seed=seed,
        params={"delta": delta},
    )


def nonunique_geodesic_check(space: SpaceHandle, x, z, y, *, resolution: int = 512,
                             additivity_tol: float = 1e-12, clearance_tol: float = 1e-9,
                             seed: int = 0) -> TriangleCertificate:
    """Certify that x -> z -> y is a second geodesic from x to y.

    Requires d(x,z) + d(z,y) = d(x,y) within additivity_tol and z strictly
    off the handle's geodesic [x, y]; the concatenated path is then a
    geodesic distinct from [x, y], so the space is not uniquely geodesic
    (and in particular not CAT(0)).
    """
    d_xz = space.dist(x, z)
    d_zy = space.dist(z, y)
    d_xy = space.dist(x, y)
    residual = abs(d_xz + d_zy - d_xy)
    if residual > additivity_tol:
        raise RejectNotAdditive(f"additivity residual {residual!r} exceeds {additivity_tol!r}")
    clearance = _min_dist_to_side(space, z, x, y, resolution, refine_rounds=2)
    if clearance <= clearance_tol:
        raise RejectOnGeodesic(f"midpoint clearance {clearance!r} is below {clearance_tol!r}")
    witness = {
        "midpoint": z,
        "additivity_residual": residual,
        "clearance": clearance,
        "d_xz": d_xz,
        "d_zy": d_zy,
        "d_xy": d_xy,
    }
    return TriangleCertificate(
        kind=NONUNIQUE_GEODESIC,
        space=space.name,
        vertices=(x, z, y),
        witness=witness,
        margin=clearance,
        resolution=resolution,
        seed=seed,
        params={"additivity_tol": additivity_tol, "clearance_tol": clearance_tol},
    )


def geodesic_deviation(space: SpaceHandle, x, y, *, resolution: int = 256) -> float:
    """Max over sampled parameter pairs of |d(p(t), p(t')) - |t - t'| d(x, y)|."""
    d_xy = space.dist(x, y)
    ts, pts = _sample_side(space, x, y, resolution)
    dmat = _pairwise(space, pts, pts)
    tarr = np.array(ts)
    expected = np.abs(tarr[:, None] - tarr[None, :]) * d_xy
    return float(np.max(np.abs(dmat - expected)))


def verify_certificate(space: SpaceHandle, cert: TriangleCertificate) -> float:
    """Recompute a certificate's margin from its stored witnesses."""
    if cert.kind == CAT0_VIOLATION:
        d = space.dist(cert.witness["p"], cert.witness["q"])
        e = abs(cert.witness["p_comparison"] - cert.witness["q_comparison"])
        return d - e
    if cert.kind == SLIM_VIOLATION:
        x, y, z = cert.vertices
        sides = {"xy": ((y, z), (z, x)), "yz": ((z, x), (x, y)), "zx": ((x, y), (y, z))}
        opp1, opp2 = sides[cert.witness["side"]]
        point = cert.witness["point"]
        refined = min(
            _min_dist_to_side(space, point, *opp1, cert.resolution),
            _min_dist_to_side(space, point, *opp2, cert.resolution),
        )
        return refined - cert.params["delta"]
    if cert.kind == NONUNIQUE_GEODESIC:
        x, z, y = cert.vertices
        return _min_dist_to_side(space, z, x, y, cert.resolution, refine_rounds=2)
    raise ValueError(f"unknown certificate kind {cert.kind!r}")


# ---------------------------------------------------------------------------
# Handles for the bundled models.  Points are complex numbers for planar
# spaces, 4-tuples for the R^4 model, and the model's own types otherwise.

def _lerp_complex(x: complex, y: complex):
    return lambda t: x + t * (y - x)


def euclidean_plane() -> SpaceHandle:
    def pairwise(ps, qs):
        a = np.array(ps, dtype=complex)
        b = np.array(qs, dtype=complex)
        return np.abs(a[:, None] - b[None, :])

    return SpaceHandle(
        dist=lambda p, q: abs(p - q),
        geodesic=_lerp_complex,
        name="euclidean-plane",
        pairwise=pairwise,
    )


def linear_sup_space(name: str, dist: Callable, rows, weights, encode: Callable,
                     decode: Callable, coords: Optional[Callable] = None) -> SpaceHandle:
    """Handle for the metric max_k w_k |L_k (x - y)| on coordinates x in R^n,
    whose straight lines are geodesics.

    ``rows`` is the projection L (one row per k), ``weights`` the w_k (a
    number applies to every row).  ``encode`` maps a point to its
    coordinates and ``decode`` maps coordinates back to a point;
    ``coords`` maps a list of points to an (N, n) array in one step and
    defaults to encoding point by point.  ``dist`` is the model's own
    closed form, which the matrix from ``pairwise`` reproduces.
    """
    proj = np.array(rows, dtype=float).T
    w = np.broadcast_to(np.asarray(weights, dtype=float), len(rows))
    if coords is None:
        def coords(ps):
            return np.array([encode(p) for p in ps], dtype=float)

    def geodesic(x, y):
        ends = tuple(zip(encode(x), encode(y)))

        def path(t):
            s = 1.0 - t
            return decode([s * u + t * v for u, v in ends])

        return path

    def pairwise(ps, qs):
        a = coords(ps) @ proj
        b = a if qs is ps else coords(qs) @ proj
        out = None
        for k, wk in enumerate(w):
            d = np.subtract.outer(a[:, k], b[:, k])
            np.abs(d, out=d)
            if wk != 1.0:
                d *= wk
            out = d if out is None else np.maximum(out, d, out=out)
        return out

    return SpaceHandle(dist=dist, geodesic=geodesic, name=name, pairwise=pairwise)


_I4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def c_orbit_space() -> SpaceHandle:
    """Translation orbit of a stability condition, coordinates (Re, Im)."""
    return linear_sup_space(
        "c-orbit", c_orbit_distance, ((1, 0), (0, 1)), (1.0, math.pi),
        encode=lambda z: (z.real, z.imag), decode=lambda c: complex(*c),
        coords=lambda ps: np.array(ps, dtype=complex).view(float).reshape(-1, 2))


def r4_space() -> SpaceHandle:
    return linear_sup_space("r4-sup", dprime, _I4, 1.0, encode=tuple, decode=tuple)


def quotient_r4_space() -> SpaceHandle:
    """R^4 orbits under the translation action; geodesics are quotients of
    straight lines between canonical representatives."""
    return linear_sup_space("r4-quotient", quot_dist_closed, _I4[2:], 0.5,
                            encode=attrgetter("rep"), decode=QuotPoint)


def kronecker_space(l: int = 3) -> SpaceHandle:
    """Kronecker strip with the closed-form Bridgeland metric; straight
    coordinate lines are geodesics and stay inside the strip."""
    return linear_sup_space("kronecker", d_B_closed, _I4, 1.0, encode=attrgetter("x"),
                            decode=lambda c: KroneckerPoint(c, l))


def kronecker_quotient_space(l: int = 3) -> SpaceHandle:
    """Kronecker strip modulo the translation action, with orbits named by
    representative points; distances use the attained infimum."""
    return linear_sup_space("kronecker-quotient", kron_quot_closed,
                            ((1, 0, -1, 0), (0, 1, 0, -1)), 0.5,
                            encode=attrgetter("x"), decode=lambda c: KroneckerPoint(c, l))
