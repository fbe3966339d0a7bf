"""Generic metric-space property checkers with reproducible certificates.

A space is handed over as a ``SpaceHandle`` on coordinate arrays.  The
checkers encode their vertices once into rows of an (N, n) float array,
sample each side with one ``path`` call, take every distance they
sample from ``pairwise`` matrices scanned in row blocks (never held
whole), each symmetric pair once, and decode only the witnesses back
into model points.  They compare sampled geodesic triangles against
Euclidean comparison triangles (CAT(0)), test Gromov slimness, and
certify non-unique geodesics.  A certificate stores the witnesses, the margin, and the
sampling parameters, so a second implementation can re-derive the
margin from the same data.

Every bundled space but the Euclidean plane is one linear sup-space:
coordinates x in R^n, straight lines as geodesics, and the metric
max_k w_k |L_k (x - y)| (``linear_sup_space``); ``dist`` stays each
model's own closed form.  Kronecker points hold the strip by construction.

    handle               rows L                     weights w
    c-orbit              I_2 on (Re, Im)            (1, pi)
    r4-sup               I_4                        1
    kronecker            I_4                        1
    r4-quotient          rows 3-4 of I_4            1/2
    kronecker-quotient   [[1,0,-1,0],[0,1,0,-1]]    1/2
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from operator import attrgetter
from typing import Callable, Optional

import numpy as np

from .errors import BadSideLengths, DegenerateBase, RejectNotAdditive, RejectOnGeodesic
from .quotient import QuotPoint, dprime, quot_dist_closed, kron_quot_closed
from .stabmodel import KroneckerPoint, c_orbit_distance, d_B_closed

CAT0_VIOLATION = "cat0-violation"
SLIM_VIOLATION = "slim-violation"
NONUNIQUE_GEODESIC = "nonunique-geodesic"
_SIDE_NAMES = ("xy", "yz", "zx")
_BLOCK_CELLS = 1 << 16  # cells per scanned row block; 512 KiB of floats stays in cache
_ADDITIVITY_TOL = 1e-12  # non-unique geodesic: |d(x,z) + d(z,y) - d(x,y)| bound
_CLEARANCE_TOL = 1e-9  # non-unique geodesic: least distance of z from [x, y]
MAX_RESOLUTION = 8192  # 4x the largest benchmarked resolution; cat0_check takes seconds here


def straight_path(a: np.ndarray, b: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Rows (1 - t) a + t b, one per parameter t: the straight segment."""
    return (1.0 - ts[:, None]) * a + ts[:, None] * b


@dataclass(frozen=True)
class SpaceHandle:
    """A metric space presented on coordinate arrays.

    ``encode`` maps a point to its coordinates in R^n and ``decode`` maps
    a list of coordinates back to a point; the checkers decode only
    their witnesses.  ``pairwise(A, B)`` is the
    matrix of distances between the rows of two coordinate arrays, and
    ``path(a, b, ts)`` samples the geodesic from coordinates a to b at
    the parameters ts in [0, 1], one row per parameter.  ``dist`` is the
    model's own closed form on points, which ``pairwise`` reproduces.
    """

    name: str
    dist: Callable
    pairwise: Callable
    encode: Callable
    decode: Callable
    path: Callable = straight_path

    def coords(self, *points) -> np.ndarray:
        """The (N, n) coordinate array of the given points."""
        return np.array([self.encode(p) for p in points], dtype=float)


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


def as_jsonable(value):
    """Serialize points and numbers from any of the bundled models, and
    the lists, tuples and dicts that hold them, as JSON values.  A
    dataclass instance is serialized field by field; anything else is a
    TypeError."""
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
    if isinstance(value, dict):
        return {k: as_jsonable(v) for k, v in value.items()}
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: as_jsonable(getattr(value, f.name)) for f in fields(value)}
    raise TypeError(f"cannot serialize {type(value).__name__} as JSON")


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


def sample_params(resolution: int) -> np.ndarray:
    """The parameters i / resolution, i = 0..resolution, at which the
    checkers sample a side."""
    if not 1 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be in 1..{MAX_RESOLUTION}, got {resolution!r}")
    return np.arange(resolution + 1) / resolution


def _row_blocks(n_rows: int, n_cols: int) -> list:
    """Row slices that cut an (n_rows, n_cols) matrix into blocks of about
    _BLOCK_CELLS cells, so a scan never holds the whole matrix."""
    step = max(1, _BLOCK_CELLS // max(n_cols, 1))
    return [slice(r, r + step) for r in range(0, n_rows, step)]


def _sides(vertices) -> list:
    """The sides xy, yz, zx of a triangle as (start, end) pairs."""
    return [(vertices[k], vertices[(k + 1) % 3]) for k in range(3)]


def cat0_check(space: SpaceHandle, x, y, z, *, resolution: int = 512,
               tol: float = 1e-9, seed: int = 0) -> Optional[TriangleCertificate]:
    """Compare a sampled geodesic triangle against its Euclidean comparison
    triangle; returns the maximal thin-triangle violation if above tol.

    Comparison points are matched by arclength from the first-named
    vertex of each side.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")
    ts = sample_params(resolution)
    sides = _sides(space.coords(x, y, z))
    lengths = tuple(space.dist(p0, p1) for p0, p1 in _sides((x, y, z)))
    corners = [complex(*p) for p in comparison_triangle(*lengths)]
    sampled = [space.path(a, b, ts) for a, b in sides]
    comp = []
    for (a, _), (e0, e1), length, pts in zip(sides, _sides(corners), lengths, sampled):
        arc = space.pairwise(a[None], pts)[0]
        s = arc / length if length > 0.0 else np.zeros_like(arc)
        comp.append(e0 + s * (e1 - e0))

    pts = np.concatenate(sampled)
    carr = np.concatenate(comp)
    margin, i, j, d_ij, e_ij = _cat0_scan(space, pts, carr)
    if margin <= tol:
        return None
    n = len(ts)
    witness = {
        "p": space.decode(pts[i].tolist()),
        "q": space.decode(pts[j].tolist()),
        "p_side": _SIDE_NAMES[i // n],
        "q_side": _SIDE_NAMES[j // n],
        "p_t": float(ts[i % n]),
        "q_t": float(ts[j % n]),
        "p_comparison": carr[i],
        "q_comparison": carr[j],
        "space_distance": d_ij,
        "comparison_distance": e_ij,
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


def _cat0_scan(space: SpaceHandle, pts: np.ndarray, carr: np.ndarray) -> tuple:
    """The first maximum in row-major order of d(p_i, p_j) - |c_i - c_j| over
    the sampled points p and their comparison points c, as (margin, i, j,
    space distance, comparison distance).  Both matrices are exactly
    symmetric, so that cell lies in the upper block triangle, and only
    that triangle is scanned: row block ``rows`` against the columns
    ``rows.start:``."""
    best = None
    for rows in _row_blocks(len(pts), len(pts)):
        cols = slice(rows.start, None)
        dmat = space.pairwise(pts[rows], pts[cols])
        emat = np.abs(carr[rows, None] - carr[None, cols])
        viol = dmat - emat
        i, j = np.unravel_index(int(np.argmax(viol)), viol.shape)
        if best is None or viol[i, j] > best[0]:
            best = (float(viol[i, j]), rows.start + i, rows.start + j,
                    float(dmat[i, j]), float(emat[i, j]))
    return best


def _slim_scan(space: SpaceHandle, sampled: list) -> list:
    """For each sampled side, the distances of its samples to the samples
    of the other two sides.  The matrix of side k against side k + 1 is
    scanned once: its row minima are side k's distances to side k + 1,
    and its column minima side k + 1's distances to side k, since
    pairwise(B, A) is pairwise(A, B) transposed."""
    n = len(sampled[0])
    to_next, to_prev = [], []
    for k in range(3):
        row_mins, col_mins = [], np.inf
        for rows in _row_blocks(n, n):
            dmat = space.pairwise(sampled[k][rows], sampled[(k + 1) % 3])
            row_mins.append(dmat.min(axis=1))
            col_mins = np.minimum(col_mins, dmat.min(axis=0))
        to_next.append(np.concatenate(row_mins))
        to_prev.append(col_mins)
    return [np.minimum(to_next[k], to_prev[k - 1]) for k in range(3)]


def _dist_to_side(space: SpaceHandle, point: np.ndarray, a: np.ndarray, b: np.ndarray,
                  ts: np.ndarray, refine_rounds: int = 1) -> float:
    """Distance from a point to the side a -> b sampled at ts, tightened by
    200-step passes around each argmin; all arguments are coordinates."""
    best = math.inf
    grid = ts
    for _ in range(refine_rounds + 1):
        row = space.pairwise(point[None], space.path(a, b, grid))[0]
        j = int(np.argmin(row))
        best = min(best, float(row[j]))
        lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)]
        grid = lo + (hi - lo) * np.arange(201) / 200
    return best


def _dist_to_other_sides(space: SpaceHandle, point: np.ndarray, vertices: np.ndarray,
                         side: int, ts: np.ndarray) -> float:
    """Distance from a point to the union of the two triangle sides other
    than ``side`` (an index into _SIDE_NAMES)."""
    sides = _sides(vertices)
    return min(_dist_to_side(space, point, *sides[(side + 1) % 3], ts),
               _dist_to_side(space, point, *sides[(side + 2) % 3], ts))


def slim_check(space: SpaceHandle, x, y, z, delta: float, *, resolution: int = 512,
               seed: int = 0) -> Optional[TriangleCertificate]:
    """Find a sampled point of one side farther than delta from the union
    of the other two sides; returns the maximal such witness or None.

    Set distances are approximated from side samples and tightened by one
    local refinement pass around the witness.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    ts = sample_params(resolution)
    vertices = space.coords(x, y, z)
    sampled = [space.path(a, b, ts) for a, b in _sides(vertices)]

    best = None  # (min_dist, side_idx, sample_idx)
    for idx, mins in enumerate(_slim_scan(space, sampled)):
        i = int(np.argmax(mins))
        if best is None or mins[i] > best[0]:
            best = (float(mins[i]), idx, i)

    _, idx, i = best
    refined = _dist_to_other_sides(space, sampled[idx][i], vertices, idx, ts)
    margin = refined - delta
    if margin <= 0.0:
        return None
    witness = {
        "point": space.decode(sampled[idx][i].tolist()),
        "side": _SIDE_NAMES[idx],
        "t": float(ts[i]),
        "min_distance": refined,
    }
    return TriangleCertificate(
        kind=SLIM_VIOLATION,
        space=space.name,
        vertices=(x, y, z),
        witness=witness,
        margin=margin,
        resolution=resolution,
        seed=seed,
        params={"delta": delta},
    )


def nonunique_geodesic_check(space: SpaceHandle, x, z, y, *, resolution: int = 512,
                             seed: int = 0) -> TriangleCertificate:
    """Certify that x -> z -> y is a second geodesic from x to y.

    Requires d(x,z) + d(z,y) = d(x,y) within _ADDITIVITY_TOL and z farther
    than _CLEARANCE_TOL from the handle's geodesic [x, y]; the
    concatenated path is then a geodesic distinct from [x, y], so the
    space is not uniquely geodesic (and in particular not CAT(0)).
    """
    ts = sample_params(resolution)
    d_xz = space.dist(x, z)
    d_zy = space.dist(z, y)
    d_xy = space.dist(x, y)
    residual = abs(d_xz + d_zy - d_xy)
    if residual > _ADDITIVITY_TOL:
        raise RejectNotAdditive(f"additivity residual {residual!r} exceeds {_ADDITIVITY_TOL!r}")
    clearance = _dist_to_side(space, *space.coords(z, x, y), ts, refine_rounds=2)
    if clearance <= _CLEARANCE_TOL:
        raise RejectOnGeodesic(f"midpoint clearance {clearance!r} is below {_CLEARANCE_TOL!r}")
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
        params={"additivity_tol": _ADDITIVITY_TOL, "clearance_tol": _CLEARANCE_TOL},
    )


def geodesic_deviation(space: SpaceHandle, x, y, *, resolution: int = 256) -> float:
    """Max over sampled parameter pairs of |d(p(t), p(t')) - |t - t'| d(x, y)|."""
    ts = sample_params(resolution)
    d_xy = space.dist(x, y)
    pts = space.path(*space.coords(x, y), ts)
    # both matrices are symmetric: the upper block triangle holds the maximum
    return float(np.max([np.max(np.abs(space.pairwise(pts[rows], pts[rows.start:])
                                       - np.abs(ts[rows, None] - ts[None, rows.start:]) * d_xy))
                         for rows in _row_blocks(len(ts), len(ts))]))


def verify_certificate(space: SpaceHandle, cert: TriangleCertificate) -> float:
    """Recompute a certificate's margin from its stored witnesses."""
    if cert.kind == CAT0_VIOLATION:
        d = space.dist(cert.witness["p"], cert.witness["q"])
        e = abs(cert.witness["p_comparison"] - cert.witness["q_comparison"])
        return d - e
    if cert.kind == SLIM_VIOLATION:
        refined = _dist_to_other_sides(
            space, space.coords(cert.witness["point"])[0], space.coords(*cert.vertices),
            _SIDE_NAMES.index(cert.witness["side"]), sample_params(cert.resolution))
        return refined - cert.params["delta"]
    if cert.kind == NONUNIQUE_GEODESIC:
        x, z, y = cert.vertices
        return _dist_to_side(space, *space.coords(z, x, y), sample_params(cert.resolution),
                             refine_rounds=2)
    raise ValueError(f"unknown certificate kind {cert.kind!r}")


# ---------------------------------------------------------------------------
# Handles for the bundled models.  Points are complex numbers for planar
# spaces, 4-tuples for the R^4 model, and the model's own types otherwise.

def euclidean_plane() -> SpaceHandle:
    """The plane with points as complex numbers, coordinates (Re, Im)."""
    def pairwise(A, B):
        a, b = (np.ascontiguousarray(M, dtype=float).view(complex)[:, 0] for M in (A, B))
        return np.abs(a[:, None] - b[None, :])

    return SpaceHandle(name="euclidean-plane", dist=lambda p, q: abs(p - q),
                       pairwise=pairwise, encode=attrgetter("real", "imag"),
                       decode=lambda c: complex(*c))


def linear_sup_space(name: str, dist: Callable, rows, weights, encode: Callable,
                     decode: Callable) -> SpaceHandle:
    """Handle for the metric max_k w_k |L_k (x - y)| on coordinates x in R^n,
    whose straight lines are geodesics.

    ``rows`` is the projection L (one row per k), ``weights`` the w_k (a
    number applies to every row).  ``encode`` maps a point to its
    coordinates and ``decode`` maps coordinates back to a point.
    ``dist`` is the model's own closed form, which the matrix from
    ``pairwise`` reproduces; the matrix is accumulated one row of L at a
    time, so at most two (N, M) arrays are alive.
    """
    proj = np.array(rows, dtype=float).T
    w = np.broadcast_to(np.asarray(weights, dtype=float), len(rows))

    def pairwise(A, B):
        a = A @ proj
        b = a if B is A else B @ proj
        out = None
        for k, wk in enumerate(w):
            d = np.subtract.outer(a[:, k], b[:, k])
            np.abs(d, out=d)
            if wk != 1.0:
                d *= wk
            out = d if out is None else np.maximum(out, d, out=out)
        return out

    return SpaceHandle(name=name, dist=dist, pairwise=pairwise, encode=encode, decode=decode)


_I4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def c_orbit_space() -> SpaceHandle:
    """Translation orbit of a stability condition, coordinates (Re, Im)."""
    return linear_sup_space("c-orbit", c_orbit_distance, ((1, 0), (0, 1)), (1.0, math.pi),
                            encode=attrgetter("real", "imag"), decode=lambda c: complex(*c))


def r4_space() -> SpaceHandle:
    return linear_sup_space("r4-sup", dprime, _I4, 1.0, encode=tuple, decode=tuple)


def quotient_r4_space() -> SpaceHandle:
    """R^4 orbits under the translation action; geodesics are quotients of
    straight lines between canonical representatives."""
    return linear_sup_space("r4-quotient", quot_dist_closed, _I4[2:], 0.5,
                            encode=attrgetter("rep"), decode=QuotPoint)


def kronecker_space(l: int = 3) -> SpaceHandle:
    """Strip of the l-Kronecker quiver with the closed-form Bridgeland
    metric; straight coordinate lines are geodesics and stay inside the
    strip.  Witnesses are decoded as points with arrow count l."""
    return linear_sup_space("kronecker", d_B_closed, _I4, 1.0, encode=attrgetter("x"),
                            decode=lambda x: KroneckerPoint(x, l))


def kronecker_quotient_space() -> SpaceHandle:
    """Kronecker strip modulo the translation action, with orbits named by
    representative points; distances use the attained infimum."""
    return linear_sup_space("kronecker-quotient", kron_quot_closed,
                            ((1, 0, -1, 0), (0, 1, 0, -1)), 0.5,
                            encode=attrgetter("x"), decode=KroneckerPoint)
