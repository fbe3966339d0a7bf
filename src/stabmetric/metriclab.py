"""Generic metric-space property checkers with reproducible certificates.

A space is handed over as a ``SpaceHandle`` on coordinate arrays.  The
checkers encode their vertices once into rows of an (N, n) float array,
sample each side with one ``path`` call, take every distance they
sample from ``pairwise`` matrices scanned in row blocks (never held
whole), and decode only the witnesses back into model points.  They
compare sampled geodesic triangles against Euclidean comparison
triangles (CAT(0)), test Gromov slimness, and certify non-unique
geodesics.  A certificate stores the witnesses, the margin, and the
sampling parameters, so a second implementation can re-derive the
margin from the same data.

The CAT(0) and slimness scans first bound, in floats, the distances
between tiles of 64 samples, and skip the tiles that cannot hold the
answer.  On a linear sup-space the bounds come from the handle's
``proj`` and ``weights``; elsewhere, or where a sample is not finite,
a tile's distances lie between 0 and +inf, and no tile is skipped.
Rounding is monotone, so the bounds hold for the computed distances
themselves, and witnesses, margins, the first index among ties and the
first NaN are those of the full scans.  The geodesic check on a linear
sup-space projects its samples once, drops the projection rows that
cannot attain the sup in any cell, and builds each row block with
``pairwise``'s own kernel in two buffers allocated once per call, so
its deviations are the same floats.

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
# cells per scanned row block: 512 KiB of floats, above the allocator's mmap threshold, so
# each fresh block array takes new pages; the geodesic check reuses two such buffers
_BLOCK_CELLS = 1 << 16
_TILE = 64  # samples per tile side in the bounded scans
_ADDITIVITY_TOL = 1e-12  # non-unique geodesic: |d(x,z) + d(z,y) - d(x,y)| bound
_CLEARANCE_TOL = 1e-9  # non-unique geodesic: least distance of z from [x, y]
# 4x the largest benchmarked resolution.  On a 2-core Xeon, cat0_check on the
# corbit-cat0-violation triangle takes 20-35 ms here (scanning every upper-triangle
# cell took 4.0-4.7 s); a triangle whose tiles the bounds cannot rule out, such as a
# thin one, still takes about 4 s.  geodesic_deviation on a Kronecker pair takes
# 105-135 ms where one projection row can attain the sup, 160-280 ms where it scans
# all four (280-440 ms with a pairwise call per row block).
MAX_RESOLUTION = 8192
# comparison_triangle squares its sides in place only up to here: (2**500)**2 is far from overflow
_HUGE_SIDE = 2.0 ** 500


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
    A linear sup-space also carries its (n, m) projection ``proj`` and
    its m ``weights``: ``pairwise`` is then max_k w_k |((A - B) proj)_k|,
    and the scans bound it on tiles.  Every other handle leaves both None.
    """

    name: str
    dist: Callable
    pairwise: Callable
    encode: Callable
    decode: Callable
    path: Callable = straight_path
    proj: Optional[np.ndarray] = field(default=None, compare=False)
    weights: Optional[np.ndarray] = field(default=None, compare=False)

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
    if max(a, b, c) > _HUGE_SIDE:
        # the squares would overflow: solve in units of 2**e, e the exponent of
        # the longest side, which scale exactly; a base below the subnormals in
        # those units is a zero base
        e = math.frexp(max(a, b, c))[1]
        sa, sb, sc = (math.ldexp(v, -e) for v in (a, b, c))
        t, h = _apex(sa, sb, sc) if sa > 0.0 else (sc, 0.0)
        return (0.0, 0.0), (a, 0.0), (math.ldexp(t, e), math.ldexp(h, e))
    return (0.0, 0.0), (a, 0.0), _apex(a, b, c)


def _apex(a: float, b: float, c: float) -> tuple[float, float]:
    """The corner z = (t, h) of comparison_triangle for checked sides with
    a > 0 and finite squares."""
    t = (a * a + c * c - b * b) / (2.0 * a)
    h2 = c * c - t * t
    return t, (math.sqrt(h2) if h2 > 0.0 else 0.0)


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
    space distance, comparison distance).

    Each pair of tiles gets a float bound on its violations: the tile
    bound on d minus a lower bound on the comparison distance, the
    hypot of the box gaps less 1e-12 of it, since numpy's complex
    ``abs`` is a hypot to a few ulp.  The tile with the largest bound
    is scanned first, and its largest violation L is one the answer
    reaches: a tile whose bound is a number below L cannot hold the
    first maximum.  Both matrices are exactly symmetric, so each row
    block of ``_row_blocks`` that meets a kept tile is scanned against
    the columns of its kept tiles in the upper tile triangle.  A NaN
    violation lies in a tile of NaN or infinite bound, which is never
    skipped, so the first row block whose maximum is NaN holds the first
    NaN in row-major order, and returns it."""
    tiles = _Tiles(len(pts), len(pts))
    bound = tiles.sup_bounds(_projected(space, pts, carr), space.weights)[0]
    cbox = tiles.boxes(np.column_stack((carr.real, carr.imag)))
    e_lo = np.hypot(tiles.spreads(cbox, 0)[1], tiles.spreads(cbox, 1)[1])
    # a few ulp are relatively small for normal numbers; 0 bounds the rest
    bound -= np.where(e_lo > 1e-300, e_lo * (1.0 - 1e-12), 0.0)

    def scan(rows, cols):
        dmat = space.pairwise(pts[rows], pts[cols])
        emat = np.abs(carr[rows, None] - carr[None, cols])
        viol = dmat - emat
        i, j = np.unravel_index(int(np.argmax(viol)), viol.shape)
        j_all = cols.start + j if isinstance(cols, slice) else int(cols[j])
        return float(viol[i, j]), rows.start + i, j_all, float(dmat[i, j]), float(emat[i, j])

    first = np.unravel_index(int(np.argmax(np.where(np.isnan(bound), -np.inf, bound))),
                             bound.shape)
    floor = scan(tiles.rows(first[0]), tiles.cols(np.arange(len(tiles.starts)) == first[1]))[0]
    keep = np.triu(~(bound < floor))
    blocks = _row_blocks(len(pts), len(pts))
    live = np.repeat(keep.any(axis=1), tiles.stops - tiles.starts)
    best = None
    for b in np.flatnonzero(np.logical_or.reduceat(live, [rows.start for rows in blocks])):
        rows = blocks[b]
        found = scan(rows, tiles.cols(keep[rows.start // _TILE:(rows.stop - 1) // _TILE + 1]
                                      .any(axis=0)))
        if math.isnan(found[0]):
            return found
        if best is None or found[0] > best[0]:
            best = found
    return best


def _slim_scan(space: SpaceHandle, sampled: list) -> list:
    """For each sampled side, the distances of its samples to the samples
    of the other two sides, where they can reach the largest such
    distance, -inf elsewhere.

    Tiles do not straddle sides.  A tile's ``reach``, its least upper
    bound against the tiles of the other sides, bounds the distance of
    each of its samples from those sides.  The tile of largest reach is
    scanned first, and the largest distance L among its samples is one
    the answer reaches: a tile whose reach is a number below L is
    skipped, and the others are scanned against just the tiles whose
    lower bound does not exceed their reach, which hold every least
    distance.  A NaN distance lies in a tile of NaN reach, which is
    scanned against every tile of the other sides."""
    n = len(sampled[0])
    pts = np.concatenate(sampled)
    tiles = _Tiles(len(pts), n)
    upper, lower = tiles.sup_bounds(_projected(space, pts), space.weights)
    side = tiles.starts // n
    same = side[:, None] == side[None, :]
    upper[same] = np.inf
    reach = upper.min(axis=1)
    candidates = ~(lower > reach[:, None]) & ~same

    def scan(t):
        cols = tiles.cols(candidates[t])
        return np.concatenate([space.pairwise(pts[rows], pts[cols]).min(axis=1)
                               for rows in tiles.row_blocks(t, 2 * n)])

    first = int(np.argmax(reach))
    first_mins = scan(first)
    floor = np.max(first_mins)
    mins = np.full(len(pts), -np.inf)
    for t in np.flatnonzero(~(reach < floor)):
        mins[tiles.rows(t)] = first_mins if t == first else scan(t)
    return [mins[k * n:(k + 1) * n] for k in range(3)]


def _projected(space: SpaceHandle, pts: np.ndarray, *extra: np.ndarray) -> Optional[np.ndarray]:
    """The samples ``pts @ space.proj`` that the scans bound, or None where
    bounds do not hold: a handle without ``proj``, a negative or
    NaN weight, or a sample coordinate (of pts, the projection, or
    ``extra``) that is not finite."""
    if space.proj is None or not np.all(space.weights >= 0.0):
        return None
    a = pts @ space.proj
    return a if all(np.isfinite(x).all() for x in (pts, a, *extra)) else None


class _Tiles:
    """The samples 0..n-1 cut into tiles of _TILE consecutive samples, which
    start afresh every ``period`` samples (n is a multiple of it), and
    the bounds of the scans on the (tiles, tiles) grid.

    The bounds hold exactly in floats: rounding is monotone, so for x in
    box I and y in box J the computed |x_k - y_k| lies between the
    computed differences of the boxes' corners, and so does its product
    with w_k >= 0.  This needs ``pairwise`` on row slices to equal the
    slices of ``pairwise``, as it is on the bundled projections."""

    def __init__(self, n: int, period: int):
        self.starts = np.concatenate([np.arange(s, s + period, _TILE)
                                      for s in range(0, n, period)])
        self.stops = np.minimum(self.starts + _TILE, (self.starts // period + 1) * period)
        self._index = self.starts[:, None] + np.arange(_TILE)
        self._inside = self._index < self.stops[:, None]

    def rows(self, t: int) -> slice:
        """The samples of tile t."""
        return slice(int(self.starts[t]), int(self.stops[t]))

    def cols(self, mask: np.ndarray):
        """The samples of the tiles in a nonempty boolean mask, in order: a
        slice where the tiles are one run, so that selecting them copies
        nothing, an index array otherwise."""
        t = np.flatnonzero(mask)
        if t[-1] - t[0] == len(t) - 1:
            return slice(int(self.starts[t[0]]), int(self.stops[t[-1]]))
        return self._index[mask][self._inside[mask]]

    def row_blocks(self, t: int, n_cols: int) -> list:
        """Tile t's rows in blocks of the row step ``_row_blocks`` takes
        against n_cols columns."""
        step = max(1, _BLOCK_CELLS // n_cols)
        rows = self.rows(t)
        return [slice(r, min(r + step, rows.stop)) for r in range(rows.start, rows.stop, step)]

    def boxes(self, a: np.ndarray) -> tuple:
        """Each tile's coordinatewise least and greatest value of a."""
        return np.minimum.reduceat(a, self.starts), np.maximum.reduceat(a, self.starts)

    def spreads(self, box: tuple, k: int) -> tuple:
        """Bounds on |x_k - y_k| in floats for x in tile I and y in tile J:
        max(hi_I - lo_J, hi_J - lo_I) above and the box gap
        max(lo_J - hi_I, lo_I - hi_J, 0) below, as two (tiles, tiles)
        arrays."""
        lo, hi = box
        f = np.subtract.outer(hi[:, k], lo[:, k])
        return np.maximum(f, f.T), np.maximum(-np.minimum(f, f.T), 0.0)

    def sup_bounds(self, a: Optional[np.ndarray], weights: np.ndarray) -> tuple:
        """Upper and lower bounds on every ``pairwise`` cell between the
        tiles I and J of the projected samples a: +inf and 0 where a is
        None."""
        if a is None:
            shape = (len(self.starts),) * 2
            return np.full(shape, np.inf), np.zeros(shape)
        box = self.boxes(a)
        upper = lower = None
        for k, wk in enumerate(weights):
            up, gap = self.spreads(box, k)
            up *= wk
            gap *= wk
            upper = up if upper is None else np.maximum(upper, up, out=upper)
            lower = gap if lower is None else np.maximum(lower, gap, out=lower)
        return upper, lower


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
    blocks = _row_blocks(len(ts), len(ts))
    if space.proj is None:
        return float(np.max([np.max(np.abs(space.pairwise(pts[rows], pts[rows.start:])
                                           - np.abs(ts[rows, None] - ts[None, rows.start:]) * d_xy))
                             for rows in blocks]))
    # a linear sup-space: the samples projected once, the rows that cannot attain
    # the sup dropped, and each block built by pairwise's own kernel in two buffers,
    # the second reused for the line term, with the ufuncs and operand order of the
    # expression above: the same floats
    a = np.ascontiguousarray((pts @ space.proj).T)
    keep = _attaining_rows(a, space.weights)
    a, weights = a[keep], space.weights[keep]
    buf, scratch = np.empty((2, len(ts[blocks[0]]) * len(ts)))
    maxima = []
    for rows in blocks:
        r, c = len(ts[rows]), len(ts) - rows.start
        dmat, line = buf[:r * c].reshape(r, c), scratch[:r * c].reshape(r, c)
        _sup_into(a[:, rows], a[:, rows.start:], weights, dmat, line)
        np.subtract(ts[rows, None], ts[None, rows.start:], out=line)
        np.abs(line, out=line)
        line *= d_xy
        np.subtract(dmat, line, out=line)
        maxima.append(np.max(np.abs(line, out=line)))
    return float(np.max(maxima))


def _attaining_rows(a: np.ndarray, weights: np.ndarray) -> list:
    """The rows k of the projected samples a (m, N), in order, whose terms
    w_k |a[k, i] - a[k, j]| can set max_k of them in some cell: dropping
    the others leaves every cell's float of ``_sup_into`` as it is.

    A row with the same bits and weight as an earlier row is dropped: its
    term is the same float in every cell.  Then, for the row k* of largest
    w_k * sum |s_k|, where s_k are the computed steps a[k, l+1] - a[k, l],
    if k*'s steps are nonzero and of one sign and w_k* is finite and
    >= 0, every other row k with w_k == w_k* and |s_k[l]| < |s_k*[l]|
    at every step l is dropped.  This is exact: rounding is monotone and
    odd, so each strict float inequality holds for the exact steps, and
    summing the steps from i to j gives |a[k, j] - a[k, i]| <
    |a[k*, j] - a[k*, i]| exactly; the rounded differences, and their
    products with the same weight, are then <= row k*'s, so the maximum
    is row k*'s float, NaN included.  A NaN or infinite sample makes a NaN
    or infinite step, which fails the comparisons and keeps its row; a
    row of another weight is always kept.
    """
    firsts = {}
    for k, row in enumerate(a):
        firsts.setdefault((weights[k], row.tobytes()), k)
    keep = list(firsts.values())
    with np.errstate(all="ignore"):  # the scan warns of what overflows in its cells
        steps = np.diff(a, axis=1)
        size = np.abs(steps)
        lead = int(np.argmax(weights * size.sum(axis=1)))  # the first of equal rows
    w, s = weights[lead], steps[lead]
    if not (0.0 <= w < math.inf and (np.all(s > 0.0) or np.all(s < 0.0))):
        return keep
    below = (size < size[lead]).all(axis=1) & (weights == w)
    return [k for k in keep if not below[k]]


def _sup_into(a: np.ndarray, b: np.ndarray, weights, out: np.ndarray,
              scratch: np.ndarray) -> np.ndarray:
    """max_k w_k |a[k, i] - b[k, j]| written into out, for the projected rows
    a (m, r) and b (m, c): the first coordinate in out, each later one in
    scratch and then maxed into out."""
    for k, wk in enumerate(weights):
        d = out if k == 0 else scratch
        np.subtract(a[k, :, None], b[k, None, :], out=d)
        np.abs(d, out=d)
        if wk != 1.0:
            d *= wk
        if k:
            np.maximum(out, d, out=out)
    return out


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
    time, so two (N, M) arrays are alive.
    """
    proj = np.array(rows, dtype=float).T
    w = np.broadcast_to(np.asarray(weights, dtype=float), len(rows))

    def pairwise(A, B):
        a, b = (A @ proj).T, (B @ proj).T
        out = np.empty((len(A), len(B)))
        return _sup_into(a, b, w, out, np.empty_like(out))

    return SpaceHandle(name=name, dist=dist, pairwise=pairwise, encode=encode, decode=decode,
                       proj=proj, weights=w)


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


def kronecker_quotient_space(l: int = 3) -> SpaceHandle:
    """Kronecker strip modulo the translation action, with orbits named by
    representative points; distances use the attained infimum.  Witnesses
    are decoded as points with arrow count l."""
    return linear_sup_space("kronecker-quotient", kron_quot_closed,
                            ((1, 0, -1, 0), (0, 1, 0, -1)), 0.5,
                            encode=attrgetter("x"), decode=lambda x: KroneckerPoint(x, l))
