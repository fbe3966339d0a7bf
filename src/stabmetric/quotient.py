"""The R^4 sup-metric model, its translation action, the quotient metric
in closed form, an exact linear program for the quotient infimum, a
numerical infimum solver, and the isometric embedding into the
Kronecker model.

A complex parameter acts on R^4 by adding (Re, Im, Re, Im); orbits are
closed, so the quotient distance inf over the action is attained and
equals

    max{ |(y1-x1) - (y3-x3)| / 2,  |(y2-x2) - (y4-x4)| / 2 }.

``quot_dist_lp`` checks that closed form from the definition: the
infimum is the linear program min t over (Re lam, Im lam, t) subject to
+-(d_k - (S lam)_k) <= t, whose optimal vertex it certifies in exact
integer arithmetic, so each value is the exact optimum rounded once.
``quot_dist_inf`` minimizes the same infimum through black-box distance
and action callables, with a coarse grid and a pattern search that moves
to the best of eight directions or halves its step.

The embedding q sends a vector of the strip 0 < x3 - x1 < 1 to the
Kronecker point with the same coordinates; it intertwines the two
actions up to the Im/pi reparameterization and is isometric for both
the plain and the quotient metrics.  ``isometry_samples`` measures both
deviations on random strip pairs a block at a time: the closed forms
take points whose coordinates are the columns of a block of rows
(``embed_q`` and ``QuotPoint.from_vector`` build them from an (m, 4)
array), so the block runs the same operations as the scalar calls and
its values are theirs pair by pair.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverDiverged
from .stabmodel import (REGION_HIGH, REGION_LOW, KroneckerPoint, KroneckerRows, d_B_closed,
                        region_rows, sup_abs)


def dprime(x, y) -> float:
    """Sup distance on R^4; given the four coordinate columns of two blocks
    of rows (x.T, y.T), the distance of each pair of rows."""
    return sup_abs(a - b for a, b in zip(x, y))


def r4_act(x, lam: complex) -> tuple[float, float, float, float]:
    """Translation action: lambda adds (Re, Im, Re, Im)."""
    lam = complex(lam)
    x1, x2, x3, x4 = x
    return (x1 + lam.real, x2 + lam.imag, x3 + lam.real, x4 + lam.imag)


@dataclass(frozen=True)
class QuotPoint:
    """Orbit of the translation action, stored by the canonical
    representative with first two coordinates zero."""

    rep: tuple[float, float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "rep", tuple(float(v) for v in self.rep))
        if len(self.rep) != 4:
            raise ValueError("need exactly four coordinates")
        if self.rep[0] != 0.0 or self.rep[1] != 0.0:
            raise ValueError("canonical representative needs rep[0] = rep[1] = 0")

    @classmethod
    def from_vector(cls, x):
        """The orbit of x; the orbits of the rows of an (m, 4) numpy array
        as QuotRows."""
        rows = isinstance(x, np.ndarray) and x.ndim == 2
        x1, x2, x3, x4 = x.T if rows else (float(v) for v in x)
        rep = (0.0, 0.0, x3 - x1, x4 - x2)
        return QuotRows(rep) if rows else cls(rep)


@dataclass(frozen=True, eq=False)
class QuotRows:
    """Orbits of the rows of a block, by their canonical representatives
    with the last two coordinates as columns, which quot_dist_closed reads
    elementwise as it reads QuotPoint.rep."""

    rep: tuple


def quot_dist_closed(xbar: QuotPoint, ybar: QuotPoint) -> float:
    """Closed-form quotient distance between orbits; the canonical
    representatives have d1 = d2 = 0.  Between two QuotRows, the distance
    of each pair of rows."""
    d3 = ybar.rep[2] - xbar.rep[2]
    d4 = ybar.rep[3] - xbar.rep[3]
    return sup_abs((d3, d4)) / 2.0


def quot_minimizer(x, y) -> complex:
    """Parameter at which dprime(x.lambda, y) attains the quotient distance."""
    d = [b - a for a, b in zip(x, y)]
    return complex(0.5 * (d[0] + d[2]), 0.5 * (d[1] + d[3]))


_DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))
_DU = np.array([du for du, _ in _DIRECTIONS], dtype=float)
_DV = np.array([dv for _, dv in _DIRECTIONS], dtype=float)
_GRID = 33  # coarse-grid points per axis
_TOL = 1e-9  # how far the descent may end above the coarse-grid minimum
_MAX_STEPS = 1600  # descent steps: a box 1e308 wide needs about 1070 halvings
_STEP_FLOOR = 1e-13
_BLOCK_CELLS = 1 << 16  # grid cells evaluated per array op
MAX_SAMPLES = 100_000  # isometry_samples' n; embed-check takes seconds here
_DRAW_PAIRS = 1024  # strip pairs drawn and measured per block


def _pattern_search(objective, box: np.ndarray) -> np.ndarray:
    """Minimize P convex objectives of (u, v) = (Re lam, Im lam) at once.

    ``objective(rows, u, v)`` returns, for the problems ``rows``, the
    values at the parameters in the ``(len(rows), m)`` arrays u, v.  Each
    objective is assumed to be a maximum of finitely many absolute affine
    functions, hence convex: a coarse _GRID x _GRID grid over the box of
    half-width ``box[p]`` seeds an eight-direction pattern search with
    halving steps, which cannot be trapped away from the minimum of such
    objectives.  The grid is evaluated in blocks of about _BLOCK_CELLS
    cells.  Each descent step evaluates the eight directions of every
    unfinished problem in one objective call and moves the problem to the
    first of _DIRECTIONS with the least value if that is below its
    current value, else halves its step.  A problem ends when its step
    falls to _STEP_FLOOR, and every problem after _MAX_STEPS steps.
    """
    n = box.shape[0]
    best = objective(np.arange(n), np.zeros((n, 1)), np.zeros((n, 1)))[:, 0]
    u0 = np.zeros(n)  # the current point of each problem
    v0 = np.zeros(n)
    ticks = np.arange(_GRID, dtype=float)
    per_block = max(1, _BLOCK_CELLS // (_GRID * _GRID))
    for lo in range(0, n, per_block):
        rows = np.arange(lo, min(lo + per_block, n))
        axis = -box[rows, None] + 2.0 * box[rows, None] * ticks / (_GRID - 1)
        u = np.repeat(axis, _GRID, axis=1)  # cell i * _GRID + j is (axis[i], axis[j])
        v = np.tile(axis, _GRID)
        vals = objective(rows, u, v)
        pos = np.arange(rows.size)
        cell = vals.argmin(axis=1)  # first minimum in scan order
        low = vals[pos, cell]
        better = low < best[rows]
        u0[rows] = np.where(better, axis[pos, cell // _GRID], 0.0)
        v0[rows] = np.where(better, axis[pos, cell % _GRID], 0.0)
        best[rows] = np.where(better, low, best[rows])
    grid_best = best.copy()

    # the descent of the unfinished problems `live` from their points
    # (u0, v0) with steps h; an overflowing box gives an infinite step,
    # which halving never shrinks, so it ends the descent at once
    live = np.arange(n)
    h = 2.0 * box / (_GRID - 1)
    for _ in range(_MAX_STEPS):
        keep = np.isfinite(h) & (h > _STEP_FLOOR)
        live, u0, v0, h = live[keep], u0[keep], v0[keep], h[keep]
        if not live.size:
            break
        u = u0[:, None] + h[:, None] * _DU
        v = v0[:, None] + h[:, None] * _DV
        vals = objective(live, u, v)
        pos = np.arange(live.size)
        k = vals.argmin(axis=1)  # the first best direction
        low = vals[pos, k]
        hit = low < best[live]
        best[live[hit]] = low[hit]
        u0 = np.where(hit, u[pos, k], u0)
        v0 = np.where(hit, v[pos, k], v0)
        h = np.where(hit, h, 0.5 * h)
    if np.any(best > grid_best + _TOL):
        raise SolverDiverged("descent ended above the coarse-grid minimum")
    return best


def _adj3(m) -> list[list[int]]:
    """The adjugate of a 3x3 integer matrix: m times it is det(m) times
    the identity."""
    def minor(r: int, c: int) -> int:
        (a, b), (e, f) = ([v for j, v in enumerate(row) if j != c]
                          for i, row in enumerate(m) if i != r)
        return a * f - b * e

    return [[(-1) ** (i + j) * minor(j, i) for j in range(3)] for i in range(3)]


@functools.cache
def _lp_bases(im_scale: float):
    """The dual-feasible bases of the quotient LP for S lam = (u, s v, u, s v).

    Constraint (k, e), e = +-1, reads t + e (S lam)_k >= e d_k; with
    s = p / q exactly, a v-row is scaled by q to the integer normal
    (0, e p, q) and right side q e d_k.  A basis is three constraints
    with independent normals; its vertex is linear in d, so each basis is
    stored as integer linear forms in d: ``value`` with the positive
    ``det`` gives t = value . d / det, and each of its five ``checks``
    is det times a non-basic constraint's slack.  Only bases whose dual
    solution (the third row of the inverse) is nonnegative are kept:
    where such a vertex is feasible it is optimal, by LP duality.
    Returned with the bases is a (4, bases * 6) float matrix of the same
    forms: value / det first, then each check scaled to entries of at
    most 1.
    """
    p, q = im_scale.as_integer_ratio()
    if p == 0:
        raise ValueError(f"im_scale must be nonzero, got {im_scale!r}")
    rows = [(k, e) for k in range(4) for e in (1, -1)]
    normal = {(k, e): (e, 0, 1) if k % 2 == 0 else (0, e * p, q) for k, e in rows}
    weight = {k: 1 if k % 2 == 0 else q for k in range(4)}
    bases, floats = [], []
    for basis in itertools.combinations(rows, 3):
        a = [normal[r] for r in basis]
        adj = _adj3(a)
        det = sum(a[0][j] * adj[j][0] for j in range(3))
        if det == 0:
            continue
        if det < 0:
            det, adj = -det, [[-v for v in row] for row in adj]
        if min(adj[2]) < 0:
            continue
        # det times the vertex (u, v, t), as integer forms in d
        x = [[sum(adj[j][i] * weight[c] * e for i, (k, e) in enumerate(basis) if k == c)
              for c in range(4)] for j in range(3)]
        checks = [tuple(sum(n * x[j][c] for j, n in enumerate(normal[k, e]))
                        - (det * weight[k] * e if c == k else 0) for c in range(4))
                  for k, e in rows if (k, e) not in basis]
        bases.append((tuple(checks), tuple(x[2]), det))
        floats.append([[v / det for v in x[2]]]
                      + [[v / (max(map(abs, chk)) or 1) for v in chk] for chk in checks])
    matrix = np.array(floats, dtype=float).transpose(2, 0, 1).reshape(4, -1)
    return bases, matrix


@np.errstate(over="ignore", invalid="ignore")
def quot_dist_lp(sigma, tau, im_scale: float = 1.0) -> np.ndarray:
    """Exact quotient distances of P pairs of R^4 coordinate rows.

    Row p is the infimum over lam of max_k |d_k - (S lam)_k| for the
    float differences d = sigma_p - tau_p and S lam = (Re, s Im, Re, s Im),
    s = ``im_scale``: s = 1 is ``dprime`` after ``r4_act``, s = pi the
    double ``math.pi``, as ``c_act`` scales on the strip.  One float pass
    evaluates every basis of ``_lp_bases`` on every pair; each pair then
    tries its bases float-feasible first and by decreasing t (a
    dual-feasible t bounds the optimum from below), and the first whose
    checks hold in integers over a common power-of-two denominator is
    optimal.  Its exact t is a ratio of integers, which ``/`` rounds once.
    sigma and tau are (P, 4) arrays; a non-finite difference is rejected.
    """
    d = np.asarray(sigma, dtype=float) - np.asarray(tau, dtype=float)
    if not np.isfinite(d).all():
        raise ValueError("sigma - tau has a non-finite entry")
    bases, matrix = _lp_bases(float(im_scale))
    forms = (d @ matrix).reshape(len(d), len(bases), 6)
    # float-infeasible bases rank last; sorted() rather than np.lexsort,
    # whose first call adds about 0.3 MiB of numpy code pages to the RSS
    ranks = np.where((forms[:, :, 1:] >= 0.0).all(axis=2), forms[:, :, 0], -np.inf)
    out = []
    for row, rank in zip(d.tolist(), ranks.tolist()):
        ratios = [v.as_integer_ratio() for v in row]
        top = max(den.bit_length() for _, den in ratios)
        n0, n1, n2, n3 = (num << (top - den.bit_length()) for num, den in ratios)
        for b in sorted(range(len(bases)), key=rank.__getitem__, reverse=True):
            checks, (v0, v1, v2, v3), det = bases[b]
            if all(c0 * n0 + c1 * n1 + c2 * n2 + c3 * n3 >= 0 for c0, c1, c2, c3 in checks):
                out.append((v0 * n0 + v1 * n1 + v2 * n2 + v3 * n3) / (det << (top - 1)))
                break
        else:  # a bounded LP over a pointed polyhedron has an optimal vertex
            raise ArithmeticError(f"no basis is certified optimal for pair {len(out)}")
    return np.array(out)


@np.errstate(over="ignore", invalid="ignore")
def quot_dist_inf(dist, sigma, tau, act) -> float:
    """Numerical infimum over the action parameter of dist(sigma, act(tau, lam)).

    A coarse grid and a pattern search over one pair, with the objective
    evaluated through the two callables one parameter at a time.
    """

    def objective(rows, u, v):
        return np.array([[dist(sigma, act(tau, complex(a, b)))
                          for a, b in zip(u[0].tolist(), v[0].tolist())]])

    return float(_pattern_search(objective, np.array([dist(sigma, tau) + 1.0]))[0])


def embed_q(x):
    """Isometric embedding of the strip into the Kronecker model: the
    coordinates are kept, and the point constructor rejects a vector
    outside the strip.  The R^4 action by lambda corresponds to the
    stability action by Re(lambda) + i Im(lambda)/pi.  The rows of an
    (m, 4) numpy array embed at once, as KroneckerRows."""
    if isinstance(x, np.ndarray) and x.ndim == 2:
        return KroneckerRows(x)
    return KroneckerPoint(x)


def kron_quot_closed(p: KroneckerPoint, q: KroneckerPoint) -> float:
    """Quotient distance between Kronecker points: the translation infimum
    evaluated at the transported analytic minimizer (which attains it).

    The translate of q is formed as ``c_act`` forms it and measured as
    ``d_B_closed`` measures it, on plain coordinates: far from q its
    width x3 - x1 may round to 0, and a ``KroneckerPoint`` would reject it.
    Between two KroneckerRows, the distance of each pair of rows.
    """
    d = [a - b for a, b in zip(p.x, q.x)]
    re = 0.5 * (d[0] + d[2])
    im = math.pi * ((d[1] + d[3]) / (2.0 * math.pi))
    return sup_abs((b + s) - a for a, b, s in zip(p.x, q.x, (re, im, re, im)))


@dataclass(frozen=True)
class IsometryReport:
    samples: int
    seed: int
    max_metric_deviation: float
    max_quotient_deviation: float


def isometry_samples(n: int, seed: int = 0) -> np.ndarray:
    """Per-pair deviations (metric, quotient) for n random strip pairs, as
    the rows of an (n, 2) array.

    The pairs are stabmodel.random_region_vector's, two per pair, drawn
    as the rows of one ``rng.uniform`` block for up to _DRAW_PAIRS pairs
    (the same doubles as the scalar draws).  Each block is embedded by
    ``embed_q`` (OutsideRegion names a row outside the strip) and
    measured by ``d_B_closed`` against ``dprime`` and by
    ``quot_dist_closed`` against ``kron_quot_closed``, elementwise, so
    every value is the one those forms give for that pair alone.
    """
    if not 0 <= n <= MAX_SAMPLES:
        raise ValueError(f"sample count must be in 0..{MAX_SAMPLES}, got {n!r}")
    rng = np.random.default_rng(seed)
    out = np.empty((n, 2))
    for start in range(0, n, _DRAW_PAIRS):
        rows = region_rows(rng.uniform(REGION_LOW, REGION_HIGH,
                                       (2 * min(_DRAW_PAIRS, n - start), 4)))
        x, y = rows[0::2], rows[1::2]
        px, py = embed_q(x), embed_q(y)
        out[start:start + len(x), 0] = np.abs(d_B_closed(px, py) - dprime(x.T, y.T))
        out[start:start + len(x), 1] = np.abs(
            quot_dist_closed(QuotPoint.from_vector(x), QuotPoint.from_vector(y))
            - kron_quot_closed(px, py))
    return out


def isometry_report(n: int, seed: int = 0) -> IsometryReport:
    """Compare both metrics across the embedding on n >= 1 random pairs;
    a maximum over no pairs would certify nothing."""
    if n < 1:
        raise ValueError(f"sample count must be at least 1, got {n!r}")
    dev_m, dev_q = isometry_samples(n, seed).max(axis=0).tolist()
    return IsometryReport(n, seed, dev_m, dev_q)
