"""The R^4 sup-metric model, its translation action, the quotient metric
in closed form, a numerical infimum solver, and the isometric embedding
into the Kronecker model.

A complex parameter acts on R^4 by adding (Re, Im, Re, Im); orbits are
closed, so the quotient distance inf over the action is attained and
equals

    max{ |(y1-x1) - (y3-x3)| / 2,  |(y2-x2) - (y4-x4)| / 2 }.

The numerical solver checks that closed form from the definition: it
minimizes the sup distance over the action parameter with a coarse grid
and a pattern search, which moves to the best of eight directions or
halves its step.  ``quot_dist_pairs`` runs it on P pairs of
coordinate rows at once, as array operations; ``quot_dist_inf`` runs the
same search on one pair through black-box distance and action callables.

The embedding q sends a vector of the strip 0 < x3 - x1 < 1 to the
Kronecker point with the same coordinates; it intertwines the two
actions up to the Im/pi reparameterization and is isometric for both
the plain and the quotient metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverDiverged
from .stabmodel import KroneckerPoint, d_B_closed, random_region_vector, sup_abs


def dprime(x, y) -> float:
    """Sup distance on R^4."""
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
    def from_vector(cls, x) -> "QuotPoint":
        x1, x2, x3, x4 = (float(v) for v in x)
        return cls((0.0, 0.0, x3 - x1, x4 - x2))


def quot_dist_closed(xbar: QuotPoint, ybar: QuotPoint) -> float:
    """Closed-form quotient distance between orbits; the canonical
    representatives have d1 = d2 = 0."""
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
MAX_SAMPLES = 100_000  # iter_isometry_samples' n; embed-check takes seconds here


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


# Overflow follows IEEE arithmetic, silently, as in the scalar loop the
# solver replaced; a non-finite distance is rejected where it is reported.
@np.errstate(over="ignore", invalid="ignore")
def quot_dist_pairs(sigma, tau, im_scale: float = 1.0) -> np.ndarray:
    """Numerical quotient distances of P pairs of R^4 coordinate rows.

    Row p is the infimum over lam of max_k |sigma_k - (tau_k + (S lam)_k)|
    with S lam = (Re, s Im, Re, s Im), s = ``im_scale``: s = 1 is
    ``dprime`` after ``r4_act``, s = pi is ``d_B_closed`` after
    ``stabmodel.c_act`` on the strip.  The operations run in the order of
    those scalar calls, so each value equals ``quot_dist_inf`` on the same
    pair bit for bit.  sigma and tau are (P, 4) arrays.
    """
    sigma = np.asarray(sigma, dtype=float)
    tau = np.asarray(tau, dtype=float)

    def objective(rows, u, v):
        w = v * im_scale
        s, t = sigma[rows], tau[rows]
        out = np.abs(s[:, 0, None] - (t[:, 0, None] + u))
        for k, shift in ((1, w), (2, u), (3, w)):
            np.maximum(out, np.abs(s[:, k, None] - (t[:, k, None] + shift)), out=out)
        return out

    return _pattern_search(objective, np.abs(sigma - tau).max(axis=1) + 1.0)


@np.errstate(over="ignore", invalid="ignore")
def quot_dist_inf(dist, sigma, tau, act) -> float:
    """Numerical infimum over the action parameter of dist(sigma, act(tau, lam)).

    The black-box form of ``quot_dist_pairs``: the same grid and pattern
    search over one pair, with the objective evaluated through the two
    callables one parameter at a time.
    """

    def objective(rows, u, v):
        return np.array([[dist(sigma, act(tau, complex(a, b)))
                          for a, b in zip(u[0].tolist(), v[0].tolist())]])

    return float(_pattern_search(objective, np.array([dist(sigma, tau) + 1.0]))[0])


def embed_q(x) -> KroneckerPoint:
    """Isometric embedding of the strip into the Kronecker model: the
    coordinates are kept, and the point constructor rejects a vector
    outside the strip.  The R^4 action by lambda corresponds to the
    stability action by Re(lambda) + i Im(lambda)/pi."""
    return KroneckerPoint(x)


def kron_quot_closed(p: KroneckerPoint, q: KroneckerPoint) -> float:
    """Quotient distance between Kronecker points: the translation infimum
    evaluated at the transported analytic minimizer (which attains it).

    The translate of q is formed as ``c_act`` forms it and measured as
    ``d_B_closed`` measures it, on plain coordinates: far from q its
    width x3 - x1 may round to 0, and a ``KroneckerPoint`` would reject it.
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


def iter_isometry_samples(n: int, seed: int = 0):
    """Yield per-pair deviations (metric, quotient) for n random strip pairs."""
    if not 0 <= n <= MAX_SAMPLES:
        raise ValueError(f"sample count must be in 0..{MAX_SAMPLES}, got {n!r}")
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = random_region_vector(rng)
        y = random_region_vector(rng)
        dev_metric = abs(d_B_closed(embed_q(x), embed_q(y)) - dprime(x, y))
        dev_quot = abs(
            quot_dist_closed(QuotPoint.from_vector(x), QuotPoint.from_vector(y))
            - kron_quot_closed(embed_q(x), embed_q(y))
        )
        yield dev_metric, dev_quot


def isometry_report(n: int, seed: int = 0) -> IsometryReport:
    """Compare both metrics across the embedding on n >= 1 random pairs;
    a maximum over no pairs would certify nothing."""
    if n < 1:
        raise ValueError(f"sample count must be at least 1, got {n!r}")
    dev_m, dev_q = np.max(list(iter_isometry_samples(n, seed)), axis=0).tolist()
    return IsometryReport(n, seed, dev_m, dev_q)
