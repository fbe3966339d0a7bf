"""The R^4 sup-metric model, its translation action, the quotient metric
in closed form, a numerical infimum solver, and the isometric embedding
into the Kronecker model.

A complex parameter acts on R^4 by adding (Re, Im, Re, Im); orbits are
closed, so the quotient distance inf over the action is attained and
equals

    max{ |(y1-x1) - (y3-x3)| / 2,  |(y2-x2) - (y4-x4)| / 2 }.

The embedding q sends a vector of the strip 0 < x3 - x1 < 1 to the
Kronecker point with the same coordinates; it intertwines the two
actions up to the Im/pi reparameterization and is isometric for both
the plain and the quotient metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutsideRegion, SolverDiverged
from .stabmodel import KroneckerPoint, c_act, d_B_closed, random_region_vector


def dprime(x, y) -> float:
    """Sup distance on R^4."""
    return max(abs(a - b) for a, b in zip(x, y))


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
    """Closed-form quotient distance between orbits."""
    d1 = ybar.rep[0] - xbar.rep[0]
    d2 = ybar.rep[1] - xbar.rep[1]
    d3 = ybar.rep[2] - xbar.rep[2]
    d4 = ybar.rep[3] - xbar.rep[3]
    return max(abs(d1 - d3), abs(d2 - d4)) / 2.0


def quot_minimizer(x, y) -> complex:
    """Parameter at which dprime(x.lambda, y) attains the quotient distance."""
    d = [b - a for a, b in zip(x, y)]
    return complex(0.5 * (d[0] + d[2]), 0.5 * (d[1] + d[3]))


_DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))
_GRID = 33  # coarse-grid points per axis
_TOL = 1e-9  # how far the descent may end above the coarse-grid minimum
_MAX_ITER = 200
_STEP_FLOOR = 1e-13


def quot_dist_inf(dist, sigma, tau, act) -> float:
    """Numerical infimum over the action parameter of dist(sigma, act(tau, lam)).

    The objective is assumed to be a maximum of finitely many absolute
    affine functions of (Re lam, Im lam), hence convex: a coarse
    _GRID x _GRID grid over a box of half-width dist(sigma, tau) + 1
    seeds an eight-direction pattern search with halving steps, which
    cannot be trapped away from the minimum of such objectives.
    """

    def f(u: float, v: float) -> float:
        return dist(sigma, act(tau, complex(u, v)))

    box = dist(sigma, tau) + 1.0
    axis = [-box + 2.0 * box * i / (_GRID - 1) for i in range(_GRID)]
    best_u, best_v = 0.0, 0.0
    best = f(0.0, 0.0)
    for u in axis:
        for v in axis:
            val = f(u, v)
            if val < best:
                best, best_u, best_v = val, u, v
    grid_best = best

    h = 2.0 * box / (_GRID - 1)
    iterations = 0
    while h > _STEP_FLOOR and iterations < _MAX_ITER:
        iterations += 1
        moved = False
        for du, dv in _DIRECTIONS:
            u, v = best_u + h * du, best_v + h * dv
            val = f(u, v)
            if val < best:
                best, best_u, best_v = val, u, v
                moved = True
        if not moved:
            h *= 0.5
    if best > grid_best + _TOL:
        raise SolverDiverged("descent ended above the coarse-grid minimum")
    return best


def embed_q(x) -> KroneckerPoint:
    """Isometric embedding of the strip into the Kronecker model.

    The coordinate systems are aligned by construction; the R^4 action by
    lambda corresponds to the stability action by Re(lambda) + i Im(lambda)/pi.
    """
    x = tuple(float(v) for v in x)
    if not 0.0 < x[2] - x[0] < 1.0:
        raise OutsideRegion(f"x3 - x1 = {x[2] - x[0]!r} is not in (0, 1)")
    return KroneckerPoint(x)


def kron_quot_closed(p: KroneckerPoint, q: KroneckerPoint) -> float:
    """Quotient distance between Kronecker points: the translation infimum
    evaluated at the transported analytic minimizer (which attains it)."""
    d = [a - b for a, b in zip(p.x, q.x)]
    mu = complex(0.5 * (d[0] + d[2]), (d[1] + d[3]) / (2.0 * math.pi))
    return d_B_closed(c_act(q, mu), p)


@dataclass(frozen=True)
class IsometryReport:
    samples: int
    seed: int
    max_metric_deviation: float
    max_quotient_deviation: float


def iter_isometry_samples(n: int, seed: int = 0):
    """Yield per-pair deviations (metric, quotient) for n random strip pairs."""
    if n < 0:
        raise ValueError(f"sample count must be nonnegative, got {n!r}")
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
    dev_m = 0.0
    dev_q = 0.0
    for dm, dq in iter_isometry_samples(n, seed):
        dev_m = max(dev_m, dm)
        dev_q = max(dev_q, dq)
    return IsometryReport(n, seed, dev_m, dev_q)
