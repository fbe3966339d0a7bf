"""Concrete stability-condition models with explicit sup-metrics.

Kronecker model.  A point carries coordinates (x1, x2, x3, x4) encoding
the central charges of the two simple modules of the Kronecker quiver:

    Z(S1) = exp(x2 + i*pi*x1),    Z(S2) = exp(x4 + i*pi*x3),

so x1, x3 are phases in units of pi and x2, x4 are log-moduli.  Inside
the strip 0 < x3 - x1 < 1 every module has the same two-step
Harder-Narasimhan shape (the S2 multiples on top, the S1 multiples
below), which collapses Bridgeland's sup-metric to the max of the four
coordinate differences.  ``d_B_sampled`` keeps the definitional
supremum over classes as an independent oracle for that closed form.

Complex orbits.  The translation action sigma -> sigma.lambda shifts
every phase by Re(lambda) and every log-modulus by pi * Im(lambda); the
induced metric on any orbit is max{|Re|, pi |Im|} of the difference.
The convention here has lambda = 1 acting as the shift functor, so
phases go up with Re(lambda).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutsideRegion
from .lin2 import real_number


def _integer(value, what: str) -> int:
    """An integer field read from JSON: integral floats such as 2.0 are
    taken as integers, bools and any other non-integer are rejected."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ObjectClass:
    """Class k1*[S1] + k2*[S2] with a homological shift."""

    k1: int
    k2: int
    shift: int = 0

    def __post_init__(self):
        if self.k1 < 0 or self.k2 < 0:
            raise ValueError("multiplicities must be nonnegative")
        if self.k1 + self.k2 < 1:
            raise ValueError("class must be nonzero")

    def to_dict(self) -> dict:
        return {"k": [self.k1, self.k2], "shift": self.shift}

    @classmethod
    def from_dict(cls, data: dict) -> "ObjectClass":
        k = data.get("k") if isinstance(data, dict) else None
        if not isinstance(k, (list, tuple)) or len(k) != 2:
            raise ValueError('an object class is a JSON object whose "k" is a pair '
                             'of integers [k1, k2]')
        k1, k2 = k
        return cls(_integer(k1, "k"), _integer(k2, "k"), _integer(data.get("shift", 0), "shift"))


@dataclass(frozen=True)
class KroneckerPoint:
    """Stability condition on the l-Kronecker quiver, as coordinates in R^4
    with 0 < x3 - x1 < 1: the strip holds by construction (OutsideRegion).

    The arrow count l is metadata only: inside the strip the
    Harder-Narasimhan structure does not depend on it.
    """

    x: tuple[float, float, float, float]
    l: int = 3

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if len(self.x) != 4:
            raise ValueError("need exactly four coordinates")
        gap = self.x[2] - self.x[0]
        if not 0.0 < gap < 1.0:
            raise OutsideRegion(f"x3 - x1 = {gap!r} is not in (0, 1)")
        if self.l < 1:
            raise ValueError("arrow count must be positive")

    @classmethod
    def from_dict(cls, data: dict) -> "KroneckerPoint":
        x = data.get("x")
        if not isinstance(x, (list, tuple)):
            raise ValueError('a Kronecker point object needs "x": a list of four numbers')
        return cls(tuple(real_number(v, "x") for v in x), _integer(data.get("l", 3), "l"))


class KroneckerRows:
    """Points of the strip as the rows of an (m, 4) array, held as its four
    coordinate columns x, which the closed forms (d_B_closed and the
    quotient's) read as they read KroneckerPoint.x, elementwise.  Each
    row is checked as KroneckerPoint checks its point: OutsideRegion
    names the first row with x3 - x1 not in (0, 1)."""

    def __init__(self, rows):
        self.x = tuple(np.asarray(rows, dtype=float).T)
        gap = self.x[2] - self.x[0]
        outside = ~((gap > 0.0) & (gap < 1.0))
        if outside.any():
            raise OutsideRegion(f"x3 - x1 = {float(gap[outside.argmax()])!r} is not in (0, 1)")


@dataclass(frozen=True)
class HNFactor:
    object_class: ObjectClass
    phase: float
    mass_term: float


@dataclass(frozen=True)
class HNProfile:
    """Harder-Narasimhan data: factors in strictly decreasing phase order."""

    factors: tuple[HNFactor, ...]
    mass: float
    phi_plus: float
    phi_minus: float

    @property
    def semistable(self) -> bool:
        return len(self.factors) == 1

    def to_dict(self) -> dict:
        return {
            "factors": [
                {"class": f.object_class.to_dict(), "phase": f.phase, "mass_term": f.mass_term}
                for f in self.factors
            ],
            "mass": self.mass,
            "phi_plus": self.phi_plus,
            "phi_minus": self.phi_minus,
            "semistable": self.semistable,
        }


def central_charge(p: KroneckerPoint, c: ObjectClass) -> complex:
    """Additive charge of the class, with (-1)^shift for the shift.  Only
    the simples the class contains are evaluated, so a log-modulus beyond
    the doubles matters only when its multiplicity is nonzero."""
    first, *rest = (k * _cexp(p, j) for k, j in ((c.k1, 2), (c.k2, 4)) if k)
    z = sum(rest, first)
    return -z if c.shift % 2 else z


def _cexp(p: KroneckerPoint, k: int) -> complex:
    """exp(x_k + i pi x_{k-1}), the charge of the simple with log-modulus x_k."""
    r = _modulus(p, k)
    phase_units = p.x[k - 2]
    return complex(r * math.cos(math.pi * phase_units), r * math.sin(math.pi * phase_units))


def _modulus(p: KroneckerPoint, k: int, sign: int = 1) -> float:
    """exp(x_k), or exp(-x_k) for sign -1, for the log-modulus x2 or x4; a
    value beyond the doubles is an input error that names the coordinate."""
    v = p.x[k - 1]
    try:
        return math.exp(v if sign > 0 else -v)
    except OverflowError:
        raise ValueError(f"log-modulus x{k} = {v!r} is out of range: "
                         f"exp({'' if sign > 0 else '-'}x{k}) overflows a double") from None


def hn_profile(p: KroneckerPoint, c: ObjectClass) -> HNProfile:
    """Harder-Narasimhan profile of the class at the given point.

    In the admissible strip the S2 part sits strictly above the S1 part,
    so the factors are S2^{k2} then S1^{k1}; a shift adds n to both
    phases and leaves the mass unchanged.
    """
    x1, _, x3, _ = p.x
    factors = []
    if c.k2 > 0:
        factors.append(HNFactor(ObjectClass(0, c.k2, c.shift), x3 + c.shift, c.k2 * _modulus(p, 4)))
    if c.k1 > 0:
        factors.append(HNFactor(ObjectClass(c.k1, 0, c.shift), x1 + c.shift, c.k1 * _modulus(p, 2)))
    mass = math.fsum(f.mass_term for f in factors)
    return HNProfile(tuple(factors), mass, factors[0].phase, factors[-1].phase)


def sup_abs(values):
    """max |v| over the values, and NaN when one of them is NaN: Python's
    max keeps a NaN only in first place, so every sup-metric takes this.
    Values that are numpy arrays give the same sup elementwise, an array
    (np.maximum keeps NaN), so each closed form built on this also
    measures coordinate columns row by row."""
    mags = [abs(v) for v in values]
    if mags and isinstance(mags[0], np.ndarray):
        return functools.reduce(np.maximum, mags)
    return math.nan if any(map(math.isnan, mags)) else max(mags)


def d_B_closed(p: KroneckerPoint, q: KroneckerPoint) -> float:
    """Bridgeland distance between two points of the strip: max_j |x_j - y_j|;
    between two KroneckerRows, the distance of each pair of rows."""
    return sup_abs(a - b for a, b in zip(p.x, q.x))


def d_B_sampled(p: KroneckerPoint, q: KroneckerPoint, K: int) -> float:
    """Definitional supremum of the Bridgeland metric over classes with
    multiplicities up to K.

    Phase and log-mass differences are shift invariant, so only shift 0
    is enumerated.  The HN factors of every class are multiples of the
    simples S2 and S1, so phi_plus and phi_minus range over the two
    phases of the profile of S1 + S2, taken once per point.  For
    single-simple classes the multiplicity cancels algebraically from the
    log-mass ratio, which is |dx2| or |dx4| exactly; mixed classes are
    dominated by the pure ones (mediant inequality) and evaluated as one
    array over the K x K mixed sub-lattice.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    prof_p, prof_q = (hn_profile(r, ObjectClass(1, 1)) for r in (p, q))
    log_k = np.log(np.arange(1, K + 1, dtype=float))
    mixed = np.abs(_log_masses(log_k, p) - _log_masses(log_k, q)).max()
    return sup_abs((prof_p.phi_plus - prof_q.phi_plus, prof_p.phi_minus - prof_q.phi_minus,
                    p.x[1] - q.x[1], p.x[3] - q.x[3], float(mixed)))


def _log_masses(log_k: np.ndarray, p: KroneckerPoint) -> np.ndarray:
    """log(k1 exp(x2) + k2 exp(x4)) at row k1, column k2, for k1, k2 = 1..K."""
    a = (log_k + p.x[1])[:, None]
    b = (log_k + p.x[3])[None, :]
    hi = np.maximum(a, b)
    return hi + np.log1p(np.exp(np.minimum(a, b) - hi))


def c_act(p: KroneckerPoint, lam: complex) -> KroneckerPoint:
    """Translation action on the stability model.

    lambda adds Re(lambda) to both phases and pi * Im(lambda) to both
    log-moduli; lambda = 1 is the shift functor (phases + 1, charge
    negated).  The width x3 - x1 is untouched, so the strip is preserved.
    """
    lam = complex(lam)
    re = lam.real
    im = math.pi * lam.imag
    x1, x2, x3, x4 = p.x
    return KroneckerPoint((x1 + re, x2 + im, x3 + re, x4 + im), p.l)


def support_constant(p: KroneckerPoint) -> float:
    """Infimum of admissible support constants: semistable classes are the
    multiples of a single simple, so the worst ratio ||v|| / |Z(v)| is
    max(exp(-x2), exp(-x4))."""
    return max(_modulus(p, 2, -1), _modulus(p, 4, -1))


def c_orbit_distance(lam, lam2):
    """Induced metric on any translation orbit: max{|Re|, pi |Im|} of the
    parameter difference: a float, or for numpy arrays of parameters the
    same operations elementwise, an array with NaN kept."""
    with np.errstate(over="ignore", invalid="ignore"):  # as Python float arithmetic
        z = np.subtract(lam, lam2, dtype=complex)
        d = sup_abs((z.real, math.pi * z.imag))
    return d if isinstance(d, np.ndarray) else float(d)


def random_region_point(rng) -> KroneckerPoint:
    """Random point of the strip 0 < x3 - x1 < 1, spread along the orbit
    directions; used by sampling reports and tests."""
    return KroneckerPoint(random_region_vector(rng))


# the bounds of random_region_vector's draws x1, gap, x2, x4; as the
# column bounds of one rng.uniform block, each row of the block is the
# same doubles as one call
REGION_LOW = (-2.0, 0.05, -1.5, -1.5)
REGION_HIGH = (2.0, 0.95, 1.5, 1.5)


def random_region_vector(rng) -> tuple[float, float, float, float]:
    x1, gap, x2, x4 = (float(rng.uniform(lo, hi)) for lo, hi in zip(REGION_LOW, REGION_HIGH))
    return (x1, x2, x1 + gap, x4)


def region_rows(draws: np.ndarray) -> np.ndarray:
    """The vectors (x1, x2, x1 + gap, x4) of random_region_vector from the
    first four columns (x1, gap, x2, x4) of a draw block, as rows."""
    x = draws[:, [0, 2, 0, 3]]
    x[:, 2] += draws[:, 1]
    return x
