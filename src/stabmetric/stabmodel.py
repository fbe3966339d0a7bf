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

import math
from dataclasses import dataclass

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

    def direct_sum(self, other: "ObjectClass") -> "ObjectClass":
        if self.shift != other.shift:
            raise ValueError("direct sums require equal shifts")
        return ObjectClass(self.k1 + other.k1, self.k2 + other.k2, self.shift)

    def to_dict(self) -> dict:
        return {"k": [self.k1, self.k2], "shift": self.shift}

    @classmethod
    def from_dict(cls, data: dict) -> "ObjectClass":
        k1, k2 = data["k"]
        return cls(_integer(k1, "k"), _integer(k2, "k"), _integer(data.get("shift", 0), "shift"))


@dataclass(frozen=True)
class KroneckerPoint:
    """Stability condition on the l-Kronecker quiver, as coordinates in R^4.

    The arrow count l is metadata only: inside the admissible strip the
    Harder-Narasimhan structure does not depend on it.
    """

    x: tuple[float, float, float, float]
    l: int = 3

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if len(self.x) != 4:
            raise ValueError("need exactly four coordinates")
        if self.l < 1:
            raise ValueError("arrow count must be positive")

    @property
    def in_region(self) -> bool:
        return 0.0 < self.x[2] - self.x[0] < 1.0

    def to_dict(self) -> dict:
        return {"x": list(self.x), "l": self.l}

    @classmethod
    def from_dict(cls, data: dict) -> "KroneckerPoint":
        return cls(tuple(real_number(v, "x") for v in data["x"]), _integer(data.get("l", 3), "l"))


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


def _require_region(p: KroneckerPoint) -> None:
    if not p.in_region:
        gap = p.x[2] - p.x[0]
        raise OutsideRegion(f"x3 - x1 = {gap!r} is not in (0, 1)")


def central_charge(p: KroneckerPoint, c: ObjectClass) -> complex:
    """Additive charge of the class, with (-1)^shift for the shift."""
    _require_region(p)
    x1, x2, x3, x4 = p.x
    z = c.k1 * _cexp(x2, x1) + c.k2 * _cexp(x4, x3)
    return -z if c.shift % 2 else z


def _cexp(logmod: float, phase_units: float) -> complex:
    r = math.exp(logmod)
    return complex(r * math.cos(math.pi * phase_units), r * math.sin(math.pi * phase_units))


def hn_profile(p: KroneckerPoint, c: ObjectClass) -> HNProfile:
    """Harder-Narasimhan profile of the class at the given point.

    In the admissible strip the S2 part sits strictly above the S1 part,
    so the factors are S2^{k2} then S1^{k1}; a shift adds n to both
    phases and leaves the mass unchanged.
    """
    _require_region(p)
    x1, x2, x3, x4 = p.x
    factors = []
    if c.k2 > 0:
        factors.append(HNFactor(ObjectClass(0, c.k2, c.shift), x3 + c.shift, c.k2 * math.exp(x4)))
    if c.k1 > 0:
        factors.append(HNFactor(ObjectClass(c.k1, 0, c.shift), x1 + c.shift, c.k1 * math.exp(x2)))
    mass = math.fsum(f.mass_term for f in factors)
    return HNProfile(tuple(factors), mass, factors[0].phase, factors[-1].phase)


def d_B_closed(p: KroneckerPoint, q: KroneckerPoint) -> float:
    """Bridgeland distance between two points of the strip: max_j |x_j - y_j|."""
    _require_region(p)
    _require_region(q)
    return max(abs(a - b) for a, b in zip(p.x, q.x))


def d_B_sampled(p: KroneckerPoint, q: KroneckerPoint, K: int) -> float:
    """Definitional supremum of the Bridgeland metric over classes with
    multiplicities up to K.

    Phase and log-mass differences are shift invariant, so only shift 0
    is enumerated.  For single-simple classes the multiplicity cancels
    algebraically from the log-mass ratio and is dropped before taking
    logs, which keeps the supremum exact; mixed classes are dominated by
    the pure ones (mediant inequality) and evaluated with explicit sums.
    """
    _require_region(p)
    _require_region(q)
    if K < 1:
        raise ValueError("K must be at least 1")
    best = 0.0
    for k1 in range(K + 1):
        for k2 in range(K + 1):
            if k1 == 0 and k2 == 0:
                continue
            cls = ObjectClass(k1, k2)
            prof_p = hn_profile(p, cls)
            prof_q = hn_profile(q, cls)
            best = max(
                best,
                abs(prof_p.phi_plus - prof_q.phi_plus),
                abs(prof_p.phi_minus - prof_q.phi_minus),
                _log_mass_ratio(cls, p, q),
            )
    return best


def _log_mass_ratio(c: ObjectClass, p: KroneckerPoint, q: KroneckerPoint) -> float:
    if c.k2 == 0:
        return abs(p.x[1] - q.x[1])
    if c.k1 == 0:
        return abs(p.x[3] - q.x[3])
    return abs(_log_mass(c, p) - _log_mass(c, q))


def _log_mass(c: ObjectClass, p: KroneckerPoint) -> float:
    a = math.log(c.k1) + p.x[1]
    b = math.log(c.k2) + p.x[3]
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


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
    _require_region(p)
    return max(math.exp(-p.x[1]), math.exp(-p.x[3]))


def c_orbit_distance(lam, lam2) -> float:
    """Induced metric on any translation orbit: max{|Re|, pi |Im|} of the
    parameter difference."""
    z = complex(lam) - complex(lam2)
    return max(abs(z.real), math.pi * abs(z.imag))


def random_region_point(rng) -> KroneckerPoint:
    """Random point of the strip 0 < x3 - x1 < 1, spread along the orbit
    directions; used by sampling reports and tests."""
    return KroneckerPoint(random_region_vector(rng))


def random_region_vector(rng) -> tuple[float, float, float, float]:
    x1 = float(rng.uniform(-2.0, 2.0))
    gap = float(rng.uniform(0.05, 0.95))
    x2 = float(rng.uniform(-1.5, 1.5))
    x4 = float(rng.uniform(-1.5, 1.5))
    return (x1, x2, x1 + gap, x4)
