"""2x2 real linear algebra and the universal cover of GL+(2,R).

Group elements are pairs (M, f): an orientation-preserving matrix M
together with a lift f of the circle map that M induces on rays, where
the circle is R/2Z and all angles are measured in units of pi.  Lifts of
the same matrix differ by even integers, so a pair is stored as the
matrix plus an integer index against the base lift pinned by
f(0) in [0, 2).  That makes equality decidable and composition exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import NonPositiveDeterminant


def real_number(value, what: str) -> float:
    """A real number read from JSON: ints and floats are taken, bools and
    anything else are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Mat2:
    """Real 2x2 matrix, row-major entries."""

    a: float
    b: float
    c: float
    d: float

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def diagonal(cls, p: float, q: float) -> "Mat2":
        return cls(float(p), 0.0, 0.0, float(q))

    @classmethod
    def rotation(cls, angle_units: float) -> "Mat2":
        """Rotation by angle_units * pi radians."""
        th = math.pi * angle_units
        return cls(math.cos(th), -math.sin(th), math.sin(th), math.cos(th))

    @classmethod
    def from_rows(cls, rows) -> "Mat2":
        (a, b), (c, d) = rows
        return cls(*(real_number(v, "matrix entry") for v in (a, b, c, d)))

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "Mat2":
        det = self.det
        if det == 0.0:
            raise ZeroDivisionError("matrix is singular")
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        """Product; two matrices of one subclass (two Autoeq) multiply into it."""
        return (type(self) if type(other) is type(self) else Mat2)(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def scale(self, s: float) -> "Mat2":
        return Mat2(s * self.a, s * self.b, s * self.c, s * self.d)

    def apply(self, v) -> tuple[float, float]:
        x, y = v
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def rows(self) -> list[list[float]]:
        return [[self.a, self.b], [self.c, self.d]]


@dataclass(frozen=True)
class CoveredMap:
    """Element (M, f) of the universal cover of GL+(2,R).

    The lifted circle map is f = f0 + 2 * lift_index where f0 is the
    unique lift of the ray map of ``matrix`` with f0(0) in [0, 2).
    """

    matrix: Mat2
    lift_index: int = 0

    def __post_init__(self):
        if not self.matrix.det > 0.0:
            raise NonPositiveDeterminant("covered maps need det > 0")


def operator_norm(m: Mat2) -> float:
    """Largest singular value: sup of |Mv| over Euclidean unit vectors."""
    t = m.a * m.a + m.b * m.b + m.c * m.c + m.d * m.d
    det = m.det
    gap = math.sqrt(max(t * t - 4.0 * det * det, 0.0))
    return math.sqrt(0.5 * (t + gap))


def _direction_angle(m: Mat2, phi: float) -> float:
    """Angle, in units of pi and valued in (-1, 1], of M applied to the
    unit direction at angle phi."""
    x = math.cos(math.pi * phi)
    y = math.sin(math.pi * phi)
    wx, wy = m.apply((x, y))
    return math.atan2(wy, wx) / math.pi


def _base_at_zero(m: Mat2) -> float:
    return _direction_angle(m, 0.0) % 2.0


def lift_eval(g: CoveredMap, phi: float) -> float:
    """Value f(phi) of the lifted circle map encoded by g."""
    n = math.floor(phi)
    t = phi - n
    if t >= 1.0:  # rounding near the period boundary
        n += 1
        t -= 1.0
    th0 = _direction_angle(g.matrix, 0.0)
    delta = (_direction_angle(g.matrix, t) - th0) % 2.0
    if delta > 1.5:  # true increment lies in [0, 1); heal mod-2 round-off
        delta -= 2.0
    return (th0 % 2.0) + delta + n + 2.0 * g.lift_index


def sup_displacement(g: CoveredMap) -> float:
    """Sup over one period of |f(phi) - phi|, in closed form.

    The lift has slope det M / |M v(phi)|^2, v(phi) being the unit vector
    at angle pi * phi, so f - id is extremal exactly where
    |M v(phi)|^2 = det M.  With the Gram matrix M^T M = [[A, B], [B, C]],
    |M v(phi)|^2 = (A + C)/2 + R cos(2 pi phi - alpha), where
    R = hypot((A - C)/2, B) and alpha = atan2(B, (A - C)/2); the extrema
    therefore solve cos(2 pi phi - alpha) = (det M - (A + C)/2) / R, the
    ratio clamped to [-1, 1].  f - id is evaluated at phi = 0 and at the
    at most four roots in [0, 2); phi = 0 alone covers R = 0, where M is
    conformal and f - id is constant.
    """
    m = g.matrix
    gram_a = m.a * m.a + m.c * m.c
    gram_b = m.a * m.b + m.c * m.d
    gram_c = m.b * m.b + m.d * m.d
    half_gap = 0.5 * (gram_a - gram_c)
    radius = math.hypot(half_gap, gram_b)
    phases = [0.0]
    if radius > 0.0:
        alpha = math.atan2(gram_b, half_gap)
        ratio = (m.det - 0.5 * (gram_a + gram_c)) / radius
        beta = math.acos(min(1.0, max(-1.0, ratio)))
        for angle in (alpha + beta, alpha - beta):
            phi = (angle / (2.0 * math.pi)) % 1.0
            phases += [phi, phi + 1.0]
    return max(abs(lift_eval(g, phi) - phi) for phi in phases)


def _with_lift_value(m: Mat2, value_at_zero: float) -> CoveredMap:
    """Covered map over m whose lift takes the given value at 0."""
    offset = value_at_zero - _base_at_zero(m)
    k = round(offset / 2.0)
    if abs(offset - 2.0 * k) > 1e-6:
        raise ArithmeticError("lift offset drifted away from an even integer")
    return CoveredMap(m, k)


def compose(g1: CoveredMap, g2: CoveredMap) -> CoveredMap:
    """Group law: matrices multiply, lifts compose, (M1,f1)(M2,f2) = (M1 M2, f1 o f2)."""
    m = g1.matrix @ g2.matrix
    return _with_lift_value(m, lift_eval(g1, lift_eval(g2, 0.0)))
