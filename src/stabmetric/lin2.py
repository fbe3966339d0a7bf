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
from dataclasses import dataclass

from .errors import NonPositiveDeterminant, NotHyperbolic


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
        return cls(float(a), float(b), float(c), float(d))

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> float:
        return self.a + self.d

    def inverse(self) -> "Mat2":
        det = self.det
        if det == 0.0:
            raise ZeroDivisionError("matrix is singular")
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
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

    def max_abs_diff(self, other: "Mat2") -> float:
        return max(
            abs(self.a - other.a),
            abs(self.b - other.b),
            abs(self.c - other.c),
            abs(self.d - other.d),
        )


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

    def __call__(self, phi: float) -> float:
        return lift_eval(self, phi)

    def to_dict(self) -> dict:
        return {"matrix": self.matrix.rows(), "lift_index": self.lift_index}

    @classmethod
    def from_dict(cls, data: dict) -> "CoveredMap":
        return cls(Mat2.from_rows(data["matrix"]), int(data.get("lift_index", 0)))


IDENTITY = CoveredMap(Mat2.identity(), 0)


def operator_norm(m: Mat2) -> float:
    """Largest singular value: sup of |Mv| over Euclidean unit vectors."""
    t = m.a * m.a + m.b * m.b + m.c * m.c + m.d * m.d
    det = m.det
    gap = math.sqrt(max(t * t - 4.0 * det * det, 0.0))
    return math.sqrt(0.5 * (t + gap))


def eigen_pair(m: Mat2):
    """Roots of the characteristic polynomial, largest modulus first.

    Modulus ties are broken by the larger real part, then by the larger
    imaginary part, which puts +i before -i for rotations.
    """
    tr = m.trace
    det = m.det
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        s = math.sqrt(disc)
        big = 0.5 * (tr + s) if tr >= 0.0 else 0.5 * (tr - s)
        small = det / big if big != 0.0 else 0.5 * (tr - s)
        if abs(big) < abs(small) or (abs(big) == abs(small) and small > big):
            big, small = small, big
        return (big, small)
    s = 0.5 * math.sqrt(-disc)
    return (complex(0.5 * tr, s), complex(0.5 * tr, -s))


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


_DISP_SAMPLES = 4096
_DISP_REFINE_TOL = 1e-13


def sup_displacement(g: CoveredMap) -> float:
    """Sup over one period of |f(phi) - phi|.

    Dense sampling at _DISP_SAMPLES points of [0, 2) followed by
    golden-section refinement around the best sample; f - id is
    piecewise smooth with few extrema per period for linear maps, so the
    refined bracket is unimodal.
    """

    def disp(phi: float) -> float:
        return abs(lift_eval(g, phi) - phi)

    step = 2.0 / _DISP_SAMPLES
    best_phi = 0.0
    best = disp(0.0)
    for i in range(1, _DISP_SAMPLES):
        phi = i * step
        v = disp(phi)
        if v > best:
            best, best_phi = v, phi
    return max(best, golden_section_max(disp, best_phi - step, best_phi + step,
                                        _DISP_REFINE_TOL))


def golden_section_max(f, lo: float, hi: float, tol: float) -> float:
    """Largest value of f found by golden-section search on [lo, hi],
    shrinking the bracket to width tol; f must be unimodal there."""
    inv = 0.5 * (math.sqrt(5.0) - 1.0)
    p = hi - inv * (hi - lo)
    q = lo + inv * (hi - lo)
    fp, fq = f(p), f(q)
    while hi - lo > tol:
        if fp < fq:
            lo, p, fp = p, q, fq
            q = lo + inv * (hi - lo)
            fq = f(q)
        else:
            hi, q, fq = q, p, fp
            p = hi - inv * (hi - lo)
            fp = f(p)
    return max(fp, fq)


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


def _solve_lift_zero(g: CoveredMap) -> float:
    """The unique x with f(x) = 0, by bisection on the increasing lift."""
    f0 = lift_eval(g, 0.0)
    lo = float(math.floor(-f0))
    hi = lo + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * max(1.0, abs(mid)):
            break
        if lift_eval(g, mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

def invert(g: CoveredMap) -> CoveredMap:
    """Group inverse: f of the result is the functional inverse of f of g."""
    return _with_lift_value(g.matrix.inverse(), _solve_lift_zero(g))


def is_identity(g: CoveredMap, tol: float = 1e-12) -> bool:
    """Semantic identity test: matrix close to I and lift close to id.

    The lift is evaluated rather than comparing lift_index to zero: when a
    float matrix product lands just below the angle wrap at 0, the base
    lift jumps by 2 and the index compensates by -1 for the same map.
    """
    return (
        g.matrix.max_abs_diff(Mat2.identity()) <= tol
        and abs(lift_eval(g, 0.0)) <= tol
    )


def diagonalize_hyperbolic(a: Mat2):
    """Write a determinant-one matrix with |trace| > 2 as h D h^{-1}.

    Returns (h, r, form) with det(h) > 0, |r| > 1 and D = diag(r, 1/r) or
    diag(1/r, r) according to the form tag; the column order of h is the
    one that keeps its determinant positive.
    """
    tr = a.trace
    if abs(tr) <= 2.0:
        raise NotHyperbolic(f"trace {tr!r} has absolute value <= 2")
    if abs(a.det - 1.0) > 1e-9:
        raise ValueError("matrix must have determinant 1")
    s = math.sqrt(tr * tr - 4.0)
    r = 0.5 * (tr + math.copysign(s, tr))
    small = 1.0 / r
    vr = _unit_eigenvector(a, r)
    vs = _unit_eigenvector(a, small)
    h = Mat2(vr[0], vs[0], vr[1], vs[1])
    form = "diag(r,1/r)"
    if h.det <= 0.0:
        h = Mat2(vs[0], vr[0], vs[1], vr[1])
        form = "diag(1/r,r)"
    return h, r, form


def diagonal_from_form(r: float, form: str) -> Mat2:
    if form == "diag(r,1/r)":
        return Mat2.diagonal(r, 1.0 / r)
    if form == "diag(1/r,r)":
        return Mat2.diagonal(1.0 / r, r)
    raise ValueError(f"unknown form tag {form!r}")


def _unit_eigenvector(a: Mat2, lam: float) -> tuple[float, float]:
    u = (a.b, lam - a.a)
    v = (lam - a.d, a.c)
    w = u if math.hypot(*u) >= math.hypot(*v) else v
    n = math.hypot(*w)
    if n == 0.0:
        raise ArithmeticError("degenerate eigenvector")
    w = (w[0] / n, w[1] / n)
    # canonical sign: dominant component positive
    if (abs(w[0]) >= abs(w[1]) and w[0] < 0.0) or (abs(w[1]) > abs(w[0]) and w[1] < 0.0):
        w = (-w[0], -w[1])
    return w
