"""Pseudo-Anosov classification and quantitative dynamics for the
elliptic-curve model.

An autoequivalence acts on the rank-two numerical lattice through an
integer matrix of determinant one; it is pseudo-Anosov exactly when the
absolute trace exceeds 2, its stretch factor is the spectral radius,
and its translation length on the quotient of the stability space is
the log of the stretch factor.  The quotient is isometric to the upper
half-plane with the quarter-curvature hyperbolic metric
(dx^2 + dy^2) / (4 y^2), which provides an independent cross-check:
the displacement-minimizing point lies on the axis through the two real
fixed points of the Moebius action and realizes arccosh(|trace| / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    MissingMatrix,
    NonPositiveDeterminant,
    NotHyperbolic,
    NotPseudoAnosov,
    NotUnimodular,
)
from .lin2 import CoveredMap, Mat2, _with_lift_value, operator_norm, real_number, sup_displacement


@dataclass(frozen=True)
class Autoeq:
    """Induced integer matrix of an autoequivalence, det exactly 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for v in (self.a, self.b, self.c, self.d):
            if isinstance(v, bool) or not isinstance(v, int):
                raise NotUnimodular(f"entries must be integers, got {v!r}")
        if self.a * self.d - self.b * self.c != 1:
            raise NotUnimodular("determinant must be exactly 1")

    @classmethod
    def from_rows(cls, rows) -> "Autoeq":
        """Matrix from [[a, b], [c, d]]; integral floats such as 2.0 are
        taken as integers, any other non-integer entry is rejected."""
        (a, b), (c, d) = rows
        return cls(*(int(v) if isinstance(v, float) and v.is_integer() else v
                     for v in (a, b, c, d)))

    @property
    def trace(self) -> int:
        return self.a + self.d

    def __matmul__(self, other: "Autoeq") -> "Autoeq":
        return Autoeq(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def power(self, n: int) -> "Autoeq":
        if n < 0:
            return self.inverse().power(-n)
        out = Autoeq(1, 0, 0, 1)
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base
            n >>= 1
        return out

    def inverse(self) -> "Autoeq":
        return Autoeq(self.d, -self.b, -self.c, self.a)

    def as_mat2(self) -> Mat2:
        return Mat2(float(self.a), float(self.b), float(self.c), float(self.d))

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    def to_dict(self) -> dict:
        return {"A": self.rows()}

    @classmethod
    def from_dict(cls, data: dict) -> "Autoeq":
        return cls.from_rows(data["A"])


@dataclass(frozen=True)
class MassSeed:
    """Nonzero charge vectors of the semistable factors of a generator."""

    vectors: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != 2:
                raise ValueError(f"seed vectors must be pairs of numbers, got {list(v)!r}")
        vecs = tuple(tuple(real_number(x, "seed vector entry") for x in v)
                     for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        if not vecs:
            raise ValueError("seed needs at least one vector")
        for v in vecs:
            if v == (0.0, 0.0):
                raise ValueError("seed vectors must be nonzero")

    @classmethod
    def of(cls, *vectors) -> "MassSeed":
        return cls(tuple(vectors))


@dataclass(frozen=True)
class PAClassification:
    pseudo_anosov: bool
    trace: int
    kind: str  # hyperbolic | parabolic | elliptic | central

    def to_dict(self) -> dict:
        return {"pseudo_anosov": self.pseudo_anosov, "trace": self.trace, "kind": self.kind}


def pa_classify(f: Autoeq) -> PAClassification:
    """Trace test: pseudo-Anosov exactly when |trace| > 2."""
    tr = f.trace
    if abs(tr) > 2:
        kind = "hyperbolic"
    elif abs(tr) == 2:
        kind = "central" if f.b == 0 and f.c == 0 else "parabolic"
    else:
        kind = "elliptic"
    return PAClassification(abs(tr) > 2, tr, kind)


def stretch_factor(f: Autoeq) -> float:
    """Spectral radius (|trace| + sqrt(trace^2 - 4)) / 2 of a pseudo-Anosov."""
    tr = abs(f.trace)
    if tr <= 2:
        raise NotPseudoAnosov(f"|trace| = {tr} is not > 2")
    return 0.5 * (tr + math.sqrt(tr * tr - 4.0))


def translation_length(f: Autoeq) -> float:
    """Translation length on the quotient stability space: log of the
    stretch factor, attained (the action is a hyperbolic isometry)."""
    return math.log(stretch_factor(f))


def mass_growth_estimate(m: Mat2, seed: MassSeed, n: int) -> list[float]:
    """Sequence a_k = (1/k) log sum_i |M^k z_i| for k = 1..n.

    Vectors are renormalized every step and the log scales accumulated,
    so the iteration cannot overflow; for generic seeds the sequence
    converges to the log of the spectral radius.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    norms = [math.hypot(*v) for v in seed.vectors]
    logs = [math.log(s) for s in norms]
    units = [(v[0] / s, v[1] / s) for v, s in zip(seed.vectors, norms)]
    out = []
    for k in range(1, n + 1):
        for i, u in enumerate(units):
            w = m.apply(u)
            s = math.hypot(*w)
            if s == 0.0:
                raise ValueError(f"seed vector {list(seed.vectors[i])} collapses to zero "
                                 f"at iterate {k}")
            logs[i] += math.log(s)
            units[i] = (w[0] / s, w[1] / s)
        out.append(_logsumexp(logs) / k)
    return out


def initial_mass_decay(values: list[float]) -> bool:
    """True when the total mass k * a_k strictly decreases over the first
    10 iterates; such seeds hug a contracting direction and their
    estimates should not be read as the growth rate."""
    head = [k * a for k, a in enumerate(values[:10], start=1)]
    return all(y < x for x, y in zip(head, head[1:]))


def _logsumexp(values) -> float:
    hi = max(values)
    return hi + math.log(math.fsum(math.exp(v - hi) for v in values))


def h_coordinate(m: Mat2) -> complex:
    """Upper half-plane coordinate of the stability condition obtained by
    acting with a cover element over m on the degree/rank base point.

    The two charge vectors are pulled back through m, read as complex
    numbers, and their ratio is normalized into the upper half-plane;
    the identity maps to i, and composing m with a rotation-dilation
    leaves the coordinate unchanged.
    """
    if m.det <= 0.0:
        raise NonPositiveDeterminant("need det > 0")
    inv = m.inverse()
    w_e = complex(*inv.apply((0.0, 1.0)))
    w_x = complex(*inv.apply((-1.0, 0.0)))
    z = w_e / w_x
    if z.imag <= 0.0:
        z = 1.0 / z
    if not z.imag > 0.0:
        raise ArithmeticError("coordinate left the upper half-plane")
    return z


def _as_upper(z) -> complex:
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError("point must lie in the upper half-plane")
    return z


def poincare_distance(z, w) -> float:
    """Distance of the metric (dx^2 + dy^2) / (4 y^2): half the classical
    curvature -1 hyperbolic distance."""
    z = _as_upper(z)
    w = _as_upper(w)
    return _half_plane_distance(abs(z - w), z.imag, w.imag, math.acosh)


def _half_plane_distance(gap, y1, y2, acosh):
    """poincare_distance from |z - w| and the imaginary parts, for floats
    or arrays, with the matching acosh."""
    return 0.5 * acosh(1.0 + gap ** 2 / (2.0 * y1 * y2))


def mobius_apply(f: Autoeq, z: complex) -> complex:
    z = _as_upper(z)
    return complex(*_mobius_parts(f, z.real, z.imag))


def _mobius_parts(f: Autoeq, x, y):
    """Real and imaginary parts of f(x + iy), for floats or arrays x, y."""
    # the imaginary part is det * y / |cz + d|^2 with det known exactly;
    # naive complex division cancels catastrophically for huge integer entries
    det = f.a * f.d - f.b * f.c
    a, b, c, d = float(f.a), float(f.b), float(f.c), float(f.d)
    den = (c * x + d) ** 2 + (c * y) ** 2
    re = (a * x + b) * (c * x + d) + a * c * y * y
    return re / den, det * y / den


def displacement_grid(f: Autoeq, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """poincare_distance(z, mobius_apply(f, z)) at every z = x + iy of the
    arrays x and y > 0, in one array evaluation of the same formulas."""
    fx, fy = _mobius_parts(f, x, y)
    return _half_plane_distance(np.hypot(x - fx, y - fy), y, fy, np.arccosh)


def poincare_translation_length(f: Autoeq) -> float:
    """arccosh(|trace| / 2) for the hyperbolic case, else 0; equals the log
    of the stretch factor whenever the trace test passes."""
    tr = abs(f.trace)
    if tr > 2:
        return math.acosh(0.5 * tr)
    return 0.0


def axis_point(f: Autoeq) -> complex:
    """A displacement-minimizing point: the apex of the semicircle through
    the two real fixed points of the Moebius action."""
    if abs(f.trace) <= 2:
        raise NotHyperbolic("axis needs |trace| > 2")
    if f.c == 0:
        # impossible for integer determinant-one matrices with |trace| > 2
        raise ArithmeticError("vertical axis does not occur for unimodular hyperbolics")
    s = math.sqrt(f.trace * f.trace - 4.0)
    p1 = ((f.a - f.d) - s) / (2.0 * f.c)
    p2 = ((f.a - f.d) + s) / (2.0 * f.c)
    return complex(0.5 * (p1 + p2), 0.5 * abs(p1 - p2))


def upper_bound_dbar(g: CoveredMap) -> float:
    """Displacement bound max{sup|f - id|, log ||M||, log ||M^-1||}; valid
    for the action of g on any stability condition."""
    m = g.matrix
    return max(
        sup_displacement(g),
        math.log(operator_norm(m)),
        math.log(operator_norm(m.inverse())),
    )


def c_element(lam: complex) -> CoveredMap:
    """Cover element of the translation by lam: the matrix scales by
    exp(-pi Im) and rotates by -pi Re, and the lift sends 0 to -Re(lam)."""
    lam = complex(lam)
    m = Mat2.rotation(-lam.real).scale(math.exp(-math.pi * lam.imag))
    return _with_lift_value(m, -lam.real)


def entropy_value(f: Autoeq) -> float:
    """Categorical entropy of an elliptic-curve autoequivalence via the
    trace classification: log of the stretch factor when |trace| > 2,
    zero otherwise.  This reports the closed-form value; no generator
    tower is computed."""
    if abs(f.trace) > 2:
        return math.log(stretch_factor(f))
    return 0.0


@dataclass(frozen=True)
class CurveSummary:
    genus: int
    exists: bool
    message: str
    classification: Optional[PAClassification] = None
    stretch: Optional[float] = None
    translation: Optional[float] = None
    entropy: Optional[float] = None

    def to_dict(self) -> dict:
        out = {"genus": self.genus, "pseudo_anosov_exists": self.exists, "message": self.message}
        if self.classification is not None:
            out["classification"] = self.classification.to_dict()
        if self.stretch is not None:
            out["stretch_factor"] = self.stretch
        if self.translation is not None:
            out["translation_length"] = self.translation
        if self.entropy is not None:
            out["entropy"] = self.entropy
        return out


def curve_pa_summary(genus: int, f: Optional[Autoeq] = None) -> CurveSummary:
    """Classification summary for the derived category of a smooth
    projective curve: away from genus one no autoequivalence is
    pseudo-Anosov; at genus one the trace test decides."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if genus != 1:
        return CurveSummary(genus, False, "no pseudo-Anosov autoequivalences exist")
    if f is None:
        raise MissingMatrix("genus one needs the induced matrix")
    cls = pa_classify(f)
    if not cls.pseudo_anosov:
        return CurveSummary(genus, False, f"not pseudo-Anosov ({cls.kind}, trace {cls.trace})",
                            classification=cls, entropy=entropy_value(f))
    return CurveSummary(
        genus,
        True,
        f"pseudo-Anosov with trace {cls.trace}",
        classification=cls,
        stretch=stretch_factor(f),
        translation=translation_length(f),
        entropy=entropy_value(f),
    )


# Built-in classification table: a hyperbolic / parabolic / elliptic mix
# used by the fixture suite and the acceptance tests.
PA_TABLE: tuple[tuple[Autoeq, str], ...] = (
    (Autoeq(2, 1, 1, 1), "hyperbolic"),
    (Autoeq(3, 2, 1, 1), "hyperbolic"),
    (Autoeq(1, 1, 1, 2), "hyperbolic"),
    (Autoeq(2, 3, 1, 2), "hyperbolic"),
    (Autoeq(5, 2, 2, 1), "hyperbolic"),
    (Autoeq(7, 3, 2, 1), "hyperbolic"),
    (Autoeq(-2, -1, -1, -1), "hyperbolic"),
    (Autoeq(-5, 2, 2, -1), "hyperbolic"),
    (Autoeq(1, 1, 0, 1), "parabolic"),
    (Autoeq(1, 0, 1, 1), "parabolic"),
    (Autoeq(1, -3, 0, 1), "parabolic"),
    (Autoeq(-1, 1, 0, -1), "parabolic"),
    (Autoeq(-1, 0, 5, -1), "parabolic"),
    (Autoeq(1, 0, -2, 1), "parabolic"),
    (Autoeq(0, -1, 1, 0), "elliptic"),
    (Autoeq(0, 1, -1, 0), "elliptic"),
    (Autoeq(1, -1, 1, 0), "elliptic"),
    (Autoeq(0, -1, 1, 1), "elliptic"),
    (Autoeq(-1, -1, 1, 0), "elliptic"),
    (Autoeq(0, 1, -1, -1), "elliptic"),
)


def random_unimodular_hyperbolic(rng) -> Autoeq:
    """Random hyperbolic element of SL(2, Z), built as a word in the two
    elementary shears (so the trace is at least 3), with a random sign."""
    lower = Autoeq(1, 0, 1, 1)
    upper = Autoeq(1, 1, 0, 1)
    while True:
        m = Autoeq(1, 0, 0, 1)
        used = [False, False]
        for _ in range(int(rng.integers(2, 5))):
            pick = int(rng.integers(0, 2))
            used[pick] = True
            step = (lower if pick == 0 else upper).power(int(rng.integers(1, 3)))
            m = m @ step
        if not (used[0] and used[1]):
            continue
        if rng.random() < 0.5:
            m = Autoeq(-m.a, -m.b, -m.c, -m.d)
        if abs(m.trace) > 2:
            return m
