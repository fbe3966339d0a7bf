"""Pseudo-Anosov classification and quantitative dynamics for the
elliptic-curve model.

An autoequivalence acts on the rank-two numerical lattice through an
``Autoeq``, the ``Mat2`` whose entries are ints with determinant exactly
1; it is pseudo-Anosov exactly when the absolute trace exceeds 2, its
stretch factor is the spectral radius, and its translation length on
the quotient of the stability space is the log of the stretch factor
(log |trace| where the stretch factor exceeds a double).  The quotient
is isometric to the upper half-plane with the quarter-curvature
hyperbolic metric (dx^2 + dy^2) / (4 y^2), which provides an
independent cross-check: the displacement-minimizing point lies on the
axis through the two real fixed points of the Moebius action and
realizes arccosh(|trace| / 2).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import accumulate, islice, repeat
from operator import add, sub, truediv
from typing import Optional

from .errors import (
    MissingMatrix,
    NonPositiveDeterminant,
    NotHyperbolic,
    NotPseudoAnosov,
    NotUnimodular,
)
from .lin2 import CoveredMap, Mat2, _with_lift_value, operator_norm, real_number, sup_displacement

MAX_ITERATES = 100_000  # mass_growth_estimate's n; a mass-growth report is then about 2.4 MB
# trace^2 - 4.0 overflows a float from just under |trace| = 2**512; from this
# |trace| on, the stretch factor is |trace| to a relative 1/trace^2, below rounding.
HUGE_TRACE = 1 << 511


@dataclass(frozen=True)
class Autoeq(Mat2):
    """Induced integer matrix of an autoequivalence: a Mat2 whose entries
    are ints, det exactly 1.  The product of two is again an Autoeq."""

    def __post_init__(self):
        for v in (self.a, self.b, self.c, self.d):
            if isinstance(v, bool) or not isinstance(v, int):
                raise NotUnimodular(f"entries must be integers, got {v!r}")
        if self.det != 1:
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


def _trace_root(f: Autoeq) -> float:
    """sqrt(trace^2 - 4), taken as |trace| from HUGE_TRACE on; raises
    OverflowError once |trace| is beyond the doubles."""
    tr = abs(f.trace)
    return float(tr) if tr >= HUGE_TRACE else math.sqrt(tr * tr - 4.0)


def stretch_factor(f: Autoeq) -> float:
    """Spectral radius (|trace| + sqrt(trace^2 - 4)) / 2 of a pseudo-Anosov."""
    tr = abs(f.trace)
    if tr <= 2:
        raise NotPseudoAnosov(f"|trace| = {tr} is not > 2")
    return 0.5 * tr + 0.5 * _trace_root(f)  # halved apart, so |trace| near 2**1024 stays finite


def translation_length(f: Autoeq) -> float:
    """Translation length on the quotient stability space: log of the
    stretch factor, attained (the action is a hyperbolic isometry).  From
    HUGE_TRACE on that is log |trace|, finite for every int."""
    tr = abs(f.trace)
    return math.log(tr) if tr >= HUGE_TRACE else math.log(stretch_factor(f))


def mass_growth_estimate(m: Mat2, seed: MassSeed, n: int) -> list[float]:
    """Sequence a_k = (1/k) log sum_i |M^k z_i| for k = 1..n.

    Vectors are renormalized every step and the log scales accumulated,
    so the iteration cannot overflow; for generic seeds the sequence
    converges to the log of the spectral radius.  Each vector runs its
    recurrence alone, and the log scales and log-sum-exps then run in
    map chains: the same math calls on the same operands as one loop
    over iterates and vectors, in whose order a step norm of zero or
    beyond the doubles (|z| itself included) raises.

    A vector's recurrence stops once the renormalized state
    (x, y) -> M(x, y) / |M(x, y)| returns to itself or to its negative,
    and every later step norm is then the last one, s, exactly.  The map
    is deterministic, and round-to-nearest is odd, so the negated state
    gives negated products, sums and quotients under the same hypot.
    States compare as floats, so a zero component may come back with the
    other sign; that sign only reaches results that are themselves zero,
    and hypot ignores it.  A NaN compares unequal, and the failure checks
    run first, so the failures come in the same order.  With one vector
    the log-sum-exp is hi + log(fsum([exp(0.0)])) = hi + 0.0, which is hi
    (a sum of logs is never -0.0), so a_k is the log scale over k.
    """
    if not 1 <= n <= MAX_ITERATES:
        raise ValueError(f"n must be in 1..{MAX_ITERATES}, got {n!r}")
    a, b, c, d = m.a, m.b, m.c, m.d
    hypot, inf = math.hypot, math.inf
    runs = []
    bad = (n + 1, 0, 0.0)  # (iterate, vector, step norm) of the first failure
    for i, (x, y) in enumerate(seed.vectors):
        s = hypot(x, y)
        norms = [s]  # |z|, then the step norms
        if s < inf:
            append = norms.append
            x, y = x / s, y / s
            for left in range(bad[0] - 2, -1, -1):
                u, v = a * x + b * y, c * x + d * y  # Mat2.apply's expressions, bit for bit
                s = hypot(u, v)
                append(s)
                if not 0.0 < s < inf:
                    break
                u, v = u / s, v / s
                if u == x and v == y or u == -x and v == -y:  # a fixed point, up to sign
                    norms += repeat(s, left)
                    break
                x, y = u, v
        k = len(norms) - 1
        if not 0.0 < s < inf and k < bad[0]:
            bad = (k, i, s)
        runs.append(norms)
    k, i, s = bad
    if k <= n:
        what = "collapses to zero" if s == 0.0 else "overflows a double"
        raise ValueError(f"seed vector {list(seed.vectors[i])} {what} at iterate {k}")
    log = math.log
    scales = [list(islice(accumulate(map(log, norms)), 1, None)) for norms in runs]
    if len(scales) == 1:  # the log-sum-exp of one scale is that scale, bit for bit
        return list(map(truediv, scales[0], range(1, n + 1)))
    his = list(map(max, *scales))
    terms = zip(*[map(math.exp, map(sub, scale, his)) for scale in scales])
    return list(map(truediv, map(add, his, map(log, map(math.fsum, terms))), range(1, n + 1)))


def initial_mass_decay(values: list[float]) -> bool:
    """True when the total mass k * a_k strictly decreases over the first
    10 iterates; such seeds hug a contracting direction and their
    estimates should not be read as the growth rate."""
    head = [k * a for k, a in enumerate(values[:10], start=1)]
    return all(y < x for x, y in zip(head, head[1:]))


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
    curvature -1 hyperbolic distance.

    Where gap^2 / (2 y1 y2) leaves the doubles (gap = |z - w|, y1 and y2
    the imaginary parts), the same distance is asinh(u) with
    u = gap / (2 sqrt(y1) sqrt(y2)), which never squares, and
    log gap - (log y1 + log y2) / 2 where u itself overflows.  Dividing
    gap by the smaller root first, no step of u underflows there, and a
    step overflows only where u exceeds 1e153, far above where the log
    form is exact to rounding.  Where gap itself overflows, u and log gap
    come from the half gap hypot(dx/2, dy/2), finite when dx and dy are;
    where it is subnormal, from 2**54 gap, which keeps its digits."""
    z = _as_upper(z)
    w = _as_upper(w)
    try:
        d = _half_plane_distance(abs(z - w), z.imag, w.imag, math.acosh)
    except (OverflowError, ZeroDivisionError):  # gap ** 2 overflows, or 2 y1 y2 underflows
        d = math.inf
    if d < math.inf:
        return d
    y1, y2, dx, dy = z.imag, w.imag, z.real - w.real, z.imag - w.imag
    r1, r2 = sorted((math.sqrt(y1), math.sqrt(y2)))
    try:  # s |z - w|, with s = 1/2 where |z - w| overflows and 2**54 where it is subnormal
        gap, s = abs(z - w), 1.0
    except OverflowError:
        gap, s = abs(complex(0.5 * dx, 0.5 * dy)), 0.5
    if gap < 2.0 ** -1022:
        gap, s = abs(complex(2.0 ** 54 * dx, 2.0 ** 54 * dy)), 2.0 ** 54
    u = gap / r1 / (2.0 * s * r2)
    return math.asinh(u) if u < math.inf else (math.log(gap) - math.log(s)
                                               - 0.5 * (math.log(y1) + math.log(y2)))


def _half_plane_distance(gap, y1, y2, acosh):
    """poincare_distance from |z - w| and the imaginary parts, for floats
    or arrays, with the matching acosh."""
    return 0.5 * acosh(1.0 + gap ** 2 / (2.0 * y1 * y2))


def mobius_apply(f: Autoeq, z: complex) -> complex:
    z = _as_upper(z)
    a, b, c, d = (float(v) for v in (f.a, f.b, f.c, f.d))
    return complex(*_mobius_parts(a, b, c, d, z.real, z.imag))


def _mobius_parts(a, b, c, d, x, y):
    """Real and imaginary parts of f(x + iy) from the float entries a, b, c, d
    of f, for floats or arrays x, y; the entries may be arrays that
    broadcast against them."""
    # the imaginary part is det * y / |cz + d|^2 = y / |cz + d|^2, det being 1;
    # naive complex division cancels catastrophically for huge integer entries
    den = (c * x + d) ** 2 + (c * y) ** 2
    re = (a * x + b) * (c * x + d) + a * c * y * y
    return re / den, y / den


def displacement_grid(fs, x, y):
    """poincare_distance(z, mobius_apply(f, z)) at every z = x + iy of the
    numpy arrays x and y > 0, for each Autoeq f of the sequence fs: an
    array of shape (len(fs), *x.shape), in one array evaluation of the
    same formulas, whose slice i is the values for fs[i] alone."""
    import numpy as np
    entries = np.array([[float(v) for v in (f.a, f.b, f.c, f.d)] for f in fs])
    a, b, c, d = entries.T.reshape(4, len(fs), *(1,) * np.ndim(x))
    fx, fy = _mobius_parts(a, b, c, d, x, y)
    return _half_plane_distance(np.hypot(x - fx, y - fy), y, fy, np.arccosh)


def poincare_translation_length(f: Autoeq) -> float:
    """arccosh(|trace| / 2) for the hyperbolic case, else 0; equals the log
    of the stretch factor whenever the trace test passes."""
    tr = abs(f.trace)
    if tr <= 2:
        return 0.0
    try:
        return math.acosh(0.5 * tr)
    except OverflowError:  # |trace| beyond the doubles: arccosh(|trace| / 2) = log |trace|
        return math.log(tr)


def axis_point(f: Autoeq) -> complex:
    """A displacement-minimizing point: the apex of the semicircle through
    the two real fixed points of the Moebius action."""
    if abs(f.trace) <= 2:
        raise NotHyperbolic("axis needs |trace| > 2")
    # c != 0 for det-one integer matrices with |trace| > 2; halving before each
    # sum keeps the fixed points (a - d -+ root) / 2c finite up to |trace| = 2**1024
    half_gap, half_root = 0.5 * (f.a - f.d), 0.5 * _trace_root(f)
    p1 = (half_gap - half_root) / f.c
    p2 = (half_gap + half_root) / f.c
    return complex(0.5 * p1 + 0.5 * p2, abs(0.5 * p1 - 0.5 * p2))


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
    return translation_length(f) if abs(f.trace) > 2 else 0.0


@dataclass(frozen=True)
class CurveSummary:
    """The `pa` report; fields carry the names the report prints."""

    genus: int
    pseudo_anosov_exists: bool
    message: str
    classification: Optional[PAClassification] = None
    stretch_factor: Optional[float] = None
    translation_length: Optional[float] = None
    entropy: Optional[float] = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def curve_pa_summary(genus: int, f: Optional[Autoeq] = None) -> CurveSummary:
    """Classification summary for the derived category of a smooth
    projective curve: away from genus one no autoequivalence is
    pseudo-Anosov; at genus one, the only genus a matrix applies to, the
    trace test decides."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if genus != 1 and f is not None:
        raise ValueError(f"an induced matrix applies at genus one only, not genus {genus}")
    if genus != 1:
        return CurveSummary(genus, False, "no pseudo-Anosov autoequivalences exist")
    if f is None:
        raise MissingMatrix("genus one needs the induced matrix")
    cls = pa_classify(f)
    if not cls.pseudo_anosov:
        return CurveSummary(genus, False, f"not pseudo-Anosov ({cls.kind}, trace {cls.trace})",
                            classification=cls, entropy=entropy_value(f))
    try:
        stretch = stretch_factor(f)
    except OverflowError:  # |trace| beyond the doubles: only the logs are reported
        stretch = None
    return CurveSummary(genus, True, f"pseudo-Anosov with trace {cls.trace}",
                        classification=cls, stretch_factor=stretch,
                        translation_length=translation_length(f), entropy=entropy_value(f))


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
    elementary shears (so the trace is at least 3), with a random sign.
    The word is multiplied out on plain ints, one shear power at a time."""
    while True:
        a, b, c, d = 1, 0, 0, 1
        used = [False, False]
        for _ in range(int(rng.integers(2, 5))):
            pick = int(rng.integers(0, 2))
            used[pick] = True
            k = int(rng.integers(1, 3))
            if pick == 0:  # times the lower shear (1, 0, k, 1)
                a, c = a + k * b, c + k * d
            else:  # times the upper shear (1, k, 0, 1)
                b, d = b + k * a, d + k * c
        if not (used[0] and used[1]):
            continue
        if rng.random() < 0.5:
            a, b, c, d = -a, -b, -c, -d
        if abs(a + d) > 2:
            return Autoeq(a, b, c, d)
