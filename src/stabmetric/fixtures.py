"""Named verification fixtures.

Each fixture certifies one mathematical claim about the bundled metric
models with fully reproducible inputs: non-unique geodesics on
translation orbits and on the R^4 quotient (hence failure of CAT(0)),
arbitrarily fat triangles (failure of Gromov hyperbolicity), the
isometric embedding of the R^4 model into the Kronecker strip, the
trace classification of pseudo-Anosov autoequivalences, and the
translation-length / mass-growth / entropy identities.

``FIXTURES`` maps each stable id to its claim and its builder.  A
builder ``(seed, resolution) -> (details, checks, certificates)``
computes the evidence: ``details`` is the report's data, ``checks`` is
the ordered sequence of records ``(name, value, relation, bound)`` the
claim rests on, and ``certificates`` are the metriclab certificates it
produced.  A relation is ``<=``, ``>=``, ``<`` or ``>`` with a finite
float bound, or ``is`` with a bool bound for an exact fact.  Every
tolerance lives in the bound: an equality is ``|x - c| <= tol``.
``build_fixture`` alone turns records into verdicts, through
``RELATIONS``, so a NaN value fails every relation.  The fixture passes
when every check holds and its report holds no NaN or infinity, and a
failed one lists the names of its false checks, or ``FINITE_CHECK``, in
``details["failed_checks"]``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics, metriclab, quotient, stabmodel
from .dynamics import Autoeq, MassSeed
from .errors import MissingMatrix
from .lin2 import CoveredMap, Mat2, compose
from .metriclab import SpaceHandle

GOLDEN_RATIO = 0.5 * (1.0 + math.sqrt(5.0))
# displacement grids per array pass: 20 grids of 21 x 21 keep each
# temporary under glibc's 128 KiB mmap threshold, so the heap is reused;
# one pass of all 100 raised the suite's peak RSS by about 0.2 MiB
_GRID_CHUNK = 20


@dataclass
class FixtureResult:
    fixture_id: str
    claim: str
    passed: bool
    details: dict
    certificates: list = field(default_factory=list)


def _corbit_distance_formula(seed: int, resolution: int):
    rng = np.random.default_rng([seed, 1])
    # the 1000 lambdas as (Re, Im) rows: the same doubles as two scalar draws each
    draws = rng.uniform(-5.0, 5.0, (1000, 2))
    exact = np.maximum(np.abs(draws[:, 0]), math.pi * np.abs(draws[:, 1]))
    errs = np.abs(stabmodel.c_orbit_distance(0.0, draws.view(complex)[:, 0]) - exact)
    anchor_real = abs(stabmodel.c_orbit_distance(0.0, 1.0) - 1.0)
    anchor_imag = abs(stabmodel.c_orbit_distance(0.0, 1j) - math.pi)
    # the definitional oracle: class supremum between a strip point and its translate
    oracle_rng = np.random.default_rng([seed, 13])
    rows = oracle_rng.uniform((*stabmodel.REGION_LOW, -2.0, -1.0),
                              (*stabmodel.REGION_HIGH, 2.0, 1.0), (20, 6))
    oracle_errs = []
    for x, (re, im) in zip(stabmodel.region_rows(rows).tolist(), rows[:, 4:].tolist()):
        p = stabmodel.KroneckerPoint(x)
        expected = max(abs(re), math.pi * abs(im))
        oracle = stabmodel.d_B_sampled(p, stabmodel.c_act(p, complex(re, im)), 3)
        oracle_errs.append(abs(oracle - expected))
    details = {"samples": 1000, "max_error": float(np.max(errs)),
               "anchor_real_error": anchor_real, "anchor_imag_error": anchor_imag}
    checks = [(f"{key} <= 1e-12", details[key], "<=", 1e-12)
              for key in ("max_error", "anchor_real_error", "anchor_imag_error")]
    checks.append(("d_B_sampled(p, p.lam, 3) = max{|Re lam|, pi |Im lam|}",
                   float(np.max(oracle_errs)), "<=", 1e-12))
    return details, checks, []


def _nonunique_checks(label: str, cert, r: float) -> list:
    """The bounds a non-unique-geodesic certificate at scale r must meet."""
    return [(f"{label}additivity_residual <= 1e-12", cert.witness["additivity_residual"],
             "<=", 1e-12),
            (f"{label}margin >= r / 4pi", cert.margin, ">=", r / (4.0 * math.pi) - 1e-9)]


def _corbit_nonunique(seed: int, resolution: int):
    space = metriclab.c_orbit_space()
    certs = []
    per_ball = {}
    checks = []
    for r_prime in (0.05, 0.25, 1.0):
        r = 0.8 * min(r_prime, 0.25)
        x, y = 0j, complex(r, 0.0)
        z = 0.5 * r * complex(1.0, 1.0 / (2.0 * math.pi))
        cert = metriclab.nonunique_geodesic_check(space, x, z, y, resolution=resolution)
        certs.append(cert)
        containment = _ball_containment(space, x, ((x, z), (z, y), (x, y)), resolution)
        checks += [*_nonunique_checks(f"{r_prime}: ", cert, r),
                   (f"{r_prime}: max_distance_from_center < r'", containment, "<", r_prime)]
        per_ball[str(r_prime)] = {
            "r": r,
            "margin": cert.margin,
            "additivity_residual": cert.witness["additivity_residual"],
            "max_distance_from_center": containment,
        }
    return {"balls": per_ball}, checks, certs


def _ball_containment(space: SpaceHandle, center, segments, resolution: int) -> float:
    """Largest distance from the center to a sampled point of the segments."""
    ts = metriclab.sample_params(resolution)
    c = space.coords(center)
    return float(np.max([space.pairwise(c, space.path(*space.coords(p0, p1), ts)).max()
                         for p0, p1 in segments]))


def fat_triangle(delta: float, resolution: int):
    """slim_check of the paper's triangle (0, 4 delta, 4 delta i / pi) on the
    translation orbit: the certificate of a side escaping the delta-neighborhood
    of the other two, or None."""
    return metriclab.slim_check(metriclab.c_orbit_space(), 0j, complex(4.0 * delta, 0.0),
                                complex(0.0, 4.0 * delta / math.pi), delta,
                                resolution=resolution)


def _corbit_slim(seed: int, resolution: int):
    certs = []
    rows = {}
    checks = []
    for delta in (1.0, 2.0, 4.0, 8.0):
        cert = fat_triangle(delta, resolution)
        checks.append((f"{delta}: violation found", cert is not None, "is", True))
        if cert is None:
            continue
        expected_witness = complex(2.0 * delta, 2.0 * delta / math.pi)
        checks += [(f"{delta}: witness at (2 delta, 2 delta / pi)",
                    abs(cert.witness["point"] - expected_witness), "<=", 1e-9),
                   (f"{delta}: margin = delta", abs(cert.margin - delta), "<=", 1e-9)]
        certs.append(cert)
        rows[str(delta)] = {"margin": cert.margin,
                            "witness": cert.witness["point"],
                            "witness_side": cert.witness["side"]}
    return {"deltas": rows}, checks, certs


def _corbit_cat0(seed: int, resolution: int):
    space = metriclab.c_orbit_space()
    x, y, z = 0j, complex(2.0, 0.0), complex(1.0, 1.0 / math.pi)
    cert = metriclab.cat0_check(space, x, y, z, resolution=resolution)
    if cert is None:
        return {"margin": None}, [("violation found", False, "is", True)], []
    witness = np.array([cert.witness["p"], cert.witness["q"]])
    checks = [("margin = 1", abs(cert.margin - 1.0), "<=", 1e-9),
              ("a witness is the apex", float(np.min(np.abs(witness - z))), "<=", 1e-9),
              ("a witness is the midpoint 1", float(np.min(np.abs(witness - 1.0))), "<=", 1e-9)]
    return {"margin": cert.margin}, checks, [cert]


def _quotient_nonunique(seed: int, resolution: int):
    r = 0.2
    vectors = [(r, 0.0, 2.0 * r, 0.0), (r, 0.0, 3.0 * r, 0.5 * r), (r, 0.0, 4.0 * r, 0.0)]
    p1, p2, p3 = (quotient.QuotPoint.from_vector(v) for v in vectors)
    qspace = metriclab.quotient_r4_space()
    cert = metriclab.nonunique_geodesic_check(qspace, p1, p2, p3, resolution=resolution)
    cat = metriclab.cat0_check(qspace, p1, p2, p3, resolution=resolution)
    # same construction pushed through the embedding into the Kronecker quotient
    kq = metriclab.kronecker_quotient_space()
    k1, k2, k3 = (quotient.embed_q(v) for v in vectors)
    kcert = metriclab.nonunique_geodesic_check(kq, k1, k2, k3, resolution=resolution)
    d12, d23, d13 = (quotient.quot_dist_closed(a, b) for a, b in ((p1, p2), (p2, p3), (p1, p3)))
    details = {"d12": d12, "d23": d23, "d13": d13, "margin": cert.margin,
               "kronecker_margin": kcert.margin}
    checks = [*_nonunique_checks("", cert, r), *_nonunique_checks("kronecker ", kcert, r),
              ("cat0 margin >= 0.04", -math.inf if cat is None else cat.margin, ">=", 0.04),
              *((f"{key} = {d}", abs(details[key] - d), "<=", 1e-12)
                for key, d in (("d12", 0.1), ("d23", 0.1), ("d13", 0.2)))]
    return details, checks, [c for c in (cert, cat, kcert) if c is not None]


def _closed_form_pairs(seed: int):
    """The 100 random R^4 pairs of quotient-closed-form, then one pair on
    a common orbit, as two (101, 4) arrays: one block of draws whose even
    rows are sigma and odd rows tau, the orbit's base last."""
    rng = np.random.default_rng([seed, 6])
    rows = rng.uniform(-3.0, 3.0, (201, 4))
    x = rows[200]
    moved = quotient.r4_act(x, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    return rows[0::2], np.vstack((rows[1:200:2], moved))


def _quotient_closed_form(seed: int, resolution: int):
    sigma, tau = _closed_form_pairs(seed)
    numeric = quotient.quot_dist_lp(sigma, tau)
    closed, attained = np.array([
        (quotient.quot_dist_closed(quotient.QuotPoint.from_vector(x),
                                   quotient.QuotPoint.from_vector(y)),
         quotient.dprime(quotient.r4_act(x, quotient.quot_minimizer(x, y)), y))
        for x, y in zip(sigma[:-1].tolist(), tau[:-1].tolist())]).T
    details = {"pairs": 100,
               "max_solver_deviation": float(np.max(np.abs(numeric[:-1] - closed))),
               "max_minimizer_deviation": float(np.max(np.abs(attained - closed))),
               # same-orbit pairs collapse to distance zero
               "same_orbit_distance": float(numeric[-1])}
    # the solver is the exact LP optimum rounded once, so both bounds are rounding bounds
    checks = [("max_solver_deviation <= 1e-12", details["max_solver_deviation"], "<=", 1e-12),
              ("max_minimizer_deviation <= 1e-12", details["max_minimizer_deviation"],
               "<=", 1e-12),
              ("same_orbit_distance <= 1e-12", details["same_orbit_distance"], "<=", 1e-12)]
    return details, checks, []


def _embedding_isometry(seed: int, resolution: int):
    report = quotient.isometry_report(200, seed=seed)
    rng = np.random.default_rng([seed, 7])
    # 25 pairs of strip points, then 20 strip vectors with a lambda each:
    # two blocks with the doubles of the scalar draws in their order
    strip = stabmodel.region_rows(
        rng.uniform(stabmodel.REGION_LOW, stabmodel.REGION_HIGH, (50, 4))).tolist()
    points = [stabmodel.KroneckerPoint(x) for x in strip]
    sampled_exact = True
    for p, q in zip(points[0::2], points[1::2]):
        closed = stabmodel.d_B_closed(p, q)
        sampled_exact &= all(stabmodel.d_B_sampled(p, q, cap) == closed for cap in (1, 5, 10))
    rows = rng.uniform((*stabmodel.REGION_LOW, -1.0, -1.0), (*stabmodel.REGION_HIGH, 1.0, 1.0),
                       (20, 6))
    intertwine = []
    for x, (re, im) in zip(stabmodel.region_rows(rows).tolist(), rows[:, 4:].tolist()):
        left = quotient.embed_q(quotient.r4_act(x, complex(re, im)))
        right = stabmodel.c_act(quotient.embed_q(x), complex(re, im / math.pi))
        intertwine += [abs(a - b) for a, b in zip(left.x, right.x)]
    max_intertwine = float(np.max(intertwine))
    anchor = stabmodel.d_B_closed(
        quotient.embed_q((0.2, 0.0, 0.5, 0.3)), quotient.embed_q((0.3, -0.1, 0.9, 0.0))
    )
    checks = [("max_metric_deviation <= 1e-12", report.max_metric_deviation, "<=", 1e-12),
              ("max_quotient_deviation <= 1e-12", report.max_quotient_deviation, "<=", 1e-12),
              ("sampled supremum exact", sampled_exact, "is", True),
              ("max_intertwining_deviation <= 1e-12", max_intertwine, "<=", 1e-12),
              ("anchor_distance = 0.4", abs(anchor - 0.4), "<=", 1e-12)]
    details = {"report": report, "sampled_supremum_exact": sampled_exact,
               "max_intertwining_deviation": max_intertwine, "anchor_distance": anchor}
    return details, checks, []


def _pa_table(seed: int, resolution: int):
    rows = []
    checks = []
    for mat, expected in dynamics.PA_TABLE:
        cls = dynamics.pa_classify(mat)
        ok = (cls.kind == expected and cls.pseudo_anosov == (expected == "hyperbolic")
              and cls.trace == mat.trace)
        rows.append({"matrix": mat.rows(), "expected": expected,
                     "kind": cls.kind, "trace": cls.trace, "ok": ok})
        checks.append((f"row {len(rows)} {mat.rows()}: {expected}", ok, "is", True))
    checks += [(f"genus {genus}: none exists",
                dynamics.curve_pa_summary(genus).pseudo_anosov_exists, "is", False)
               for genus in (0, 2, 5)]
    genus_one = dynamics.curve_pa_summary(1, Autoeq(2, 1, 1, 1))
    checks.append(("genus 1: [[2, 1], [1, 1]] exists", genus_one.pseudo_anosov_exists,
                   "is", True))
    try:
        dynamics.curve_pa_summary(1)
        missing_ok = False
    except MissingMatrix:
        missing_ok = True
    checks.append(("genus 1 without a matrix: MissingMatrix", missing_ok, "is", True))
    return {"table": rows, "genus_one": genus_one.to_dict()}, checks, []


def _translation_crosscheck(seed: int, resolution: int):
    anchor = Autoeq(2, 1, 1, 1)
    target = math.log(0.5 * (3.0 + math.sqrt(5.0)))
    anchor_err = abs(dynamics.translation_length(anchor) - target)
    rng = np.random.default_rng([seed, 9])
    devs = []
    conjugation_ok = True
    mats = []
    for _ in range(100):
        mat = dynamics.random_unimodular_hyperbolic(rng)
        length = dynamics.translation_length(mat)
        pair_dev = abs(length - dynamics.poincare_translation_length(mat))
        apex = dynamics.axis_point(mat)
        axis_dev = abs(dynamics.poincare_distance(apex, dynamics.mobius_apply(mat, apex))
                       - length)
        mats.append(mat)
        devs.append((pair_dev, axis_dev, length - 1e-3))  # the grid's floor last
        conj = dynamics.random_unimodular_hyperbolic(rng)
        conjugation_ok &= (conj @ mat @ conj.inverse()).trace == mat.trace
    devs = np.array(devs)
    grid_x, grid_y = np.meshgrid(np.linspace(-3.0, 3.0, 21), np.geomspace(0.05, 20.0, 21),
                                 indexing="ij")
    # each grid's minimum, _GRID_CHUNK matrices per array pass
    disp = np.concatenate([
        dynamics.displacement_grid(mats[lo:lo + _GRID_CHUNK], grid_x, grid_y).min(axis=(1, 2))
        for lo in range(0, len(mats), _GRID_CHUNK)])
    max_pair_dev, max_axis_dev = devs[:, :2].max(axis=0).tolist()
    min_grid_margin = float((disp - devs[:, 2]).min())
    checks = [("anchor_error <= 1e-12", anchor_err, "<=", 1e-12),
              ("max_pair_deviation <= 1e-12", max_pair_dev, "<=", 1e-12),
              ("max_axis_deviation <= 1e-9", max_axis_dev, "<=", 1e-9),
              ("min_grid_margin >= 0", min_grid_margin, ">=", 0.0),
              ("trace is conjugation invariant", conjugation_ok, "is", True)]
    details = {"anchor_error": anchor_err, "max_pair_deviation": max_pair_dev,
               "max_axis_deviation": max_axis_dev, "min_grid_margin": min_grid_margin,
               "conjugation_invariant": conjugation_ok}
    return details, checks, []


def _mass_growth(seed: int, resolution: int):
    mat = Mat2.from_rows([[2.0, 1.0], [1.0, 1.0]])
    target = math.log(0.5 * (3.0 + math.sqrt(5.0)))
    rows = {}
    checks = []
    for name, vectors in (
        ("unit", ((1.0, 0.0),)),
        ("generic", ((0.3, 0.7), (-1.0, 2.0))),
    ):
        values = dynamics.mass_growth_estimate(mat, MassSeed(vectors), 200)
        errs = {n: abs(values[n - 1] - target) for n in (50, 100, 200)}
        decay = dynamics.initial_mass_decay(values)
        checks += [(f"{name}: error at 200 <= 0.02", errs[200], "<=", 0.02),
                   (f"{name}: errors at 50 > 100 > 200",
                    float(np.min(np.diff([errs[200], errs[100], errs[50]]))), ">", 0.0),
                   (f"{name}: no initial decay", decay, "is", False)]
        rows[name] = {"a200": values[199], "errors": {str(k): v for k, v in errs.items()},
                      "initial_decay": decay}
    identity_values = dynamics.mass_growth_estimate(Mat2.identity(), MassSeed.of((3.0, 4.0)), 200)
    checks.append(("identity: |a200| <= 0.01", abs(identity_values[199]), "<=", 0.01))
    contracting = dynamics.mass_growth_estimate(
        mat, MassSeed.of((1.0, -GOLDEN_RATIO)), 200
    )
    decay_flagged = dynamics.initial_mass_decay(contracting)
    checks.append(("contracting: initial decay flagged", decay_flagged, "is", True))
    rows["contracting"] = {"a200": contracting[199], "initial_decay": decay_flagged,
                           "note": "flagged: early iterates decay, estimate unreliable"}
    rows["identity"] = {"a200": identity_values[199]}
    return {"target": target, "seeds": rows}, checks, []


def _entropy_chain(seed: int, resolution: int):
    checks = []
    gaps = []
    for i, (mat, expected) in enumerate(dynamics.PA_TABLE, start=1):
        entropy = dynamics.entropy_value(mat)
        checks.append((f"row {i}: entropy >= translation length", entropy, ">=",
                       dynamics.poincare_translation_length(mat) - 1e-12))
        if expected == "hyperbolic":
            gaps.append(abs(entropy - dynamics.translation_length(mat)))
            checks.append((f"row {i}: entropy = translation length", gaps[-1], "<=", 1e-12))
    anchor = Autoeq(2, 1, 1, 1)
    rho = dynamics.stretch_factor(anchor)
    length = dynamics.translation_length(anchor)
    diag = CoveredMap(Mat2.diagonal(1.0 / rho, rho))
    diag_bound = dynamics.upper_bound_dbar(diag)
    min_over_translates = float(np.min([
        dynamics.upper_bound_dbar(compose(diag, dynamics.c_element(lam)))
        for lam in (0.0, 0.3, -0.2 + 0.1j, 0.5j, 1.0 + 0.2j)]))
    n = 100
    orbit_rate = dynamics.poincare_distance(
        1j, dynamics.mobius_apply(anchor.power(n), 1j)
    ) / n
    checks += [("diagonal_bound = translation length", abs(diag_bound - length), "<=", 1e-12),
               ("min_bound_over_translates >= translation length", min_over_translates,
                ">=", length - 1e-12),
               ("orbit_rate_n100 = translation length (0.01)", abs(orbit_rate - length),
                "<=", 0.01)]
    details = {"max_entropy_gap": float(np.max(gaps)), "diagonal_bound": diag_bound,
               "min_bound_over_translates": min_over_translates,
               "orbit_rate_n100": orbit_rate, "translation_length": length}
    return details, checks, []


def _straight_lines(seed: int, resolution: int):
    rng = np.random.default_rng([seed, 12])
    res = min(resolution, 128)
    samplers = (
        (metriclab.c_orbit_space(),
         lambda: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))),
        (metriclab.quotient_r4_space(),
         lambda: quotient.QuotPoint.from_vector(rng.uniform(-2.0, 2.0, 4))),
        (metriclab.kronecker_space(),
         lambda: stabmodel.random_region_point(rng)),
    )
    # five random pairs per space, drawn in order: orbit, quotient, strip
    dev_corbit, dev_quot, dev_kron = (
        float(np.max([metriclab.geodesic_deviation(space, sample(), sample(), resolution=res)
                      for _ in range(5)]))
        for space, sample in samplers
    )
    arc = replace(metriclab.euclidean_plane(), name="euclidean-quarter-arc",
                  path=lambda a, b, ts: np.column_stack((np.cos(0.5 * math.pi * ts),
                                                         np.sin(0.5 * math.pi * ts))))
    dev_arc = metriclab.geodesic_deviation(arc, 1.0 + 0j, 1j, resolution=256)
    oracle = _quarter_arc_oracle()
    details = {"corbit_deviation": dev_corbit, "quotient_deviation": dev_quot,
               "kronecker_deviation": dev_kron, "arc_deviation": dev_arc,
               "arc_oracle": oracle}
    checks = [(f"{key} <= 1e-12", details[key], "<=", 1e-12)
              for key in ("corbit_deviation", "quotient_deviation", "kronecker_deviation")]
    checks += [("|arc_deviation - arc_oracle| <= 1e-3", abs(dev_arc - oracle), "<=", 1e-3),
               ("arc_deviation > 0.05", dev_arc, ">", 0.05)]
    return details, checks, []


def _quarter_arc_oracle() -> float:
    """Max of chord(u) - u * chord(1) = 2 sin(pi u / 4) - sqrt(2) u for the
    quarter arc, attained where cos(pi u / 4) = c = 2 sqrt(2) / pi."""
    c = 2.0 * math.sqrt(2.0) / math.pi
    return 2.0 * math.sqrt(1.0 - c * c) - 4.0 * math.sqrt(2.0) / math.pi * math.acos(c)


FIXTURES: dict[str, tuple[str, object]] = {
    "corbit-distance-formula": (
        "orbit distance from the base point is max{|Re|, pi |Im|}",
        _corbit_distance_formula),
    "corbit-nonunique-geodesic": (
        "every ball around an orbit point contains two distinct geodesics "
        "with the same endpoints, so the orbit metric is not locally CAT(0)",
        _corbit_nonunique),
    "corbit-slim-violation": (
        "for every delta the orbit contains a triangle whose side escapes "
        "the delta-neighborhood of the other two, so the metric is not hyperbolic",
        _corbit_slim),
    "corbit-cat0-violation": (
        "a degenerate comparison triangle on the orbit is beaten by the "
        "actual distances: a direct comparison-inequality violation, which "
        "is strictly stronger than the non-unique-geodesic argument",
        _corbit_cat0),
    "quotient-nonunique-geodesic": (
        "the R^4 quotient metric, and its isometric image in the Kronecker "
        "quotient, admit two distinct geodesics between fixed endpoints, so "
        "neither quotient is CAT(0)",
        _quotient_nonunique),
    "quotient-closed-form": (
        "the infimum over the translation action equals the closed-form "
        "quotient distance and is attained at the averaged parameter",
        _quotient_closed_form),
    "kronecker-embedding-isometry": (
        "the coordinate embedding of the R^4 model into the Kronecker strip "
        "preserves both the plain and the quotient metrics, and the "
        "definitional class supremum agrees with the closed form",
        _embedding_isometry),
    "pa-classification-table": (
        "an elliptic-curve autoequivalence is pseudo-Anosov exactly when "
        "its induced matrix has |trace| > 2; other genera admit none",
        _pa_table),
    "translation-length-crosscheck": (
        "the translation length log(stretch factor) matches the hyperbolic "
        "displacement arccosh(|trace|/2), is attained on the axis, and is "
        "a lower bound for the displacement everywhere",
        _translation_crosscheck),
    "mass-growth-convergence": (
        "renormalized mass iteration converges to log(stretch factor) for "
        "generic seeds; contracting-direction seeds are flagged by their "
        "early decay",
        _mass_growth),
    "entropy-chain": (
        "entropy equals the translation length for pseudo-Anosov matrices "
        "and dominates it on the whole table; the displacement bound of the "
        "diagonal cover element and the orbit growth rate both pin the same "
        "value",
        _entropy_chain),
    "geodesic-straight-lines": (
        "straight coordinate lines are geodesics for the orbit, strip and "
        "quotient metrics, while an arc-parameterized quarter circle in the "
        "plane fails the geodesic equation by a computable margin",
        _straight_lines),
}


RELATIONS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt,
             "is": operator.is_}
FINITE_CHECK = "every reported value finite"


def null_non_finite(value):
    """A JSON value with each NaN and infinity in it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, list):
        return [null_non_finite(v) for v in value]
    if isinstance(value, dict):
        return {k: null_non_finite(v) for k, v in value.items()}
    return value


def build_fixture(fid: str, seed: int = 0, resolution: int = 512) -> FixtureResult:
    """Run one fixture: a check holds when ``RELATIONS[relation](value,
    bound)`` does, the fixture passes when every check holds, and a failed
    one lists its false checks in ``details["failed_checks"]``.  One whose
    checks all hold still fails, by ``FINITE_CHECK`` alone, when its
    details or certificates hold a NaN or an infinity.  Its certificates
    carry the run's seed.  Unexpected errors become a failed result
    rather than aborting the suite."""
    claim, builder = FIXTURES[fid]
    try:
        details, checks, certificates = builder(seed, resolution)
        certificates = [replace(cert, seed=seed) for cert in certificates]
        failed = [name for name, value, relation, bound in checks
                  if not RELATIONS[relation](value, bound)]
        if not failed:  # +inf passes ">=", and some values feed no check
            report = metriclab.as_jsonable([details, certificates])
            if null_non_finite(report) != report:  # nulling replaced a NaN or an inf
                failed = [FINITE_CHECK]
    except Exception as exc:  # noqa: BLE001 - recorded, not swallowed
        return FixtureResult(fid, claim, False,
                             {"error": type(exc).__name__, "message": str(exc)})
    if failed:
        details = {**details, "failed_checks": failed}
    return FixtureResult(fid, claim, not failed, details, certificates)


def fixture_ids(filter_str: str = "") -> list[str]:
    """Registry ids containing the filter substring, in registry order."""
    return [fid for fid in FIXTURES if filter_str in fid]
