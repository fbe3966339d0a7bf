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
computes the evidence: ``details`` is the report's data, ``checks``
maps the name of each inequality the claim rests on to whether it held,
and ``certificates`` are the metriclab certificates it produced.
``build_fixture`` alone turns that into a ``FixtureResult``: the fixture
passes when every check holds, and a failed one lists the names of its
false checks in ``details["failed_checks"]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics, metriclab, quotient, stabmodel
from .dynamics import Autoeq, MassSeed
from .errors import MissingMatrix
from .lin2 import CoveredMap, Mat2, compose, golden_section_max
from .metriclab import SpaceHandle

GOLDEN_RATIO = 0.5 * (1.0 + math.sqrt(5.0))


@dataclass
class FixtureResult:
    fixture_id: str
    claim: str
    passed: bool
    details: dict
    certificates: list = field(default_factory=list)


def _corbit_distance_formula(seed: int, resolution: int):
    rng = np.random.default_rng([seed, 1])
    max_err = 0.0
    for _ in range(1000):
        lam = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        expected = max(abs(lam.real), math.pi * abs(lam.imag))
        max_err = max(max_err, abs(stabmodel.c_orbit_distance(0.0, lam) - expected))
    anchor_real = abs(stabmodel.c_orbit_distance(0.0, 1.0) - 1.0)
    anchor_imag = abs(stabmodel.c_orbit_distance(0.0, 1j) - math.pi)
    # the definitional oracle: class supremum between a strip point and its translate
    oracle_rng = np.random.default_rng([seed, 13])
    oracle_err = 0.0
    for _ in range(20):
        p = stabmodel.random_region_point(oracle_rng)
        lam = complex(oracle_rng.uniform(-2.0, 2.0), oracle_rng.uniform(-1.0, 1.0))
        expected = max(abs(lam.real), math.pi * abs(lam.imag))
        oracle = stabmodel.d_B_sampled(p, stabmodel.c_act(p, lam), 3)
        oracle_err = max(oracle_err, abs(oracle - expected))
    details = {"samples": 1000, "max_error": max_err,
               "anchor_real_error": anchor_real, "anchor_imag_error": anchor_imag}
    checks = {f"{key} <= 1e-12": details[key] <= 1e-12
              for key in ("max_error", "anchor_real_error", "anchor_imag_error")}
    checks["d_B_sampled(p, p.lam, 3) = max{|Re lam|, pi |Im lam|}"] = oracle_err <= 1e-12
    return details, checks, []


def _nonunique_checks(label: str, cert, r: float) -> dict:
    """The bounds a non-unique-geodesic certificate at scale r must meet."""
    return {
        f"{label}additivity_residual <= 1e-12": cert.witness["additivity_residual"] <= 1e-12,
        f"{label}margin >= r / 4pi": cert.margin >= r / (4.0 * math.pi) - 1e-9,
    }


def _corbit_nonunique(seed: int, resolution: int):
    space = metriclab.c_orbit_space()
    certs = []
    per_ball = {}
    checks = {}
    for r_prime in (0.05, 0.25, 1.0):
        r = 0.8 * min(r_prime, 0.25)
        x, y = 0j, complex(r, 0.0)
        z = 0.5 * r * complex(1.0, 1.0 / (2.0 * math.pi))
        cert = metriclab.nonunique_geodesic_check(space, x, z, y,
                                                  resolution=resolution, seed=seed)
        certs.append(cert)
        containment = _ball_containment(space, x, ((x, z), (z, y), (x, y)), resolution)
        checks.update(_nonunique_checks(f"{r_prime}: ", cert, r))
        checks[f"{r_prime}: max_distance_from_center < r'"] = containment < r_prime
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
    return max(float(space.pairwise(c, space.path(*space.coords(p0, p1), ts)).max())
               for p0, p1 in segments)


def _corbit_slim(seed: int, resolution: int):
    space = metriclab.c_orbit_space()
    certs = []
    rows = {}
    checks = {}
    for delta in (1.0, 2.0, 4.0, 8.0):
        x = 0j
        y = complex(4.0 * delta, 0.0)
        z = complex(0.0, 4.0 * delta / math.pi)
        cert = metriclab.slim_check(space, x, y, z, delta,
                                    resolution=resolution, seed=seed)
        checks[f"{delta}: violation found"] = cert is not None
        if cert is None:
            continue
        expected_witness = complex(2.0 * delta, 2.0 * delta / math.pi)
        checks[f"{delta}: witness at (2 delta, 2 delta / pi)"] = (
            abs(cert.witness["point"] - expected_witness) <= 1e-9)
        checks[f"{delta}: margin = delta"] = abs(cert.margin - delta) <= 1e-9
        certs.append(cert)
        rows[str(delta)] = {"margin": cert.margin,
                            "witness": cert.witness["point"],
                            "witness_side": cert.witness["side"]}
    return {"deltas": rows}, checks, certs


def _corbit_cat0(seed: int, resolution: int):
    space = metriclab.c_orbit_space()
    x, y, z = 0j, complex(2.0, 0.0), complex(1.0, 1.0 / math.pi)
    cert = metriclab.cat0_check(space, x, y, z, resolution=resolution, seed=seed)
    if cert is None:
        return {"margin": None}, {"violation found": False}, []
    witness_points = (cert.witness["p"], cert.witness["q"])
    checks = {
        "margin = 1": abs(cert.margin - 1.0) <= 1e-9,
        "a witness is the apex": any(abs(p - z) <= 1e-9 for p in witness_points),
        "a witness is the midpoint 1": any(abs(p - complex(1.0, 0.0)) <= 1e-9
                                           for p in witness_points),
    }
    return {"margin": cert.margin}, checks, [cert]


def _quotient_nonunique(seed: int, resolution: int):
    r = 0.2
    vectors = [(r, 0.0, 2.0 * r, 0.0), (r, 0.0, 3.0 * r, 0.5 * r), (r, 0.0, 4.0 * r, 0.0)]
    p1, p2, p3 = (quotient.QuotPoint.from_vector(v) for v in vectors)
    qspace = metriclab.quotient_r4_space()
    cert = metriclab.nonunique_geodesic_check(qspace, p1, p2, p3,
                                              resolution=resolution, seed=seed)
    cat = metriclab.cat0_check(qspace, p1, p2, p3, resolution=resolution, seed=seed)
    # same construction pushed through the embedding into the Kronecker quotient
    kq = metriclab.kronecker_quotient_space()
    k1, k2, k3 = (quotient.embed_q(v) for v in vectors)
    kcert = metriclab.nonunique_geodesic_check(kq, k1, k2, k3,
                                               resolution=resolution, seed=seed)
    d12 = quotient.quot_dist_closed(p1, p2)
    d23 = quotient.quot_dist_closed(p2, p3)
    d13 = quotient.quot_dist_closed(p1, p3)
    checks = {
        **_nonunique_checks("", cert, r),
        **_nonunique_checks("kronecker ", kcert, r),
        "cat0 margin >= 0.04": cat is not None and cat.margin >= 0.04,
        "d12 = 0.1": abs(d12 - 0.1) <= 1e-12,
        "d23 = 0.1": abs(d23 - 0.1) <= 1e-12,
        "d13 = 0.2": abs(d13 - 0.2) <= 1e-12,
    }
    details = {"d12": d12, "d23": d23, "d13": d13, "margin": cert.margin,
               "kronecker_margin": kcert.margin}
    return details, checks, [c for c in (cert, cat, kcert) if c is not None]


def _closed_form_pairs(seed: int):
    """The 100 random R^4 pairs of quotient-closed-form, then one pair on
    a common orbit."""
    rng = np.random.default_rng([seed, 6])
    sigma, tau = [], []
    for _ in range(100):
        sigma.append(tuple(rng.uniform(-3.0, 3.0, 4)))
        tau.append(tuple(rng.uniform(-3.0, 3.0, 4)))
    x = tuple(rng.uniform(-3.0, 3.0, 4))
    sigma.append(x)
    tau.append(quotient.r4_act(x, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
    return sigma, tau


def _quotient_closed_form(seed: int, resolution: int):
    sigma, tau = _closed_form_pairs(seed)
    numeric = quotient.quot_dist_pairs(sigma, tau).tolist()
    max_solver_dev = 0.0
    max_minimizer_dev = 0.0
    for x, y, value in zip(sigma[:-1], tau[:-1], numeric):
        closed = quotient.quot_dist_closed(quotient.QuotPoint.from_vector(x),
                                           quotient.QuotPoint.from_vector(y))
        attained = quotient.dprime(quotient.r4_act(x, quotient.quot_minimizer(x, y)), y)
        max_solver_dev = max(max_solver_dev, abs(value - closed))
        max_minimizer_dev = max(max_minimizer_dev, abs(attained - closed))
    same_orbit = numeric[-1]  # same-orbit pairs collapse to distance zero
    checks = {
        "max_solver_deviation <= 1e-6": max_solver_dev <= 1e-6,
        "max_minimizer_deviation <= 1e-12": max_minimizer_dev <= 1e-12,
        "same_orbit_distance <= 1e-9": same_orbit <= 1e-9,
    }
    details = {"pairs": 100, "max_solver_deviation": max_solver_dev,
               "max_minimizer_deviation": max_minimizer_dev,
               "same_orbit_distance": same_orbit}
    return details, checks, []


def _embedding_isometry(seed: int, resolution: int):
    report = quotient.isometry_report(200, seed=seed)
    rng = np.random.default_rng([seed, 7])
    sampled_exact = True
    for _ in range(25):
        p = stabmodel.random_region_point(rng)
        q = stabmodel.random_region_point(rng)
        closed = stabmodel.d_B_closed(p, q)
        for cap in (1, 5, 10):
            if stabmodel.d_B_sampled(p, q, cap) != closed:
                sampled_exact = False
    max_intertwine = 0.0
    for _ in range(20):
        x = stabmodel.random_region_vector(rng)
        lam = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        left = quotient.embed_q(quotient.r4_act(x, lam))
        right = stabmodel.c_act(quotient.embed_q(x), complex(lam.real, lam.imag / math.pi))
        max_intertwine = max(max_intertwine,
                             max(abs(a - b) for a, b in zip(left.x, right.x)))
    anchor = stabmodel.d_B_closed(
        quotient.embed_q((0.2, 0.0, 0.5, 0.3)), quotient.embed_q((0.3, -0.1, 0.9, 0.0))
    )
    checks = {
        "max_metric_deviation <= 1e-12": report.max_metric_deviation <= 1e-12,
        "max_quotient_deviation <= 1e-12": report.max_quotient_deviation <= 1e-12,
        "sampled supremum exact": sampled_exact,
        "max_intertwining_deviation <= 1e-12": max_intertwine <= 1e-12,
        "anchor_distance = 0.4": abs(anchor - 0.4) <= 1e-12,
    }
    details = {"report": report, "sampled_supremum_exact": sampled_exact,
               "max_intertwining_deviation": max_intertwine, "anchor_distance": anchor}
    return details, checks, []


def _pa_table(seed: int, resolution: int):
    rows = []
    checks = {}
    for mat, expected in dynamics.PA_TABLE:
        cls = dynamics.pa_classify(mat)
        ok = (cls.kind == expected and cls.pseudo_anosov == (expected == "hyperbolic")
              and cls.trace == mat.trace)
        rows.append({"matrix": mat.rows(), "expected": expected,
                     "kind": cls.kind, "trace": cls.trace, "ok": ok})
        checks[f"row {len(rows)} {mat.rows()}: {expected}"] = ok
    for genus in (0, 2, 5):
        checks[f"genus {genus}: none exists"] = not dynamics.curve_pa_summary(genus).exists
    genus_one = dynamics.curve_pa_summary(1, Autoeq(2, 1, 1, 1))
    checks["genus 1: [[2, 1], [1, 1]] exists"] = genus_one.exists
    try:
        dynamics.curve_pa_summary(1)
        missing_ok = False
    except MissingMatrix:
        missing_ok = True
    checks["genus 1 without a matrix: MissingMatrix"] = missing_ok
    return {"table": rows, "genus_one": genus_one.to_dict()}, checks, []


def _translation_crosscheck(seed: int, resolution: int):
    anchor = Autoeq(2, 1, 1, 1)
    target = math.log(0.5 * (3.0 + math.sqrt(5.0)))
    anchor_err = abs(dynamics.translation_length(anchor) - target)
    rng = np.random.default_rng([seed, 9])
    max_pair_dev = 0.0
    max_axis_dev = 0.0
    min_grid_margin = math.inf
    conjugation_ok = True
    grid_x, grid_y = np.meshgrid(np.linspace(-3.0, 3.0, 21), np.geomspace(0.05, 20.0, 21),
                                 indexing="ij")
    for _ in range(100):
        mat = dynamics.random_unimodular_hyperbolic(rng)
        length = dynamics.translation_length(mat)
        max_pair_dev = max(max_pair_dev,
                           abs(length - dynamics.poincare_translation_length(mat)))
        apex = dynamics.axis_point(mat)
        max_axis_dev = max(max_axis_dev,
                           abs(dynamics.poincare_distance(apex, dynamics.mobius_apply(mat, apex))
                               - length))
        disp = float(dynamics.displacement_grid(mat, grid_x, grid_y).min())
        min_grid_margin = min(min_grid_margin, disp - (length - 1e-3))
        conj = dynamics.random_unimodular_hyperbolic(rng)
        conjugated = conj @ mat @ conj.inverse()
        conjugation_ok = conjugation_ok and conjugated.trace == mat.trace
    checks = {
        "anchor_error <= 1e-12": anchor_err <= 1e-12,
        "max_pair_deviation <= 1e-12": max_pair_dev <= 1e-12,
        "max_axis_deviation <= 1e-9": max_axis_dev <= 1e-9,
        "min_grid_margin >= 0": min_grid_margin >= 0.0,
        "trace is conjugation invariant": conjugation_ok,
    }
    details = {"anchor_error": anchor_err, "max_pair_deviation": max_pair_dev,
               "max_axis_deviation": max_axis_dev, "min_grid_margin": min_grid_margin,
               "conjugation_invariant": conjugation_ok}
    return details, checks, []


def _mass_growth(seed: int, resolution: int):
    mat = Mat2.from_rows([[2.0, 1.0], [1.0, 1.0]])
    target = math.log(0.5 * (3.0 + math.sqrt(5.0)))
    rows = {}
    checks = {}
    for name, vectors in (
        ("unit", ((1.0, 0.0),)),
        ("generic", ((0.3, 0.7), (-1.0, 2.0))),
    ):
        values = dynamics.mass_growth_estimate(mat, MassSeed(vectors), 200)
        errs = {n: abs(values[n - 1] - target) for n in (50, 100, 200)}
        decay = dynamics.initial_mass_decay(values)
        checks[f"{name}: error at 200 <= 0.02"] = errs[200] <= 0.02
        checks[f"{name}: errors at 50 > 100 > 200"] = errs[200] < errs[100] < errs[50]
        checks[f"{name}: no initial decay"] = not decay
        rows[name] = {"a200": values[199], "errors": {str(k): v for k, v in errs.items()},
                      "initial_decay": decay}
    identity_values = dynamics.mass_growth_estimate(Mat2.identity(), MassSeed.of((3.0, 4.0)), 200)
    checks["identity: |a200| <= 0.01"] = abs(identity_values[199]) <= 0.01
    contracting = dynamics.mass_growth_estimate(
        mat, MassSeed.of((1.0, -GOLDEN_RATIO)), 200
    )
    decay_flagged = dynamics.initial_mass_decay(contracting)
    checks["contracting: initial decay flagged"] = decay_flagged
    rows["contracting"] = {"a200": contracting[199], "initial_decay": decay_flagged,
                           "note": "flagged: early iterates decay, estimate unreliable"}
    rows["identity"] = {"a200": identity_values[199]}
    return {"target": target, "seeds": rows}, checks, []


def _entropy_chain(seed: int, resolution: int):
    checks = {}
    max_gap = 0.0
    for i, (mat, expected) in enumerate(dynamics.PA_TABLE, start=1):
        entropy = dynamics.entropy_value(mat)
        lower = dynamics.poincare_translation_length(mat)
        checks[f"row {i}: entropy >= translation length"] = entropy >= lower - 1e-12
        if expected == "hyperbolic":
            gap = abs(entropy - dynamics.translation_length(mat))
            max_gap = max(max_gap, gap)
            checks[f"row {i}: entropy = translation length"] = gap <= 1e-12
    anchor = Autoeq(2, 1, 1, 1)
    rho = dynamics.stretch_factor(anchor)
    length = dynamics.translation_length(anchor)
    diag = CoveredMap(Mat2.diagonal(1.0 / rho, rho))
    diag_bound = dynamics.upper_bound_dbar(diag)
    min_over_translates = min(
        dynamics.upper_bound_dbar(compose(diag, dynamics.c_element(lam)))
        for lam in (0.0, 0.3, -0.2 + 0.1j, 0.5j, 1.0 + 0.2j)
    )
    n = 100
    orbit_rate = dynamics.poincare_distance(
        1j, dynamics.mobius_apply(anchor.power(n), 1j)
    ) / n
    checks.update({
        "diagonal_bound = translation length": abs(diag_bound - length) <= 1e-12,
        "min_bound_over_translates >= translation length":
            min_over_translates >= length - 1e-12,
        "orbit_rate_n100 = translation length (0.01)": abs(orbit_rate - length) <= 0.01,
    })
    details = {"max_entropy_gap": max_gap, "diagonal_bound": diag_bound,
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
        max(metriclab.geodesic_deviation(space, sample(), sample(), resolution=res)
            for _ in range(5))
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
    checks = {f"{key} <= 1e-12": details[key] <= 1e-12
              for key in ("corbit_deviation", "quotient_deviation", "kronecker_deviation")}
    checks["|arc_deviation - arc_oracle| <= 1e-3"] = abs(dev_arc - oracle) <= 1e-3
    checks["arc_deviation > 0.05"] = dev_arc > 0.05
    return details, checks, []


def _quarter_arc_oracle() -> float:
    """Max of chord(u) - u * chord(1) for the quarter arc, chord(u) being
    the planar distance across a parameter gap u."""
    return golden_section_max(
        lambda u: 2.0 * math.sin(0.25 * math.pi * u) - math.sqrt(2.0) * u, 0.0, 1.0, 1e-14)


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


def build_fixture(fid: str, seed: int = 0, resolution: int = 512) -> FixtureResult:
    """Run one fixture: it passes when every named check holds, and a
    failed one lists its false checks in ``details["failed_checks"]``.
    Unexpected errors become a failed result rather than aborting the
    suite."""
    claim, builder = FIXTURES[fid]
    try:
        details, checks, certificates = builder(seed, resolution)
    except Exception as exc:  # noqa: BLE001 - recorded, not swallowed
        return FixtureResult(fid, claim, False,
                             {"error": type(exc).__name__, "message": str(exc)})
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        details = {**details, "failed_checks": failed}
    return FixtureResult(fid, claim, all(checks.values()), details, certificates)


def fixture_ids(filter_str: str = "") -> list[str]:
    """Registry ids containing the filter substring, in registry order."""
    return [fid for fid in FIXTURES if filter_str in fid]
