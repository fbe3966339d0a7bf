"""Output checks: every report is parsed as strict JSON and compared with
values known in closed form.  A check returns None on success and a
short reason otherwise.  Runs in the child after each op, outside the
timed window and with tracing off, because certificates are re-derived
through the package's own ``verify_certificate``.
"""

from __future__ import annotations

import json
import math

from stabmetric import metriclab, quotient, stabmodel

# cat0/slim margins and geodesic deviations are float sums over sampled
# points; 1e-9 relative matches the tolerance the fixtures use.
MARGIN_RTOL = 1e-9
# The cat0 triangles are degenerate: comparison_triangle takes the height
# as sqrt(c^2 - t^2), which cancels, so the comparison apex sits up to
# ~sqrt(eps) * scale off the base (2.6e-8 relative over 1e5 scales).
DEGENERATE_RTOL = 1e-7
VERIFY_TOL = 1e-12

_SPACES = {
    "corbit": metriclab.c_orbit_space,
    "r4": metriclab.r4_space,
    "quotient": metriclab.quotient_r4_space,
    "kronecker": metriclab.kronecker_space,
}


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _point(model: str, data):
    if model == "corbit":
        return complex(data[0], data[1])
    if model == "r4":
        return tuple(float(v) for v in data)
    if model == "kronecker":
        return stabmodel.KroneckerPoint.from_dict(data)
    if model == "quotient":
        return quotient.QuotPoint(tuple(data["rep"]))
    raise ValueError(model)


def _certificate(model: str, data: dict) -> metriclab.TriangleCertificate:
    witness = dict(data["witness"])
    for key in ("p", "q", "point"):
        if key in witness:
            witness[key] = _point(model, witness[key])
    for key in ("p_comparison", "q_comparison"):
        if key in witness:
            witness[key] = complex(*witness[key])
    return metriclab.TriangleCertificate(
        kind=data["kind"], space=data["space"],
        vertices=tuple(_point(model, v) for v in data["vertices"]),
        witness=witness, margin=data["margin"], resolution=data["resolution"],
        seed=data["seed"], params=data["params"],
    )


def _close(value, expected, rtol) -> bool:
    return abs(value - expected) <= rtol * max(1.0, abs(expected))


def _check_certificate(spec: dict, report: dict, expected_margin, rtol: float = MARGIN_RTOL):
    """Re-derive the margin with verify_certificate; also compare it with
    the closed form when one is given."""
    if report.get("result") != "violation":
        return f"expected a violation, got {report.get('result')!r}"
    cert_data = report["certificate"]
    if expected_margin is not None and not _close(cert_data["margin"], expected_margin, rtol):
        return f"margin {cert_data['margin']!r} != {expected_margin!r}"
    cert = _certificate(spec["model"], cert_data)
    rederived = metriclab.verify_certificate(_SPACES[spec["model"]](), cert)
    if abs(rederived - cert.margin) > VERIFY_TOL:
        return f"verify_certificate gives {rederived!r}, report says {cert.margin!r}"
    return None


def _check_cli(spec: dict, report: dict):
    kind = spec["type"]
    if kind == "fixtures":
        results = report["results"]
        if len(results) != spec["count"] or report["all_passed"] is not True:
            failed = [r["fixture_id"] for r in results if not r["passed"]]
            return f"fixtures failed: {failed}"
        return None
    if kind == "cat0":
        # the c-orbit margin is the triangle's scale; in the other models the
        # sampled witness pair can shift, so only the re-derivation is exact
        expected = spec["margin"] if spec["model"] == "corbit" else None
        return _check_certificate(spec, report, expected, DEGENERATE_RTOL)
    if kind == "slim":
        return _check_certificate(spec, report, spec["delta"])
    if kind == "geodesic":
        if abs(report["deviation"]) > MARGIN_RTOL * max(1.0, spec["distance"]):
            return f"straight line deviates by {report['deviation']!r}"
        return None
    if kind == "dist-kronecker":
        oracle = report["oracle"]["sampled_supremum"]
        if not _close(report["distance"], spec["distance"], 1e-12) or oracle != report["distance"]:
            return f"distance {report['distance']!r}, oracle {oracle!r}, expected {spec['distance']!r}"
        return None
    if kind == "quotient-dist":
        if not _close(report["closed_form"], spec["closed"], 1e-12):
            return f"closed form {report['closed_form']!r} != {spec['closed']!r}"
        if abs(report["solver"] - spec["closed"]) > 1e-6:
            return f"solver {report['solver']!r} is not within 1e-6 of {spec['closed']!r}"
        return None
    if kind == "hn":
        prof = report["profile"]
        if not (_close(prof["mass"], spec["mass"], 1e-12)
                and _close(prof["phi_plus"], spec["phi_plus"], 1e-12)
                and _close(prof["phi_minus"], spec["phi_minus"], 1e-12)):
            return f"profile {prof!r} does not match {spec!r}"
        return None
    if kind == "pa":
        if not (report["pseudo_anosov_exists"] is True
                and _close(report["stretch_factor"], spec["stretch"], 1e-12)
                and _close(report["translation_length"], spec["translation"], 1e-12)
                and _close(report["poincare_translation_length"], spec["translation"], 1e-12)):
            return f"classification {report!r} does not match {spec!r}"
        return None
    if kind == "mass-growth":
        values = report["values"]
        if len(values) != spec["n"] or abs(values[-1] - spec["limit"]) > 5e-3:
            return f"a_n = {values[-1]!r} has not converged to {spec['limit']!r}"
        return None
    if kind == "embed-check":
        if not (report["samples"] == spec["n"]
                and report["max_metric_deviation"] <= 1e-12
                and report["max_quotient_deviation"] <= 1e-12):
            return f"embedding deviates: {report!r}"
        return None
    raise ValueError(f"unknown check {kind!r}")


def check(op: dict, outcome: dict):
    """Reason the op failed, or None.  ``outcome`` holds ``error`` (an
    exception raised), ``rc`` and ``stdout`` for commands, ``value`` for
    direct calls."""
    if outcome.get("error"):
        return outcome["error"]
    spec = op["check"]
    if op["kind"] == "call":
        value = outcome["value"]
        if not (math.isfinite(value) and abs(value - spec["value"]) <= spec["tol"]):
            return f"{op['call']} returned {value!r}, expected {spec['value']!r}"
        return None
    if outcome["rc"] != 0 and not outcome["stdout"]:
        return f"exit code {outcome['rc']}: {outcome['stderr'][:200]}"
    try:
        reason = _check_cli(spec, strict_json(outcome["stdout"]))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        reason = f"malformed report: {type(exc).__name__}: {exc}"
    # a report on stdout with a non-zero exit (failed fixtures) names what failed
    if outcome["rc"] != 0:
        return f"exit code {outcome['rc']}: {reason or 'the report itself checks out'}"
    return reason
