"""Command-line front end.

Every subcommand prints a machine-readable report (JSON by default, CSV
for sweeps) built only from the inputs and the seed, so fixed arguments
produce byte-identical output; wall-clock timings are kept out of the
reports and shown on stderr only when asked for.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

from . import dynamics, fixtures, metriclab, quotient, stabmodel
from .errors import StabmetricError
from .lin2 import Mat2, real_number

ENV_SEED = "STABMETRIC_SEED"
ORACLE_CLASS_CAP = 10  # multiplicity cap of the sampled-supremum oracle in `dist`


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _parse_json(text: str, what: str):
    def finite(token: str) -> float:
        value = float(token)
        if not math.isfinite(value):
            raise ValueError(f"invalid JSON for {what}: non-finite number {token}")
        return value

    try:
        return json.loads(text, parse_constant=finite, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON for {what}: {exc}") from exc


def _parse_complex(data, what: str) -> complex:
    if isinstance(data, list) and len(data) == 2:
        return complex(real_number(data[0], what), real_number(data[1], what))
    if isinstance(data, bool) or not isinstance(data, (int, float)):
        raise ValueError(f"{what} must be a number or a [re, im] pair")
    return complex(data)


def _parse_vec4(data, what: str):
    if isinstance(data, list) and len(data) == 4:
        return tuple(real_number(v, what) for v in data)
    raise ValueError(f"{what} must be a list of four numbers")


def _parse_kronecker(data, what: str) -> stabmodel.KroneckerPoint:
    if isinstance(data, dict):
        return stabmodel.KroneckerPoint.from_dict(data)
    return stabmodel.KroneckerPoint(_parse_vec4(data, what))


def _parse_quotient(data, what: str) -> quotient.QuotPoint:
    if isinstance(data, dict):
        return quotient.QuotPoint(_parse_vec4(data["rep"], what))
    return quotient.QuotPoint.from_vector(_parse_vec4(data, what))


# Every model the commands accept: its point parser (JSON data -> point)
# and, for the metric-space checks, its metriclab handle factory.
MODELS = {
    "euclidean": (_parse_complex, metriclab.euclidean_plane),
    "corbit": (_parse_complex, metriclab.c_orbit_space),
    "r4": (_parse_vec4, metriclab.r4_space),
    "quotient": (_parse_quotient, metriclab.quotient_r4_space),
    "kronecker": (_parse_kronecker, metriclab.kronecker_space),
    "poincare": (_parse_complex, None),
}
SPACE_MODELS = tuple(m for m, (_, space) in MODELS.items() if space is not None)


def _parse_point(model: str, text: str, what: str):
    return MODELS[model][0](_parse_json(text, what), what)


def _space(model: str) -> metriclab.SpaceHandle:
    return MODELS[model][1]()


def _emit(payload, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write(text, args)


def _emit_csv(header: list[str], rows: list[list], args) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    _write(buf.getvalue(), args)


def _write(text: str, args) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    return int(env) if env else 0


# ---------------------------------------------------------------------------
# subcommands

def _cmd_dist(args) -> int:
    p = _parse_point(args.model, args.p, "first point")
    q = _parse_point(args.model, args.q, "second point")
    if args.model == "poincare":
        d = dynamics.poincare_distance(p, q)
    else:
        d = _space(args.model).dist(p, q)
    payload = {"model": args.model, "distance": d}
    if args.model == "kronecker":
        oracle = stabmodel.d_B_sampled(p, q, ORACLE_CLASS_CAP)
        payload["oracle"] = {"sampled_supremum": oracle, "class_cap": ORACLE_CLASS_CAP,
                             "deviation": abs(d - oracle)}
    _emit(payload, args)
    return 0


def _cmd_quotient_dist(args) -> int:
    x = _parse_point(args.model, args.p, "first point")
    y = _parse_point(args.model, args.q, "second point")
    if args.model == "r4":
        closed = quotient.quot_dist_closed(
            quotient.QuotPoint.from_vector(x), quotient.QuotPoint.from_vector(y)
        )
        numeric = float(quotient.quot_dist_pairs([x], [y])[0])
        mini = quotient.quot_minimizer(x, y)
    elif args.model == "kronecker":
        closed = quotient.kron_quot_closed(x, y)
        numeric = float(quotient.quot_dist_pairs([x.x], [y.x], math.pi)[0])
        mini = None
    else:
        raise ValueError("quotient distances exist for models r4 and kronecker")
    payload = {
        "model": args.model,
        "closed_form": closed,
        "solver": numeric,
        "deviation": abs(closed - numeric),
    }
    if mini is not None:
        payload["minimizer"] = [mini.real, mini.imag]
    _emit(payload, args)
    return 0


def _cmd_hn(args) -> int:
    point = _parse_point("kronecker", args.point, "point")
    cls = stabmodel.ObjectClass.from_dict(_parse_json(args.object_class, "object class"))
    profile = stabmodel.hn_profile(point, cls)
    payload = {
        "point": point.to_dict(),
        "object_class": cls.to_dict(),
        "profile": profile.to_dict(),
        "central_charge": metriclab.as_jsonable(stabmodel.central_charge(point, cls)),
        "support_constant": stabmodel.support_constant(point),
    }
    _emit(payload, args)
    return 0


def _triangle(args):
    data = _parse_json(args.vertices, "vertices")
    if not isinstance(data, list) or len(data) != 3:
        raise ValueError("vertices must be a JSON list of three points")
    parse = MODELS[args.model][0]
    return [parse(v, "vertex") for v in data]


def _cmd_cat0(args) -> int:
    space = _space(args.model)
    x, y, z = _triangle(args)
    cert = metriclab.cat0_check(space, x, y, z, resolution=args.resolution,
                                tol=args.tol, seed=_seed(args))
    if cert is None:
        _emit({"result": "pass", "model": args.model}, args)
    else:
        _emit({"result": "violation", "certificate": cert.to_dict()}, args)
    return 0


def _cmd_slim(args) -> int:
    space = _space(args.model)
    x, y, z = _triangle(args)
    cert = metriclab.slim_check(space, x, y, z, args.delta,
                                resolution=args.resolution, seed=_seed(args))
    if cert is None:
        _emit({"result": "pass", "model": args.model, "delta": args.delta}, args)
    else:
        _emit({"result": "violation", "certificate": cert.to_dict()}, args)
    return 0


def _cmd_geodesic(args) -> int:
    space = _space(args.model)
    x = _parse_point(args.model, args.p, "first point")
    y = _parse_point(args.model, args.q, "second point")
    dev = metriclab.geodesic_deviation(space, x, y, resolution=args.resolution)
    _emit({"model": args.model, "deviation": dev, "resolution": args.resolution}, args)
    return 0


def _cmd_pa(args) -> int:
    mat = None
    if args.matrix:
        mat = dynamics.Autoeq.from_rows(_parse_json(args.matrix, "matrix"))
    summary = dynamics.curve_pa_summary(args.genus, mat)
    payload = summary.to_dict()
    if mat is not None:
        payload["poincare_translation_length"] = dynamics.poincare_translation_length(mat)
        payload["note"] = (
            "entropy reported from the trace classification closed form; "
            "no generator tower is computed"
        )
    _emit(payload, args)
    return 0


def _cmd_mass_growth(args) -> int:
    mat = Mat2.from_rows(_parse_json(args.matrix, "matrix"))
    vectors = _parse_json(args.seed_vectors, "seed vectors")
    seed = dynamics.MassSeed(tuple(tuple(v) for v in vectors))
    values = dynamics.mass_growth_estimate(mat, seed, args.n)
    if args.format == "csv":
        _emit_csv(["n", "a_n"], [[i + 1, v] for i, v in enumerate(values)], args)
    else:
        _emit({
            "matrix": mat.rows(),
            "n": args.n,
            "values": values,
            "initial_decay": dynamics.initial_mass_decay(values),
        }, args)
    return 0


def _cmd_embed_check(args) -> int:
    report = quotient.isometry_report(args.n, seed=_seed(args))
    _emit(metriclab.as_jsonable(report), args)
    return 0


def _cmd_fixtures(args) -> int:
    seed = _seed(args)
    metriclab.sample_params(args.resolution)  # reject a bad resolution before any fixture runs
    results = []
    for fid in fixtures.fixture_ids(args.filter):
        started = time.perf_counter()
        results.append(fixtures.build_fixture(fid, seed, args.resolution))
        if args.timings:
            elapsed = 1000.0 * (time.perf_counter() - started)
            print(f"{fid}: {elapsed:.1f} ms", file=sys.stderr)
    all_passed = all(r.passed for r in results)
    if args.format == "csv":
        rows = [[r.fixture_id, str(r.passed).lower(), len(r.certificates), r.claim]
                for r in results]
        _emit_csv(["fixture_id", "passed", "certificates", "claim"], rows, args)
    else:
        payload = {
            "config": {"seed": seed, "resolution": args.resolution, "filter": args.filter},
            "results": metriclab.as_jsonable(results),
            "all_passed": all_passed,
        }
        _emit(payload, args)
    return 0 if all_passed else 1


def _cmd_sweep(args) -> int:
    seed = _seed(args)
    if args.kind == "slim-grid":
        space = metriclab.c_orbit_space()
        rows = []
        for delta in (float(v) for v in args.deltas.split(",")):
            cert = metriclab.slim_check(
                space, 0j, complex(4.0 * delta, 0.0), complex(0.0, 4.0 * delta / math.pi),
                delta, resolution=args.resolution, seed=seed,
            )
            if cert is None:
                raise ValueError(f"slim-grid: no violation for delta {delta!r} "
                                 f"at resolution {args.resolution}")
            witness = cert.witness["point"]
            rows.append([delta, cert.margin, witness.real, witness.imag])
        _emit_csv(["delta", "margin", "witness_re", "witness_im"], rows, args)
        return 0
    rows = [[i, dm, dq] for i, (dm, dq) in enumerate(quotient.iter_isometry_samples(args.n, seed))]
    _emit_csv(["index", "metric_deviation", "quotient_deviation"], rows, args)
    return 0


# ---------------------------------------------------------------------------

def _add_common(sub, *flags: str, resolution: int = 512) -> None:
    """Declare ``--out`` and those of the shared flags --seed, --tol,
    --resolution and --format that the subcommand reads."""
    if "seed" in flags:
        sub.add_argument("--seed", type=int, default=None,
                         help=f"RNG seed (falls back to ${ENV_SEED}, then 0)")
    if "tol" in flags:
        sub.add_argument("--tol", type=float, default=1e-9)
    if "resolution" in flags:
        sub.add_argument("--resolution", type=int, default=resolution)
    if "format" in flags:
        sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabmetric",
        description="metric geometry of stability spaces: distances, curvature "
                    "certificates, and pseudo-Anosov dynamics",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("dist", help="distance between two points of a model")
    p.add_argument("--model", choices=("corbit", "kronecker", "r4", "poincare"),
                   required=True)
    p.add_argument("p")
    p.add_argument("q")
    _add_common(p)
    p.set_defaults(func=_cmd_dist)

    p = subs.add_parser("quotient-dist", help="quotient distance: closed form vs solver")
    p.add_argument("--model", choices=("r4", "kronecker"), default="r4")
    p.add_argument("p")
    p.add_argument("q")
    _add_common(p)
    p.set_defaults(func=_cmd_quotient_dist)

    p = subs.add_parser("hn", help="Harder-Narasimhan profile of a class")
    p.add_argument("--point", required=True)
    p.add_argument("--object-class", dest="object_class", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_hn)

    p = subs.add_parser("cat0-check", help="comparison-triangle test")
    p.add_argument("--model", choices=SPACE_MODELS, required=True)
    p.add_argument("--vertices", required=True)
    _add_common(p, "seed", "tol", "resolution")
    p.set_defaults(func=_cmd_cat0)

    p = subs.add_parser("slim-check", help="thin-triangle test")
    p.add_argument("--model", choices=SPACE_MODELS, required=True)
    p.add_argument("--vertices", required=True)
    p.add_argument("--delta", type=float, required=True)
    _add_common(p, "seed", "resolution")
    p.set_defaults(func=_cmd_slim)

    p = subs.add_parser("geodesic-check", help="geodesic-equation deviation")
    p.add_argument("--model", choices=SPACE_MODELS, required=True)
    p.add_argument("p")
    p.add_argument("q")
    _add_common(p, "resolution", resolution=256)
    p.set_defaults(func=_cmd_geodesic)

    p = subs.add_parser("pa", help="pseudo-Anosov classification for curves")
    p.add_argument("--matrix", default=None)
    p.add_argument("--genus", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_pa)

    p = subs.add_parser("mass-growth", help="renormalized mass-growth estimates")
    p.add_argument("--matrix", default="[[2,1],[1,1]]")
    p.add_argument("--seed-vectors", dest="seed_vectors", default="[[1,0]]")
    p.add_argument("-n", type=int, default=200)
    _add_common(p, "format")
    p.set_defaults(func=_cmd_mass_growth)

    p = subs.add_parser("embed-check", help="embedding isometry report")
    p.add_argument("-n", type=int, default=100)
    _add_common(p, "seed")
    p.set_defaults(func=_cmd_embed_check)

    p = subs.add_parser("fixtures", help="run the named verification fixtures")
    p.add_argument("--filter", default="")
    p.add_argument("--timings", action="store_true",
                   help="print per-fixture wall time to stderr")
    _add_common(p, "seed", "resolution", "format")
    p.set_defaults(func=_cmd_fixtures)

    p = subs.add_parser("sweep", help="parameter sweeps as CSV")
    p.add_argument("--kind", choices=("slim-grid", "isometry-samples"), required=True)
    p.add_argument("--deltas", default="1,2,4,8")
    p.add_argument("-n", type=int, default=200)
    _add_common(p, "seed", "resolution")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StabmetricError, ValueError, KeyError, TypeError, OverflowError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
