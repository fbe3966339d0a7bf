"""Command-line front end.

Every subcommand prints a machine-readable report (JSON by default, CSV
for sweeps) built only from the inputs and the seed, so fixed arguments
produce byte-identical output; wall-clock timings are kept out of the
reports and shown on stderr only when asked for.  Only the commands
that evaluate arrays import the array modules, so `pa`, `mass-growth`
and `dist --model poincare` start without numpy.  The argument parser
is built once per process, on the first call, and every later call of
`main` parses with that same parser.  `MODELS` holds each point model
once, and every `--model` list but `quotient-dist`'s comes from it;
`_points` parses every command's points and rejects a non-finite
coordinate difference before any array work, `_space` a weighted
projected one before any scan.  JSON reports are written
by `_json_text`, which gives the bytes of `json.dumps(..., indent=2,
sort_keys=True)` without its per-value generator steps.
"""

from __future__ import annotations

import argparse
import collections
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from operator import attrgetter, mul

from . import dynamics
from .errors import StabmetricError
from .lin2 import Mat2, real_number

ORACLE_CLASS_CAP = 10  # multiplicity cap of the sampled-supremum oracle in `dist`
PAIR_NAMES = ("first point", "second point")
VERTEX_NAMES = ("vertex 1", "vertex 2", "vertex 3")
# relative room below the largest double in `_space`'s span check: a scan takes each
# sampled term in a few roundings, each within about 1e-16 of the largest span
_SPAN_ROOM = 1.0 + 1e-12


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
    except RecursionError:
        raise ValueError(f"invalid JSON for {what}: nested too deeply") from None


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


def _parse_kronecker(data, what: str):
    from . import stabmodel
    if isinstance(data, dict):
        return stabmodel.KroneckerPoint.from_dict(data)
    return stabmodel.KroneckerPoint(_parse_vec4(data, what))


def _finite_rep(x, what: str):
    """x, after checking that its orbit representative (0, 0, x3 - x1,
    x4 - x2) does not overflow."""
    for k in (3, 4):
        if not math.isfinite(x[k - 1] - x[k - 3]):
            raise ValueError(f"{what}'s x{k} - x{k - 2} is not finite")
    return x


def _parse_quotient(data, what: str):
    from . import quotient
    if isinstance(data, dict):
        return quotient.QuotPoint(_parse_vec4(data.get("rep"), f'{what}\'s "rep"'))
    return quotient.QuotPoint.from_vector(_finite_rep(_parse_vec4(data, what), what))


# One row per --model name: parse maps (JSON data, name) to a point, coords
# a point to its float coordinates, and space names the metriclab factory
# of the model's handle (None: the model has none).
Model = collections.namedtuple("Model", "parse coords space")
MODELS = {
    "euclidean": Model(_parse_complex, attrgetter("real", "imag"), "euclidean_plane"),
    "corbit": Model(_parse_complex, attrgetter("real", "imag"), "c_orbit_space"),
    "r4": Model(_parse_vec4, tuple, "r4_space"),
    "quotient": Model(_parse_quotient, attrgetter("rep"), "quotient_r4_space"),
    "kronecker": Model(_parse_kronecker, attrgetter("x"), "kronecker_space"),
    "kronecker-quotient": Model(_parse_kronecker, attrgetter("x"), "kronecker_quotient_space"),
    "poincare": Model(_parse_complex, attrgetter("real", "imag"), None),
}
QUOTIENT_MODELS = ("r4", "kronecker")  # the models `quotient-dist` takes orbits of


def _points(model: str, values, names) -> list:
    """Parse JSON values as points of ``model``, named in errors by ``names``.

    Before any array work, reject two points that differ by a non-finite
    amount in some coordinate: every distance between them would overflow."""
    row = MODELS[model]
    points = [row.parse(v, name) for v, name in zip(values, names)]
    coords = [row.coords(p) for p in points]
    for j, b in enumerate(coords):
        for i, a in enumerate(coords[:j]):
            for k, (u, v) in enumerate(zip(a, b), 1):
                if not math.isfinite(v - u):
                    raise ValueError(f"{names[i]} and {names[j]} differ by a non-finite "
                                     f"amount in coordinate {k}")
    return points


def _pair(args) -> list:
    return _points(args.model, map(_parse_json, (args.p, args.q), PAIR_NAMES), PAIR_NAMES)


def _arrow_count(points) -> int:
    """The arrow count l that the Kronecker points share."""
    counts = sorted({p.l for p in points})
    if len(counts) != 1:
        raise ValueError(f"Kronecker points disagree on the arrow count l: {counts}")
    return counts[0]


def _space(model: str, points, names):
    """The model's metriclab handle; witnesses keep the points' arrow count l.

    On a linear sup-space, two points (named by ``names``) whose term
    w_k |L_k(v_i - v_j)| is within _SPAN_ROOM of overflow are rejected: a
    checker samples convex combinations of these differences."""
    from . import metriclab
    factory = getattr(metriclab, MODELS[model].space)
    space = factory(_arrow_count(points)) if hasattr(points[0], "l") else factory()
    if space.proj is not None:  # in plain floats, which overflow to inf without a warning
        rows, weights = space.proj.T.tolist(), space.weights.tolist()
        named = zip(names, map(space.encode, points))
        for (first, a), (second, b) in itertools.combinations(named, 2):
            d = [v - u for u, v in zip(a, b)]
            for k, (row, w) in enumerate(zip(rows, weights), 1):
                if not abs(sum(map(mul, row, d))) * w * _SPAN_ROOM < math.inf:
                    raise ValueError(f"{first} and {second} are too far apart in "
                                     f"projection row {k}: a scan of it would overflow")
    return space


def _scanned_space(model: str, points, names):
    """``_space``, after also rejecting a point (named by ``names``) whose own
    |L_k v| is within _SPAN_ROOM of overflow: a checker projects its
    samples, which are convex combinations of the points."""
    space = _space(model, points, names)
    if space.proj is not None:
        rows = space.proj.T.tolist()
        for name, v in zip(names, map(space.encode, points)):
            for k, row in enumerate(rows, 1):
                if not abs(sum(map(mul, row, v))) * _SPAN_ROOM < math.inf:
                    raise ValueError(f"{name} lies too far out in projection row {k}: "
                                     "a scan of it would overflow")
    return space


def _json_text(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)``,
    with every newline followed by ``pad``'s indent as well.

    json's indented output always runs its pure-Python encoder, one
    generator step per value; here plain str, int and float leaves are
    written by the functions that encoder calls, a flat list of plain
    floats in one join, and any other value (an empty container, a
    subclass such as a numpy scalar, a non-str key) by json.dumps itself,
    whose strings hold no raw newline, so its lines take ``pad`` exactly.
    """
    kind = type(value)
    if kind is float:
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError("Out of range float values are not JSON compliant: " + repr(value))
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    inner = pad + "  "
    if kind is dict and value and set(map(type, value)) == {str}:
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if (kind is list or kind is tuple) and value:
        if set(map(type, value)) == {float} and all(map(math.isfinite, value)):
            items = map(float.__repr__, value)
        else:
            items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", pad)


def _emit(payload, args) -> None:
    _write(_json_text(payload) + "\n", args)


def _emit_csv(header: list[str], rows: list[list], args) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    _write(buf.getvalue(), args)


def _check_out(args) -> None:
    """Reject an --out that names no file in an existing directory before any work starts."""
    out = getattr(args, "out", None)
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(os.path.abspath(out)))):
        raise OSError(f"--out {out!r} names no file in an existing directory")


def _write(text: str, args) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _seed(args) -> int:
    """--seed, which numpy takes only when nonnegative."""
    if args.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {args.seed!r}")
    return args.seed


# ---------------------------------------------------------------------------
# subcommands

def _cmd_dist(args) -> int:
    p, q = _pair(args)
    d = (dynamics.poincare_distance(p, q) if MODELS[args.model].space is None
         else _space(args.model, (p, q), PAIR_NAMES).dist(p, q))
    payload = {"model": args.model, "distance": d}
    if args.model == "kronecker":
        from . import stabmodel
        oracle = stabmodel.d_B_sampled(p, q, ORACLE_CLASS_CAP)
        payload["oracle"] = {"sampled_supremum": oracle, "class_cap": ORACLE_CLASS_CAP,
                             "deviation": abs(d - oracle)}
    _emit(payload, args)
    return 0


def _cmd_quotient_dist(args) -> int:
    from . import quotient
    x, y = _pair(args)
    if args.model == "r4":
        for point, name in zip((x, y), PAIR_NAMES):
            _finite_rep(point, name)
        closed = quotient.quot_dist_closed(
            quotient.QuotPoint.from_vector(x), quotient.QuotPoint.from_vector(y)
        )
        numeric = float(quotient.quot_dist_lp([x], [y])[0])
        mini = quotient.quot_minimizer(x, y)
    else:  # argparse limits --model to QUOTIENT_MODELS
        _arrow_count((x, y))
        closed = quotient.kron_quot_closed(x, y)
        numeric = float(quotient.quot_dist_lp([x.x], [y.x], math.pi)[0])
        mini = None
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
    from . import metriclab, stabmodel
    point, = _points("kronecker", [_parse_json(args.point, "point")], ("point",))
    cls = stabmodel.ObjectClass.from_dict(_parse_json(args.object_class, "object class"))
    profile = stabmodel.hn_profile(point, cls)
    payload = {
        "point": metriclab.as_jsonable(point),
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
    return _points(args.model, data, VERTEX_NAMES)


def _cmd_cat0(args) -> int:
    from . import metriclab
    x, y, z = _triangle(args)
    space = _scanned_space(args.model, (x, y, z), VERTEX_NAMES)
    cert = metriclab.cat0_check(space, x, y, z, resolution=args.resolution, tol=args.tol)
    if cert is None:
        _emit({"result": "pass", "model": args.model}, args)
    else:
        _emit({"result": "violation", "certificate": metriclab.as_jsonable(cert)}, args)
    return 0


def _cmd_slim(args) -> int:
    from . import metriclab
    x, y, z = _triangle(args)
    space = _scanned_space(args.model, (x, y, z), VERTEX_NAMES)
    cert = metriclab.slim_check(space, x, y, z, args.delta, resolution=args.resolution)
    if cert is None:
        _emit({"result": "pass", "model": args.model, "delta": args.delta}, args)
    else:
        _emit({"result": "violation", "certificate": metriclab.as_jsonable(cert)}, args)
    return 0


def _cmd_geodesic(args) -> int:
    from . import metriclab
    x, y = _pair(args)
    dev = metriclab.geodesic_deviation(_scanned_space(args.model, (x, y), PAIR_NAMES), x, y,
                                       resolution=args.resolution)
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
    from . import metriclab, quotient
    report = quotient.isometry_report(args.n, seed=_seed(args))
    _emit(metriclab.as_jsonable(report), args)
    return 0


def _cmd_fixtures(args) -> int:
    import numpy.random  # noqa: F401  numpy loads it lazily; no fixture's timing pays for it
    from . import fixtures, metriclab
    seed = _seed(args)
    metriclab.sample_params(args.resolution)  # reject a bad resolution before any fixture runs
    ids = fixtures.fixture_ids(args.filter)
    if not ids:
        raise ValueError(f"no fixture id contains {args.filter!r}")
    results = []
    for fid in ids:
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
        # strict JSON: a NaN or an infinity fails its fixture and is written
        # as null, so the failing fixture's report still comes out
        payload = {
            "config": {"seed": seed, "resolution": args.resolution, "filter": args.filter},
            "results": fixtures.null_non_finite(metriclab.as_jsonable(results)),
            "all_passed": all_passed,
        }
        _emit(payload, args)
    return 0 if all_passed else 1


def _cmd_sweep(args) -> int:
    from . import fixtures, quotient
    seed = _seed(args)
    if args.kind == "slim-grid":
        rows = []
        for delta in (float(v) for v in args.deltas.split(",")):
            cert = fixtures.fat_triangle(delta, args.resolution)
            if cert is None:
                raise ValueError(f"slim-grid: no violation for delta {delta!r} "
                                 f"at resolution {args.resolution}")
            witness = cert.witness["point"]
            rows.append([delta, cert.margin, witness.real, witness.imag])
        _emit_csv(["delta", "margin", "witness_re", "witness_im"], rows, args)
        return 0
    samples = quotient.isometry_samples(args.n, seed).tolist()
    rows = [[i, dm, dq] for i, (dm, dq) in enumerate(samples)]
    _emit_csv(["index", "metric_deviation", "quotient_deviation"], rows, args)
    return 0


# ---------------------------------------------------------------------------

def _add_common(sub, *flags: str, resolution: int = 512) -> None:
    """Declare ``--out`` and those of the shared flags --seed, --tol,
    --resolution and --format that the subcommand reads."""
    if "seed" in flags:
        sub.add_argument("--seed", type=int, default=0, help="seed of the draws (default 0)")
    if "tol" in flags:
        sub.add_argument("--tol", type=float, default=1e-9)
    if "resolution" in flags:
        sub.add_argument("--resolution", type=int, default=resolution)
    if "format" in flags:
        sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write the report to this path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and returned by
    every later one; parsing does not change it, so calls can share it."""
    parser = argparse.ArgumentParser(
        prog="stabmetric",
        description="metric geometry of stability spaces: distances, curvature "
                    "certificates, and pseudo-Anosov dynamics",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    space_models = [m for m, row in MODELS.items() if row.space]

    p = subs.add_parser("dist", help="distance between two points of a model")
    p.add_argument("--model", choices=tuple(MODELS), required=True)
    p.add_argument("p")
    p.add_argument("q")
    _add_common(p)
    p.set_defaults(func=_cmd_dist)

    p = subs.add_parser("quotient-dist", help="quotient distance: closed form vs solver")
    p.add_argument("--model", choices=QUOTIENT_MODELS, default=QUOTIENT_MODELS[0])
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
    p.add_argument("--model", choices=space_models, required=True)
    p.add_argument("--vertices", required=True)
    _add_common(p, "tol", "resolution")
    p.set_defaults(func=_cmd_cat0)

    p = subs.add_parser("slim-check", help="thin-triangle test")
    p.add_argument("--model", choices=space_models, required=True)
    p.add_argument("--vertices", required=True)
    p.add_argument("--delta", type=float, required=True)
    _add_common(p, "resolution")
    p.set_defaults(func=_cmd_slim)

    p = subs.add_parser("geodesic-check", help="geodesic-equation deviation")
    p.add_argument("--model", choices=space_models, required=True)
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
        _check_out(args)
        return args.func(args)
    except (StabmetricError, ValueError, KeyError, TypeError, OverflowError, OSError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
