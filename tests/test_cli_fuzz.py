"""Fuzzed command lines: every subcommand, run in process through ``cli.main``,
either succeeds with a strict report or exits 2 with a JSON error; it never
raises.  Values are drawn malformed, as bools, non-finite, deeply nested and
out of range, alongside values in range; ``--out`` points at a file, a
directory or a path in a missing directory."""

import csv
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stabmetric import dynamics, metriclab, quotient
from stabmetric.cli import MODELS, QUOTIENT_MODELS, main
from stabmetric.fixtures import FIXTURES

_FLOATS = st.floats(-10.0, 10.0)
_STRIP_POINTS = st.builds(lambda a, b, w, c: [a, b, a + w, c],
                          _FLOATS, _FLOATS, st.floats(0.05, 0.95), _FLOATS)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=3),
    max_leaves=8,
)
_BAD_TEXTS = st.one_of(
    st.sampled_from(["", "[", "{]", "[1,]", "'a'", "nul", "[0,0", "{\"x\":}"]),  # malformed
    st.sampled_from(["true", "false", "[true,0]", "[0,false,0,0]", "null"]),  # bools
    st.sampled_from(["NaN", "[Infinity,0]", "[0,-Infinity,0,0]", "1e999", "[1e308,-1e308]"]),
    st.integers(1, 5000).map(lambda d: "[" * d + "]" * d),  # nested, often too deeply
    _JSON_VALUES.map(json.dumps),  # any JSON, non-finite floats included
)


def _text(valid):
    """JSON text for an option: mostly the valid form, else anything bad."""
    return st.one_of(valid.map(json.dumps), _BAD_TEXTS)


def _number(low, high):
    """An argparse float option as text: in range, non-finite or huge."""
    return st.one_of(st.floats(low, high).map(repr),
                     st.sampled_from(["nan", "inf", "-inf", "1e999", "0", "-1"]))


# always passed: the 256 and 512 defaults would make each example slow
_RESOLUTION = st.integers(-1, 64) | st.just(metriclab.MAX_RESOLUTION + 1)
_SEED = st.integers(-2, 5)
_MODEL_POINTS = {
    "euclidean": st.tuples(_FLOATS, _FLOATS).map(list),
    "corbit": st.tuples(_FLOATS, _FLOATS).map(list) | _FLOATS,
    "r4": st.lists(_FLOATS, min_size=4, max_size=4),
    "quotient": st.lists(_FLOATS, min_size=4, max_size=4).map(lambda v: {"rep": v}),
    "kronecker": _STRIP_POINTS | _STRIP_POINTS.map(lambda x: {"x": x, "l": 3}),
    "kronecker-quotient": _STRIP_POINTS | _STRIP_POINTS.map(lambda x: {"x": x, "l": 2}),
    "poincare": st.tuples(_FLOATS, st.floats(0.01, 10.0)).map(list),
}


@st.composite
def _triangle(draw, models):
    model = draw(st.sampled_from(models))
    return ["--model", model,
            "--vertices=" + draw(_text(st.lists(_MODEL_POINTS[model], min_size=3, max_size=3)))]


@st.composite
def _pair(draw, models):
    model = draw(st.sampled_from(models))
    point = _text(_MODEL_POINTS[model])
    return ["--model", model, "--", draw(point), draw(point)]


def _req(flag, values):
    return values.map(lambda v: [f"{flag}={v}"])


def _opt(flag, values):
    """An optional flag: absent, or ``flag=value``."""
    return st.just([]) | _req(flag, values)


def _cat(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


# the models with a metriclab handle: the ones the metric-space checks take
_SPACE_MODELS = [m for m, row in MODELS.items() if row.space]
_COMMANDS = {
    "dist": _cat(_pair(list(MODELS))),
    "quotient-dist": _cat(_pair(list(QUOTIENT_MODELS))),
    "hn": _cat(
        _req("--point", _text(_MODEL_POINTS["kronecker"])),
        _req("--object-class", _text(st.fixed_dictionaries(
            {"k": st.tuples(st.integers(-3, 5), st.integers(-3, 5))},
            optional={"shift": st.integers(-2, 2)}))),
    ),
    "cat0-check": _cat(_triangle(_SPACE_MODELS), _req("--resolution", _RESOLUTION),
                       _opt("--tol", _number(0.0, 1.0))),
    "slim-check": _cat(_triangle(_SPACE_MODELS), _req("--resolution", _RESOLUTION),
                       _req("--delta", _number(0.0, 8.0))),
    "geodesic-check": _cat(_req("--resolution", _RESOLUTION), _pair(_SPACE_MODELS)),
    "pa": _cat(_opt("--matrix", _text(st.sampled_from([[[2, 1], [1, 1]], [[1, 1], [0, 1]],
                                                       [[0, -1], [1, 0]], [[3, 2], [1, 1]]]))),
               _opt("--genus", st.integers(-1, 3))),
    "mass-growth": _cat(
        _opt("--matrix", _text(st.lists(st.lists(_FLOATS, min_size=2, max_size=2),
                                        min_size=2, max_size=2))),
        _opt("--seed-vectors", _text(st.lists(st.lists(_FLOATS, min_size=2, max_size=2),
                                              min_size=1, max_size=3))),
        _opt("-n", st.integers(-1, 300) | st.just(dynamics.MAX_ITERATES + 1)),
        _opt("--format", st.sampled_from(["json", "csv"])),
    ),
    "embed-check": _cat(_opt("-n", st.integers(-1, 30) | st.just(quotient.MAX_SAMPLES + 1)),
                        _opt("--seed", _SEED)),
    "fixtures": _cat(
        # one fixture or a few: the whole suite would make each example slow
        _req("--filter", st.sampled_from([*FIXTURES, "corbit", "quotient", "nosuch"])),
        _req("--resolution", _RESOLUTION), _opt("--seed", _SEED),
        _opt("--format", st.sampled_from(["json", "csv"])),
    ),
    "sweep": _cat(
        _req("--kind", st.sampled_from(["slim-grid", "isometry-samples"])),
        _opt("--deltas", st.lists(_number(0.0, 8.0), max_size=3).map(",".join)),
        _opt("-n", st.integers(-1, 30) | st.just(quotient.MAX_SAMPLES + 1)),
        _req("--resolution", _RESOLUTION),
        _opt("--seed", _SEED),
    ),
}


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def _check_report(text: str, csv_format: bool) -> None:
    if csv_format:
        header, *rows = csv.reader(io.StringIO(text))
        assert all(len(row) == len(header) for row in rows)
        assert not {"nan", "inf", "-inf"} & {cell for row in rows for cell in row}
    else:
        json.loads(text, parse_constant=_reject_constant)


def test_every_model_is_fuzzed():
    assert set(_MODEL_POINTS) == set(MODELS)


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_command_line(command, data, capsys, tmp_path):
    report = tmp_path / "report.out"
    report.unlink(missing_ok=True)
    out = data.draw(st.sampled_from([None, report, tmp_path, tmp_path / "missing" / "r.out"]))
    argv = [command, *data.draw(_COMMANDS[command])]
    if out is not None:
        argv[1:1] = [f"--out={out}"]

    code = main(argv)
    captured = capsys.readouterr()

    if code == 2:
        assert captured.out == ""
        assert set(json.loads(captured.err)) == {"error", "message"}
        assert not report.exists()
        return
    text = report.read_text() if out == report else captured.out
    assert out in (None, report)
    csv_format = command == "sweep" or "--format=csv" in argv
    _check_report(text, csv_format)
    if code == 1:
        assert command == "fixtures"
        if csv_format:
            assert "false" in {row[1] for row in csv.reader(io.StringIO(text))}
        else:
            assert json.loads(text)["all_passed"] is False
    else:
        assert code == 0
