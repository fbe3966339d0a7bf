"""Golden reports: CLI output compared leaf by leaf with stored reports.

The files in ``tests/golden/`` hold the stdout of each case below.
Strings, bools, ints and the structure must match exactly; floats must
agree within rel 1e-12, abs 1e-14, so a refactor may move a float by
round-off but never change a report's shape or a verdict.  CSV reports
are compared cell by cell under the same rule.

Rewrite the files, only for a report change that is meant, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

from stabmetric.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12
ABS_TOL = 1e-14


def _embed(model: str, a: float, b: float) -> list[float]:
    """Image of the c-orbit point a + b i in a model, by a linear isometry."""
    if model == "r4":
        return [a, math.pi * b, a, math.pi * b]
    if model == "kronecker":
        return [a, math.pi * b, a + 0.5, math.pi * b]
    if model == "quotient":
        return [0.0, 0.0, 2.0 * a, 2.0 * math.pi * b]
    raise ValueError(model)


def _check_cases() -> dict[str, list[str]]:
    cat0 = ((0.0, 0.0), (2.0, 0.0), (1.0, 1.0 / math.pi))
    slim = ((0.0, 0.0), (4.0, 0.0), (0.0, 4.0 / math.pi))
    cases = {}
    for model in ("r4", "quotient", "kronecker"):
        cases[f"cat0-{model}"] = [
            "cat0-check", "--model", model,
            "--vertices", json.dumps([_embed(model, *v) for v in cat0])]
        cases[f"slim-{model}"] = [
            "slim-check", "--model", model, "--delta", "1",
            "--vertices", json.dumps([_embed(model, *v) for v in slim])]
        cases[f"geodesic-{model}"] = [
            "geodesic-check", "--model", model,
            json.dumps(_embed(model, -0.7, 0.4)), json.dumps(_embed(model, 1.3, -0.25))]
    # at 1024 samples a side the scanned row blocks are ragged: the block
    # height does not divide the number of rows
    for name in ("cat0-kronecker", "slim-quotient", "geodesic-r4"):
        cases[f"{name}-r1024"] = cases[name] + ["--resolution", "1024"]
    return cases


CASES: dict[str, list[str]] = {
    "fixtures-seed0": ["fixtures", "--seed", "0", "--resolution", "512"],
    "fixtures-seed1": ["fixtures", "--seed", "1", "--resolution", "512"],
    "fixtures-seed3": ["fixtures", "--seed", "3", "--resolution", "512"],
    # one sample a side finds no violation: 6 failed checks in 3 fixtures
    "fixtures-r1": ["fixtures", "--resolution", "1"],
    # the README's command-line examples; its bare `stabmetric fixtures`
    # is fixtures-seed0
    "readme-dist-corbit": ["dist", "--model", "corbit", "0", "[0,1]"],
    "readme-dist-kronecker": ["dist", "--model", "kronecker",
                              '{"x":[0.2,0,0.5,0.3],"l":3}', "[0.3,-0.1,0.9,0]"],
    "readme-quotient-dist": ["quotient-dist", "[0.2,0,0.4,0]", "[0.2,0,0.8,0]"],
    "readme-hn": ["hn", "--point", "[0.5,0,1,0]", "--object-class",
                  '{"k":[2,3],"shift":0}'],
    "readme-cat0-check": ["cat0-check", "--model", "corbit", "--vertices",
                          "[[0,0],[2,0],[1,0.3183098861837907]]"],
    "readme-slim-check": ["slim-check", "--model", "corbit", "--delta", "1", "--vertices",
                          "[[0,0],[4,0],[0,1.2732395447351628]]"],
    "readme-geodesic-check": ["geodesic-check", "--model", "corbit", "[0,0]", "[1,0.5]"],
    "readme-pa": ["pa", "--matrix", "[[2,1],[1,1]]"],
    "readme-mass-growth": ["mass-growth", "-n", "200", "--format", "csv"],
    # the mass iteration with three seed vectors, and with a negative trace,
    # whose renormalized state settles with alternating sign
    "mass-growth-three-vectors": ["mass-growth", "-n", "2000", "--seed-vectors",
                                  "[[0.3,0.7],[0.5,0.2],[0.9,0.4]]"],
    "mass-growth-negative-trace": ["mass-growth", "--matrix", "[[-2,-1],[-1,-1]]",
                                   "-n", "2000", "--seed-vectors", "[[0.3,0.7],[1,0]]"],
    "readme-embed-check": ["embed-check", "-n", "100"],
    "readme-sweep": ["sweep", "--kind", "slim-grid", "--deltas", "1,2,4,8"],
    # the quotient solver's descent: a value it leaves above the closed
    # form, an exact tie of the two halves, a pair near the float range,
    # and a Kronecker pair
    "quotient-dist-offset": ["quotient-dist", "[0,0.25,1,1.25]", "[0,0,0.5,0]"],
    "quotient-dist-tie": ["quotient-dist", "[0,0,1,1]", "[0,0,0,0]"],
    "quotient-dist-1e200": ["quotient-dist", "[1e200,3e199,-2e199,5e199]", "[0,0,0,0]"],
    "quotient-dist-kronecker": ["quotient-dist", "--model", "kronecker",
                                "[0,0,0.5,0]", "[0,0.5,0.5,0.5]"],
    **_check_cases(),
}

# the exit code of each case whose report is not a success
EXIT_CODES: dict[str, int] = {"fixtures-r1": 1}


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.out"


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def _parse(text: str):
    """A JSON report as its value; a CSV report as rows of cells, numeric
    cells converted to int or float."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return [[_cell(v) for v in row] for row in csv.reader(io.StringIO(text))]


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _diff(golden, actual, path: str = "$") -> list[str]:
    """Leaves where the reports disagree, as 'path: golden != actual'."""
    if type(golden) is not type(actual):
        return [f"{path}: type {type(golden).__name__} != {type(actual).__name__}"]
    if isinstance(golden, dict):
        if golden.keys() != actual.keys():
            return [f"{path}: keys {sorted(golden)} != {sorted(actual)}"]
        return [d for k in golden for d in _diff(golden[k], actual[k], f"{path}.{k}")]
    if isinstance(golden, list):
        if len(golden) != len(actual):
            return [f"{path}: length {len(golden)} != {len(actual)}"]
        return [d for i, (g, a) in enumerate(zip(golden, actual))
                for d in _diff(g, a, f"{path}[{i}]")]
    if isinstance(golden, float):
        if golden == actual or abs(golden - actual) <= max(ABS_TOL, REL_TOL * abs(golden)):
            return []
        return [f"{path}: {golden!r} != {actual!r}"]
    return [] if golden == actual else [f"{path}: {golden!r} != {actual!r}"]


@pytest.mark.parametrize("name", list(CASES))
def test_report_matches_golden(name):
    code, out = _run(CASES[name])
    assert code == EXIT_CODES.get(name, 0)
    golden = _golden_path(name).read_text(encoding="utf-8")
    assert _diff(_parse(golden), _parse(out)) == []


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN_DIR.glob("*.out")} == set(CASES)


def _write_goldens() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, out = _run(argv)
        if code != EXIT_CODES.get(name, 0):
            sys.exit(f"{name}: exit code {code}")
        _golden_path(name).write_text(out, encoding="utf-8")


if __name__ == "__main__":
    _write_goldens()
