"""End-to-end tests of the command-line interface."""

import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabmetric import cli, dynamics, metriclab, quotient
from stabmetric.cli import build_parser, main
from stabmetric.fixtures import FINITE_CHECK, FIXTURES

REPO_ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDist:
    def test_corbit_imaginary_unit(self, capsys):
        code, out, _ = run(capsys, "dist", "--model", "corbit", "0", "[0,1]")
        assert code == 0
        assert json.loads(out)["distance"] == pytest.approx(math.pi, abs=1e-12)

    def test_kronecker_with_oracle(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--model", "kronecker",
            '{"x":[0.2,0,0.5,0.3],"l":3}', "[0.3,-0.1,0.9,0]",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["distance"] == pytest.approx(0.4, abs=1e-12)
        assert payload["oracle"]["deviation"] == 0.0

    def test_identical_points(self, capsys):
        code, out, _ = run(capsys, "dist", "--model", "r4", "[1,2,3,0]", "[1,2,3,0]")
        assert code == 0
        assert json.loads(out)["distance"] == 0.0

    def test_poincare(self, capsys):
        code, out, _ = run(capsys, "dist", "--model", "poincare", "[0,1]", "[0,2]")
        assert json.loads(out)["distance"] == pytest.approx(math.log(2) / 2, abs=1e-12)

    def test_poincare_nearby_points(self, capsys):
        code, out, err = run(capsys, "dist", "--model", "poincare", "[0,1]", "[1e-9,1]")
        assert (code, err) == (0, "")
        assert json.loads(out)["distance"] == 5e-10

    @pytest.mark.parametrize("model, p, q, distance", [
        ("euclidean", "[0,0]", "[3,4]", 5.0),
        ("quotient", '{"rep":[0,0,1,1]}', "[1,1,1,1]", 0.5),
        ("kronecker-quotient", "[0.2,0,0.4,0]", "[0.2,0,0.8,0]", 0.2),
    ])
    def test_every_handle_model(self, capsys, model, p, q, distance):
        code, out, _ = run(capsys, "dist", "--model", model, p, q)
        assert code == 0
        assert json.loads(out) == {"model": model,
                                   "distance": pytest.approx(distance, abs=1e-12)}

    def test_invalid_point_is_machine_readable(self, capsys):
        code, out, err = run(capsys, "dist", "--model", "kronecker",
                             "[0.5,0,0.3,0]", "[0.5,0,0.9,0]")
        assert code != 0
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "OutsideRegion"


class TestQuotientDist:
    def test_r4_solver_agrees(self, capsys):
        code, out, _ = run(capsys, "quotient-dist", "[0.2,0,0.4,0]", "[0.2,0,0.8,0]")
        payload = json.loads(out)
        assert code == 0
        assert payload["closed_form"] == pytest.approx(0.2, abs=1e-12)
        # the exact optimum for the differences (0, 0, -0.4, 0), rounded once
        assert payload["solver"] == 0.2
        assert payload["deviation"] <= 1e-15

    def test_kronecker_quotient(self, capsys):
        code, out, _ = run(capsys, "quotient-dist", "--model", "kronecker",
                           "[0.2,0,0.4,0]", "[0.2,0,0.8,0]")
        payload = json.loads(out)
        assert code == 0
        assert payload["closed_form"] == pytest.approx(0.2, abs=1e-12)
        assert payload["solver"] == 0.2
        assert payload["deviation"] <= 1e-15

    def test_kronecker_far_apart(self, capsys):
        # the translate of the second point lies where floats are 0.125
        # apart, so its width 0.01 would round to 0
        code, out, _ = run(capsys, "quotient-dist", "--model", "kronecker",
                           "[1e15,0,1000000000000000.5,0]", "[0,0,0.01,0]")
        payload = json.loads(out)
        assert code == 0
        assert payload["closed_form"] == payload["solver"] == 0.25

    @pytest.mark.parametrize("p, q, coordinate", [
        ("[0,-1e308,0,1e308]", "[0,-1e308,0,1.5e308]", "x4 - x2"),
        ("[-1e308,0,1e308,0]", "[-1e308,0,1.5e308,0]", "x3 - x1"),
    ])
    def test_nan_closed_form_exits_2(self, capsys, p, q, coordinate):
        # each representative would overflow to inf, and the closed form's
        # difference inf - inf would be NaN: the first point is named first
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "quotient-dist", p, q)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "ValueError",
                                   "message": f"first point's {coordinate} is not finite"}
        assert not caught


class TestHN:
    def test_profile_shape(self, capsys):
        code, out, _ = run(capsys, "hn", "--point", "[0.5,0,1,0]",
                           "--object-class", '{"k":[2,3],"shift":0}')
        payload = json.loads(out)
        assert code == 0
        factors = payload["profile"]["factors"]
        assert [f["class"]["k"] for f in factors] == [[0, 3], [2, 0]]
        assert payload["profile"]["mass"] == pytest.approx(5.0, abs=1e-12)
        assert payload["profile"]["phi_plus"] == pytest.approx(1.0)

    def test_absent_simple_may_leave_the_doubles(self, capsys):
        # x2 = 1e308 does not enter the charge, profile or support constant of S2
        code, out, err = run(capsys, "hn", "--point", "[0,1e308,0.5,0]",
                             "--object-class", '{"k":[0,1]}')
        payload = json.loads(out, parse_constant=pytest.fail)
        assert (code, err) == (0, "")
        re_part, im_part = payload["central_charge"]
        assert math.isfinite(re_part) and im_part == 1.0
        assert payload["profile"]["mass"] == 1.0
        assert payload["support_constant"] == 1.0


class TestChecks:
    def test_cat0_violation(self, capsys):
        code, out, _ = run(
            capsys, "cat0-check", "--model", "corbit", "--resolution", "128",
            "--vertices", json.dumps([[0, 0], [2, 0], [1, 1 / math.pi]]),
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["result"] == "violation"
        assert payload["certificate"]["margin"] == pytest.approx(1.0, abs=1e-9)

    def test_cat0_kronecker_quotient_violation(self, capsys):
        # the quotient-nonunique-geodesic vertices, as strip representatives
        code, out, _ = run(
            capsys, "cat0-check", "--model", "kronecker-quotient",
            "--vertices", "[[0.2,0,0.4,0],[0.2,0,0.6,0.1],[0.2,0,0.8,0]]",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["result"] == "violation"
        assert payload["certificate"]["space"] == "kronecker-quotient"
        assert payload["certificate"]["margin"] == pytest.approx(0.05, abs=1e-12)

    def test_cat0_pass_euclidean(self, capsys):
        code, out, _ = run(
            capsys, "cat0-check", "--model", "euclidean", "--resolution", "32",
            "--vertices", json.dumps([[0, 0], [1, 0], [0.2, 0.9]]),
        )
        assert json.loads(out)["result"] == "pass"

    def test_slim_violation(self, capsys):
        code, out, _ = run(
            capsys, "slim-check", "--model", "corbit", "--delta", "1",
            "--resolution", "128",
            "--vertices", json.dumps([[0, 0], [4, 0], [0, 4 / math.pi]]),
        )
        payload = json.loads(out)
        assert payload["result"] == "violation"
        assert payload["certificate"]["margin"] == pytest.approx(1.0, abs=1e-9)

    def test_geodesic_check(self, capsys):
        code, out, _ = run(capsys, "geodesic-check", "--model", "corbit",
                           "[0,0]", "[1,0.5]", "--resolution", "64")
        assert json.loads(out)["deviation"] <= 1e-12


class TestPA:
    def test_full_report(self, capsys):
        code, out, _ = run(capsys, "pa", "--matrix", "[[2,1],[1,1]]")
        payload = json.loads(out)
        assert code == 0
        assert payload["pseudo_anosov_exists"] is True
        assert payload["stretch_factor"] == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
        assert payload["translation_length"] == pytest.approx(
            payload["poincare_translation_length"], abs=1e-12
        )

    def test_genus_two(self, capsys):
        code, out, _ = run(capsys, "pa", "--genus", "2")
        payload = json.loads(out)
        assert payload["pseudo_anosov_exists"] is False

    def test_huge_trace(self, capsys):
        big = 10**160
        code, out, _ = run(capsys, "pa", "--matrix", f"[[{big + 1},{big}],[1,1]]")
        payload = json.loads(out)
        assert code == 0
        assert payload["classification"]["trace"] == big + 2
        assert payload["stretch_factor"] == float(big + 2)
        assert payload["translation_length"] == payload["entropy"] == math.log(float(big + 2))

    def test_trace_beyond_doubles(self, capsys):
        big = 2**1024
        code, out, _ = run(capsys, "pa", "--matrix", f"[[{big - 1},{big - 2}],[1,1]]")
        payload = json.loads(out)
        assert code == 0
        assert "stretch_factor" not in payload
        assert (payload["translation_length"] == payload["entropy"]
                == payload["poincare_translation_length"] == math.log(big))

    def test_not_unimodular_error(self, capsys):
        code, _, err = run(capsys, "pa", "--matrix", "[[2,0],[0,2]]")
        assert code != 0
        assert json.loads(err)["error"] == "NotUnimodular"


class TestMassGrowthAndSweeps:
    def test_mass_growth_json(self, capsys):
        code, out, _ = run(capsys, "mass-growth", "-n", "50")
        payload = json.loads(out)
        assert len(payload["values"]) == 50
        assert payload["initial_decay"] is False

    def test_sweep_mass_growth_csv(self, capsys):
        # the CSV series comes from mass-growth itself; sweep has no such kind
        code, out, _ = run(capsys, "mass-growth", "--format", "csv", "-n", "200")
        lines = out.strip().splitlines()
        assert lines[0] == "n,a_n"
        assert len(lines) == 201
        last = float(lines[-1].split(",")[1])
        assert abs(last - math.log((3 + math.sqrt(5)) / 2)) <= 0.02
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--kind", "mass-growth"])
        assert exc.value.code == 2

    def test_sweep_slim_grid(self, capsys):
        code, out, _ = run(capsys, "sweep", "--kind", "slim-grid",
                           "--deltas", "1,2,4,8", "--resolution", "128")
        lines = out.strip().splitlines()
        assert lines[0] == "delta,margin,witness_re,witness_im"
        assert len(lines) == 5
        for line in lines[1:]:
            delta, margin = (float(v) for v in line.split(",")[:2])
            assert margin == pytest.approx(delta, abs=1e-9)

    def test_sweep_isometry_header_only(self, capsys):
        code, out, _ = run(capsys, "sweep", "--kind", "isometry-samples", "-n", "0")
        assert out == "index,metric_deviation,quotient_deviation\n"

    def test_unknown_kind_rejected(self, capsys):
        proc = subprocess.run(
            [sys.executable, "-m", "stabmetric.cli", "sweep", "--kind", "bogus"],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0


class TestEmbedCheck:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "embed-check", "-n", "50", "--seed", "3")
        payload = json.loads(out)
        assert payload["max_metric_deviation"] <= 1e-9
        assert payload["max_quotient_deviation"] <= 1e-9

    def test_environment_holds_no_seed(self, capsys, monkeypatch):
        # --seed is the only seed input: a seed variable named after the program changes nothing
        plain = run(capsys, "embed-check", "-n", "5")
        monkeypatch.setenv(f"{build_parser().prog.upper()}_SEED", "3")
        assert run(capsys, "embed-check", "-n", "5") == plain


class TestFixturesCommand:
    def test_filter_selects_nonunique(self, capsys):
        code, out, _ = run(capsys, "fixtures", "--filter", "nonunique",
                           "--resolution", "128")
        payload = json.loads(out)
        assert code == 0
        ids = [r["fixture_id"] for r in payload["results"]]
        assert ids == ["corbit-nonunique-geodesic", "quotient-nonunique-geodesic"]
        assert payload["all_passed"] is True

    def test_output_is_byte_deterministic(self, capsys):
        _, first, _ = run(capsys, "fixtures", "--filter", "corbit",
                          "--seed", "5", "--resolution", "128")
        _, second, _ = run(capsys, "fixtures", "--filter", "corbit",
                           "--seed", "5", "--resolution", "128")
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "fixtures", "--filter", "corbit-distance",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["all_passed"] is True

    def test_csv_summary(self, capsys):
        code, out, _ = run(capsys, "fixtures", "--filter", "corbit-distance",
                           "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "fixture_id,passed,certificates,claim"
        assert lines[1].startswith("corbit-distance-formula,true,0,")

    def test_full_suite_serializes_and_passes(self, capsys):
        code, out, _ = run(capsys, "fixtures", "--resolution", "128")
        payload = json.loads(out)
        assert code == 0
        assert payload["all_passed"] is True
        assert [r["fixture_id"] for r in payload["results"]] == list(FIXTURES)

    def test_fixture_failure_recorded_and_suite_continues(self, capsys, monkeypatch):
        import stabmetric.fixtures as fx

        def boom(seed, resolution):
            raise RuntimeError("injected failure")

        monkeypatch.setitem(fx.FIXTURES, "corbit-distance-formula", ("claim", boom))
        code, out, _ = run(capsys, "fixtures", "--filter", "corbit")
        payload = json.loads(out)
        assert code == 1
        by_id = {r["fixture_id"]: r for r in payload["results"]}
        assert by_id["corbit-distance-formula"]["passed"] is False
        assert by_id["corbit-distance-formula"]["details"]["error"] == "RuntimeError"
        assert by_id["corbit-slim-violation"]["passed"] is True

    def test_failed_check_is_named(self, capsys, monkeypatch):
        import stabmetric.fixtures as fx

        def half(seed, resolution):
            return {"value": 1.0}, [("a", True, "is", True), ("b", False, "is", True)], []

        monkeypatch.setitem(fx.FIXTURES, "corbit-distance-formula", ("claim", half))
        code, out, _ = run(capsys, "fixtures", "--filter", "corbit-distance")
        [result] = json.loads(out)["results"]
        assert code == 1
        assert result["passed"] is False
        assert result["details"] == {"value": 1.0, "failed_checks": ["b"]}

    def test_nan_detail_is_null_and_exits_1(self, capsys, monkeypatch):
        # a solver that returns NaN fails the fixture; the report still comes out
        monkeypatch.setattr(quotient, "quot_dist_lp",
                            lambda sigma, tau, *args: np.full(len(sigma), np.nan))
        code, out, err = run(capsys, "fixtures", "--filter", "quotient-closed")
        [result] = json.loads(out, parse_constant=pytest.fail)["results"]
        assert code == 1
        assert err == ""
        assert result["passed"] is False
        assert result["details"]["failed_checks"] == [
            "max_solver_deviation <= 1e-12", "same_orbit_distance <= 1e-12"]
        assert result["details"]["max_solver_deviation"] is None
        assert result["details"]["same_orbit_distance"] is None

    def test_inf_detail_fails_its_fixture_and_exits_1(self, capsys, monkeypatch):
        # +inf passes `min_grid_margin >= 0`, but a report with it does not pass
        monkeypatch.setattr(dynamics, "displacement_grid",
                            lambda fs, x, y: np.full((len(fs), *x.shape), np.inf))
        code, out, err = run(capsys, "fixtures", "--filter", "translation-length")
        payload = json.loads(out, parse_constant=pytest.fail)
        [result] = payload["results"]
        assert code == 1
        assert err == ""
        assert payload["all_passed"] is False
        assert result["passed"] is False
        assert result["details"]["failed_checks"] == [FINITE_CHECK]
        assert result["details"]["min_grid_margin"] is None

    def test_coarse_resolution_names_failed_checks(self, capsys):
        code, out, _ = run(capsys, "fixtures", "--filter", "nonunique", "--resolution", "1")
        by_id = {r["fixture_id"]: r for r in json.loads(out)["results"]}
        assert code == 1
        failed = by_id["quotient-nonunique-geodesic"]
        assert failed["passed"] is False
        assert failed["details"]["failed_checks"] == ["cat0 margin >= 0.04"]
        assert by_id["corbit-nonunique-geodesic"]["passed"] is True
        assert "failed_checks" not in by_id["corbit-nonunique-geodesic"]["details"]

    def test_details_are_nested_json(self, capsys):
        _, out, _ = run(capsys, "fixtures", "--filter", "corbit-slim")
        [result] = json.loads(out)["results"]
        witness = result["details"]["deltas"]["1.0"]["witness"]
        assert witness == pytest.approx([2.0, 2.0 / math.pi], abs=1e-9)

    def test_orbit_oracle_sees_a_phase_error(self):
        import stabmetric.fixtures as fx
        from stabmetric import stabmodel

        act = stabmodel.c_act
        # phases shifted by pi * Re(lambda) instead of Re(lambda)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stabmodel, "c_act",
                       lambda p, lam: act(p, complex(math.pi * lam.real, lam.imag)))
            result = fx.build_fixture("corbit-distance-formula", 0, 512)
        assert result.passed is False
        assert result.details["failed_checks"] == [
            "d_B_sampled(p, p.lam, 3) = max{|Re lam|, pi |Im lam|}"]

    def test_error_result_carries_the_claim(self):
        import stabmetric.fixtures as fx

        broken = fx.build_fixture("corbit-cat0-violation", 0, 0)
        assert broken.details["error"] == "ValueError"
        assert broken.claim == fx.build_fixture("corbit-cat0-violation", 0, 64).claim


class TestReadmeTable:
    def test_fixture_ids_match_readme(self):
        # each row is the registry's id and its claim verbatim, with "|" escaped
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `([a-z0-9-]+)` \| (.*) \|$", readme, flags=re.M)
        documented = [(fid, claim.replace("\\|", "|")) for fid, claim in rows]
        assert documented == [(fid, claim) for fid, (claim, _) in FIXTURES.items()]


class TestReadmeSchemas:
    def test_documented_keys_match_reports(self, capsys):
        # the reports serialize dataclass fields, so a field rename must show up here
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = " ".join(readme.split("## JSON schemas")[1].split("\n## ")[0].split())

        def keys(label):
            body = re.search(label + r": `\{(.*?)\}`", section).group(1)
            return set(re.findall(r'"(\w+)"', body))

        _, out, _ = run(capsys, "cat0-check", "--model", "corbit", "--resolution", "16",
                        "--vertices", json.dumps([[0, 0], [2, 0], [1, 1 / math.pi]]))
        certificate = json.loads(out)["certificate"]
        _, out, _ = run(capsys, "hn", "--point", "[0.5,0,1,0]",
                        "--object-class", '{"k":[2,3],"shift":0}')
        hn = json.loads(out)
        assert keys("Certificates") == set(certificate)
        assert keys("Kronecker point") == set(hn["point"])
        assert keys("object class") == set(hn["object_class"])


class TestFixtureTimings:
    def test_one_stderr_line_per_selected_id(self, capsys):
        argv = ("fixtures", "--filter", "corbit", "--resolution", "64")
        _, plain_out, plain_err = run(capsys, *argv)
        _, timed_out, timed_err = run(capsys, *argv, "--timings")
        assert timed_out == plain_out
        assert plain_err == ""
        lines = timed_err.splitlines()
        assert [line.split(": ")[0] for line in lines] == [f for f in FIXTURES if "corbit" in f]
        assert all(re.fullmatch(r"[a-z0-9-]+: \d+\.\d ms", line) for line in lines)

    def test_numpy_random_loads_before_the_first_timer(self):
        # numpy imports numpy.random on first use; the first fixture that
        # draws must not be charged for the import
        probe = "\n".join([
            "import sys",
            "from stabmetric import cli, fixtures",
            "build = fixtures.build_fixture",
            "loaded = []",
            "def spy(*args):",
            "    loaded.append('numpy.random' in sys.modules)",
            "    return build(*args)",
            "fixtures.build_fixture = spy",
            "assert 'numpy.random' not in sys.modules",
            "assert cli.main(['fixtures', '--timings', '--resolution', '8', '--format', 'csv']) == 0",
            "print(loaded[0], len(loaded))",
        ])
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith(f"True {len(FIXTURES)}\n")


class TestRegionBoundary:
    def test_cat0_vertex_outside_strip(self, capsys):
        code, out, err = run(
            capsys, "cat0-check", "--model", "kronecker", "--resolution", "16",
            "--vertices", json.dumps([[0, 0, 0.5, 0], [1, 0, 1.5, 0], [0, 0, 1.5, 0]]),
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "OutsideRegion"

    # every command that reads a Kronecker point, with argv slots P
    # (outside the strip: x3 - x1 = 1.5), Q (inside) and TRIANGLE (three
    # vertices outside)
    SLOTS = {"P": [0, 0, 1.5, 0], "Q": [0.2, 0, 0.5, 0.3],
             "TRIANGLE": [[0, 0, 1.5, 0], [4, 0, 5.5, 0], [0, 4, 1.5, 4]]}

    @pytest.mark.parametrize("form", ["list", "dict"])
    @pytest.mark.parametrize("argv", [
        ("dist", "--model", "kronecker", "P", "Q"),
        ("quotient-dist", "--model", "kronecker", "P", "Q"),
        ("hn", "--point", "P", "--object-class", '{"k":[1,1]}'),
        ("cat0-check", "--model", "kronecker", "--resolution", "16", "--vertices", "TRIANGLE"),
        ("slim-check", "--model", "kronecker", "--resolution", "16", "--delta", "0.5",
         "--vertices", "TRIANGLE"),
        ("geodesic-check", "--model", "kronecker", "--resolution", "16", "P", "Q"),
    ], ids=lambda argv: argv[0])
    def test_point_outside_strip(self, capsys, argv, form):
        def point(x):
            return x if form == "list" else {"x": x, "l": 3}

        slots = {"P": point(self.SLOTS["P"]), "Q": point(self.SLOTS["Q"]),
                 "TRIANGLE": [point(v) for v in self.SLOTS["TRIANGLE"]]}
        code, out, err = run(capsys, *(json.dumps(slots[a]) if a in slots else a for a in argv))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "OutsideRegion"


class TestArrowCount:
    """The arrow count l of Kronecker points carries over to the
    witnesses, and points that disagree on it are rejected."""

    VERTICES = [[0, 0, 0.5, 0], [2, 0, 2.5, 0], [1, 1, 1.5, 1]]
    # each model's vertices and arrow count; in the quotient, VERTICES are
    # one orbit, so it takes the quotient-nonunique-geodesic vertices
    TRIANGLES = {"kronecker": (VERTICES, 5),
                 "kronecker-quotient": ([[0.2, 0, 0.4, 0], [0.2, 0, 0.6, 0.1],
                                         [0.2, 0, 0.8, 0]], 2)}

    @pytest.mark.parametrize("argv, witnesses", [
        (("cat0-check", "--model", "kronecker", "--resolution", "16"), ["p", "q"]),
        (("slim-check", "--model", "kronecker", "--resolution", "16", "--delta", "0.1"),
         ["point"]),
        pytest.param(("cat0-check", "--model", "kronecker-quotient", "--resolution", "16"),
                     ["p", "q"], id="cat0-check-kronecker-quotient"),
        pytest.param(("slim-check", "--model", "kronecker-quotient", "--resolution", "16",
                      "--delta", "0.01"), ["point"], id="slim-check-kronecker-quotient"),
    ], ids=lambda v: v[0] if isinstance(v, tuple) else None)
    def test_witnesses_keep_l(self, capsys, argv, witnesses):
        vertices, l = self.TRIANGLES[argv[2]]
        points = [{"x": x, "l": l} for x in vertices]
        code, out, _ = run(capsys, *argv, "--vertices", json.dumps(points))
        cert = json.loads(out)["certificate"]
        assert code == 0
        assert [v["l"] for v in cert["vertices"]] == [l, l, l]
        assert [cert["witness"][w]["l"] for w in witnesses] == [l] * len(witnesses)

    @pytest.mark.parametrize("argv", [
        ("dist", "--model", "kronecker", "P", "Q"),
        ("quotient-dist", "--model", "kronecker", "P", "Q"),
        ("cat0-check", "--model", "kronecker", "--resolution", "16", "--vertices", "TRIANGLE"),
        ("slim-check", "--model", "kronecker", "--resolution", "16", "--delta", "0.5",
         "--vertices", "TRIANGLE"),
        ("geodesic-check", "--model", "kronecker", "--resolution", "16", "P", "Q"),
        *(pytest.param((command, "--model", "kronecker-quotient", *rest),
                       id=f"{command}-kronecker-quotient")
          for command, *rest in [
              ("dist", "P", "Q"),
              ("cat0-check", "--resolution", "16", "--vertices", "TRIANGLE"),
              ("slim-check", "--resolution", "16", "--delta", "0.5", "--vertices", "TRIANGLE"),
              ("geodesic-check", "--resolution", "16", "P", "Q"),
          ]),
    ], ids=lambda argv: argv[0])
    def test_disagreeing_points_rejected(self, capsys, argv):
        p, q, r = ({"x": x, "l": l} for x, l in zip(self.VERTICES, (3, 4, 3)))
        slots = {"P": p, "Q": q, "TRIANGLE": [p, r, q]}
        code, out, err = run(capsys, *(json.dumps(slots[a]) if a in slots else a for a in argv))
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}
        assert "arrow count" in payload["message"]


class TestInputBoundary:
    def error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}
        return payload

    @pytest.mark.parametrize("argv", [
        ("cat0-check", "--model", "corbit", "--vertices", "[[0,0],[2,0],[1,0.3]]"),
        ("slim-check", "--model", "corbit", "--delta", "1",
         "--vertices", "[[0,0],[4,0],[0,1.3]]"),
        ("geodesic-check", "--model", "corbit", "[0,0]", "[1,0.5]"),
        ("fixtures",),
    ])
    @pytest.mark.parametrize("resolution", ["0", "-1"])
    def test_resolution_below_one(self, capsys, argv, resolution):
        payload = self.error(capsys, *argv, "--resolution", resolution)
        assert payload["error"] == "ValueError"
        assert "resolution" in payload["message"]

    @pytest.mark.parametrize("matrix", ["[[2.7,1],[1,1]]", "[[true,1],[0,true]]",
                                        '[["2",1],[1,1]]'])
    def test_pa_rejects_non_integer_entries(self, capsys, matrix):
        assert self.error(capsys, "pa", "--matrix", matrix)["error"] == "NotUnimodular"

    def test_pa_matrix_away_from_genus_one(self, capsys):
        payload = self.error(capsys, "pa", "--genus", "2", "--matrix", "[[2,1],[1,1]]")
        assert payload["error"] == "ValueError"
        assert "genus one only" in payload["message"]

    def test_pa_accepts_integral_floats(self, capsys):
        code, out, _ = run(capsys, "pa", "--matrix", "[[2.0,1],[1,1.0]]")
        assert code == 0
        assert json.loads(out)["classification"]["trace"] == 3

    @pytest.mark.parametrize("point", ["[NaN,0]", "[Infinity,0]", "[0,-Infinity]", "[1e999,0]"])
    def test_non_finite_input_rejected(self, capsys, point):
        payload = self.error(capsys, "dist", "--model", "corbit", point, "[1,0]")
        assert "non-finite" in payload["message"]

    def test_non_finite_report_rejected(self, capsys):
        payload = self.error(capsys, "dist", "--model", "corbit", "[1e308,0]", "[-1e308,0]")
        assert payload["message"] == ("first point and second point differ by a non-finite "
                                      "amount in coordinate 1")

    # finite points whose distances overflow: the guard names the pair and
    # the coordinate before any array work, so no numpy warning is printed
    @pytest.mark.parametrize("argv, message", [
        (("geodesic-check", "--model", "corbit", "[-1e308,0]", "[1e308,0]",
          "--resolution", "4"), "first point and second point"),
        (("cat0-check", "--model", "corbit", "--vertices", "[[-1e308,0],[1e308,0],[0,1]]"),
         "vertex 1 and vertex 2"),
        (("slim-check", "--model", "r4", "--delta", "1",
          "--vertices", "[[-1e308,0,0,0],[1e308,0,0,0],[0,1,0,0]]"), "vertex 1 and vertex 2"),
        (("dist", "--model", "poincare", "[-1e308,1]", "[1e308,1]"),
         "first point and second point"),
        (("quotient-dist", "--model", "r4", "[-1e308,0,0,0]", "[1e308,0,0,0]"),
         "first point and second point"),
    ], ids=["geodesic-check", "cat0-check", "slim-check", "dist-poincare", "quotient-dist"])
    def test_overflowing_difference_named(self, capsys, argv, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            payload = self.error(capsys, *argv)
        assert payload == {"error": "ValueError", "message": message
                           + " differ by a non-finite amount in coordinate 1"}
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    # finite points whose distances are finite but whose squares are not:
    # a finite report, without a warning
    @pytest.mark.parametrize("argv", [
        ("dist", "--model", "poincare", "[0,1e-320]", "[0,1e300]"),
        ("dist", "--model", "poincare", "[0,1]", "[1e200,1]"),
        ("dist", "--model", "poincare", "[0,1e-10]", "[1e150,1e-10]"),
        ("dist", "--model", "poincare", "[0,1e-320]", "[1,1e-320]"),
        ("dist", "--model", "poincare", "[0,1]", "[1.5e308,1.5e308]"),
        ("cat0-check", "--model", "r4", "--resolution", "8",
         "--vertices", "[[0,0,0,0],[1e200,0,0,0],[0,1e200,0,0]]"),
        ("cat0-check", "--model", "corbit", "--resolution", "8",
         "--vertices", "[[0,0],[1e200,0],[0,1e200]]"),
        ("cat0-check", "--model", "kronecker", "--resolution", "8",
         "--vertices", "[[0,0,0.5,0],[0,1e200,0.5,0],[0,0,0.5,1e200]]"),
    ], ids=["poincare-1e300", "poincare-1e200", "poincare-1e150", "poincare-1e-320",
            "poincare-gap-overflows", "cat0-r4", "cat0-corbit", "cat0-kronecker"])
    def test_squares_beyond_the_doubles(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        report = json.loads(out)
        value = report["certificate"]["margin"] if argv[0] == "cat0-check" else report["distance"]
        assert math.isfinite(value) and value > 0.0
        assert not caught

    # finite coordinate differences whose weighted projection w_k |L_k(p - q)|
    # overflows (pi times Im, x2 - x4): the handle's check names the pair and
    # the row before any scan; the last pair's term is finite but within the
    # 1e-12 rounding room below the largest double
    @pytest.mark.parametrize("argv, pair", [
        (("geodesic-check", "--model", "corbit", "--resolution", "4", "[0,-5e307]", "[0,5e307]"),
         "first point and second point"),
        (("geodesic-check", "--model", "kronecker-quotient",
          "[0,-5e307,0.5,5e307]", "[0,5e307,0.5,-5e307]"), "first point and second point"),
        (("dist", "--model", "corbit", "[0,-5e307]", "[0,5e307]"), "first point and second point"),
        (("slim-check", "--model", "corbit", "--delta", "0.1", "--resolution", "8",
          "--vertices", "[[0,-5e307],[0,5e307],[1,0]]"), "vertex 1 and vertex 2"),
        (("cat0-check", "--model", "corbit", "--resolution", "8",
          "--vertices", "[[1,0],[0,-5e307],[0,5e307]]"), "vertex 2 and vertex 3"),
        (("geodesic-check", "--model", "corbit", "--resolution", "4",
          "[0,-2.8611174857567414e307]", "[0,2.8611174857567414e307]"),
         "first point and second point"),
    ], ids=["geodesic-corbit", "geodesic-kronecker-quotient", "dist-corbit", "slim-corbit",
            "cat0-corbit", "in-the-room"])
    def test_overflowing_weighted_difference_named(self, capsys, argv, pair):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            payload = self.error(capsys, *argv)
        assert payload == {"error": "ValueError", "message": pair + " are too far apart in "
                           "projection row 2: a scan of it would overflow"}
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    # a point whose own projection L_k v overflows (x2 - x4 is -2e308), though
    # the points agree: the checks name the point and the row before any
    # scan, and `dist` keeps its report
    _FAR_OUT = "[0,-1e308,0.5,1e308]"
    _FAR_OUT_TRIANGLE = f"[[1,-1e308,1.5,1e308],{_FAR_OUT},[0.5,-1e308,0.7,1e308]]"

    @pytest.mark.parametrize("argv, point", [
        (("geodesic-check", "--model", "kronecker-quotient", "--resolution", "4",
          _FAR_OUT, _FAR_OUT), "first point"),
        (("cat0-check", "--model", "kronecker-quotient", "--vertices", _FAR_OUT_TRIANGLE),
         "vertex 1"),
        (("slim-check", "--model", "kronecker-quotient", "--delta", "0.1", "--vertices",
          _FAR_OUT_TRIANGLE), "vertex 1"),
    ], ids=["geodesic", "cat0", "slim"])
    def test_overflowing_projection_of_a_point_named(self, capsys, argv, point):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            payload = self.error(capsys, *argv)
            code, out, err = run(capsys, "dist", "--model", "kronecker-quotient",
                                 self._FAR_OUT, self._FAR_OUT)
        assert payload == {"error": "ValueError", "message": point + " lies too far out in "
                           "projection row 2: a scan of it would overflow"}
        assert (code, err, json.loads(out)["distance"]) == (0, "", 0.0)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("argv", [
        ("geodesic-check", "--model", "corbit", "--resolution", "64"),
        ("dist", "--model", "corbit"),
    ])
    def test_weighted_difference_below_the_room(self, capsys, argv):
        # pi * Im difference is 1e-11 below the largest double, below the room
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv, "[0,-2.8611174857284165e307]",
                                 "[0,2.8611174857284165e307]")
        assert (code, err, caught) == (0, "", [])
        report = json.loads(out)
        assert math.isfinite(report["deviation" if argv[0] == "geodesic-check" else "distance"])

    # a quotient point whose own representative overflows is named with
    # its coordinate, even when the points agree
    @pytest.mark.parametrize("argv, message", [
        (("dist", "--model", "quotient", "[0,-1e308,0,1e308]", "[0,-1e308,0,1e308]"),
         "first point's x4 - x2"),
        (("cat0-check", "--model", "quotient", "--vertices",
          "[[0,0,0,0],[-1e308,0,1e308,0],[0,0,1,0]]"), "vertex 2's x3 - x1"),
    ], ids=["dist", "cat0-check"])
    def test_overflowing_representative_named(self, capsys, argv, message):
        assert self.error(capsys, *argv) == {"error": "ValueError",
                                             "message": message + " is not finite"}

    # dict-form inputs name the field they miss and its shape
    @pytest.mark.parametrize("argv, field", [
        (("hn", "--point", "[0.5,0,1,0]", "--object-class", "[2,3]"), '"k"'),
        (("hn", "--point", "[0.5,0,1,0]", "--object-class", '{"k":5}'), '"k"'),
        (("hn", "--point", "[0.5,0,1,0]", "--object-class", "{}"), '"k"'),
        (("hn", "--point", '{"l":3}', "--object-class", '{"k":[1,2]}'), '"x"'),
        (("dist", "--model", "quotient", "{}", "[0,0,1,1]"), '"rep"'),
    ], ids=["object-class-list", "object-class-int-k", "object-class-empty",
            "kronecker-no-x", "quotient-no-rep"])
    def test_dict_form_names_field(self, capsys, argv, field):
        payload = self.error(capsys, *argv)
        assert payload["error"] == "ValueError"
        assert field in payload["message"]
        assert re.search(r"pair of integers|list of four numbers", payload["message"])

    def test_undeclared_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--model", "r4", "--format", "csv", "[0,0,0,0]", "[1,0,0,0]"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("model, p, q", [
        ("r4", "[1e308,0,0,0]", "[-1e308,0,0,0]"),
        ("kronecker", "[0,1e308,0.5,0]", "[0,-1e308,0.5,0]"),
    ])
    def test_solver_overflow(self, capsys, model, p, q):
        payload = self.error(capsys, "quotient-dist", "--model", model, p, q)
        assert re.fullmatch("first point and second point differ by a non-finite amount "
                            "in coordinate [12]", payload["message"])

    def test_oracle_overflow(self, capsys):
        payload = self.error(capsys, "dist", "--model", "kronecker",
                             "[0,1e308,0.5,0]", "[0,0,0.5,0]")
        assert payload == {"error": "ValueError", "message": "log-modulus x2 = 1e+308 is "
                           "out of range: exp(x2) overflows a double"}

    # a log-modulus whose exp leaves the doubles is named with its value
    @pytest.mark.parametrize("argv, message", [
        (("dist", "--model", "kronecker", "[0,800,0.5,0]", "[0,0,0.5,0]"),
         "log-modulus x2 = 800.0 is out of range: exp(x2) overflows a double"),
        (("hn", "--point", "[0,1e308,0.5,0]", "--object-class", '{"k":[1,1]}'),
         "log-modulus x2 = 1e+308 is out of range: exp(x2) overflows a double"),
        (("hn", "--point", "[0,-800,0.5,0]", "--object-class", '{"k":[1,1]}'),
         "log-modulus x2 = -800.0 is out of range: exp(-x2) overflows a double"),
        (("hn", "--point", "[0,0,0.5,-800]", "--object-class", '{"k":[1,0]}'),
         "log-modulus x4 = -800.0 is out of range: exp(-x4) overflows a double"),
    ], ids=["dist", "hn-mass", "hn-support-x2", "hn-support-x4"])
    def test_log_modulus_overflow_named(self, capsys, argv, message):
        assert self.error(capsys, *argv) == {"error": "ValueError", "message": message}

    def test_collapsing_mass_seed_named(self, capsys):
        payload = self.error(capsys, "mass-growth", "--matrix", "[[1,1],[1,1]]",
                             "--seed-vectors", "[[1,-1]]")
        assert "[1.0, -1.0]" in payload["message"]

    def test_overflowing_mass_seed_named(self, capsys):
        # |M u| leaves the doubles at iterate 2; the unit vector (0, 0) it
        # would leave behind is not reported as a collapse at iterate 3
        payload = self.error(capsys, "mass-growth", "--matrix", "[[1e308,1e308],[1e308,1e308]]",
                             "-n", "5")
        assert payload == {"error": "ValueError",
                           "message": "seed vector [1.0, 0.0] overflows a double at iterate 2"}

    @pytest.mark.parametrize("argv", [
        ("embed-check", "-n", "-5"),
        ("sweep", "--kind", "isometry-samples", "-n", "-3"),
        ("embed-check", "-n", "0"),  # a maximum over no pairs certifies nothing
    ])
    def test_negative_sample_count(self, capsys, argv):
        payload = self.error(capsys, *argv)
        assert payload["error"] == "ValueError"
        assert "sample count" in payload["message"]

    def test_slim_grid_without_violation_named(self, capsys):
        payload = self.error(capsys, "sweep", "--kind", "slim-grid", "--resolution", "1")
        assert payload["error"] == "ValueError"
        assert "delta 1.0" in payload["message"]
        assert "resolution 1" in payload["message"]

    @pytest.mark.parametrize("point, object_class", [
        ("[0.5,0,1,0]", '{"k":[2.7,1]}'),
        ("[0.5,0,1,0]", '{"k":[2,1],"shift":0.5}'),
        ("[0.5,0,1,0]", '{"k":[true,2]}'),
        ('{"x":[0.5,0,1,0],"l":2.5}', '{"k":[1,2]}'),
        ('{"x":[0.5,0,1,0],"l":true}', '{"k":[1,2]}'),
    ])
    def test_hn_rejects_non_integer_fields(self, capsys, point, object_class):
        payload = self.error(capsys, "hn", "--point", point, "--object-class", object_class)
        assert payload["error"] == "ValueError"
        assert "must be an integer" in payload["message"]

    def test_hn_accepts_integral_floats(self, capsys):
        code, out, _ = run(capsys, "hn", "--point", '{"x":[0.5,0,1,0],"l":2.0}',
                           "--object-class", '{"k":[2.0,3],"shift":-1.0}')
        payload = json.loads(out)
        assert code == 0
        fields = [*payload["object_class"]["k"], payload["object_class"]["shift"],
                  payload["point"]["l"]]
        assert fields == [2, 3, -1, 2]
        assert all(type(v) is int for v in fields)

    @pytest.mark.parametrize("vectors", ["[[1]]", "[[1,0,5]]"])
    def test_mass_seed_vectors_are_pairs(self, capsys, vectors):
        payload = self.error(capsys, "mass-growth", "--seed-vectors", vectors)
        assert payload["error"] == "ValueError"
        assert "pairs" in payload["message"]

    @pytest.mark.parametrize("argv", [
        ("dist", "--model", "corbit", "true", "[0,1]"),
        ("dist", "--model", "corbit", "[0,false]", "[0,1]"),
        ("dist", "--model", "r4", "[0,0,true,0]", "[0,0,0,0]"),
        ("quotient-dist", "--model", "kronecker", "[0,0,0.5,0]", "[false,0,0.5,0]"),
        ("hn", "--point", '{"x":[0,true,0.5,0]}', "--object-class", '{"k":[1,1]}'),
        ("geodesic-check", "--model", "quotient", '{"rep":[0,0,true,0]}', "[0,0,0,0]"),
        ("mass-growth", "--seed-vectors", "[[true,false]]"),
        ("mass-growth", "--matrix", "[[true,1],[1,1]]"),
    ])
    def test_bools_are_not_numbers(self, capsys, argv):
        payload = self.error(capsys, *argv)
        assert payload["error"] == "ValueError"
        assert "must be a number" in payload["message"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_filter_matching_nothing(self, capsys, monkeypatch, fmt):
        # an empty selection would report all_passed over no fixtures
        monkeypatch.setattr("stabmetric.fixtures.build_fixture",
                            lambda *args: pytest.fail("a fixture ran"))
        payload = self.error(capsys, "fixtures", "--filter", "nosuch", "--format", fmt)
        assert payload["error"] == "ValueError"
        assert "'nosuch'" in payload["message"]

    def test_negative_seed_runs_no_fixture(self, capsys, monkeypatch):
        monkeypatch.setattr("stabmetric.fixtures.build_fixture",
                            lambda *args: pytest.fail("a fixture ran"))
        payload = self.error(capsys, "fixtures", "--seed", "-1")
        assert payload["error"] == "ValueError"
        assert "seed must be nonnegative" in payload["message"]

    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan"])
    def test_cat0_tol_must_be_finite(self, capsys, tol):
        payload = self.error(capsys, "cat0-check", "--model", "corbit", f"--tol={tol}",
                             "--vertices", "[[0,0],[2,0],[1,0.3]]")
        assert payload["error"] == "ValueError"
        assert "tol must be finite" in payload["message"]

    @pytest.mark.parametrize("argv", [
        ("slim-check", "--model", "corbit", "--delta", "nan",
         "--vertices", "[[0,0],[4,0],[0,1.3]]"),
        ("slim-check", "--model", "corbit", "--delta", "inf",
         "--vertices", "[[0,0],[4,0],[0,1.3]]"),
        ("sweep", "--kind", "slim-grid", "--deltas", "nan"),
        ("sweep", "--kind", "slim-grid", "--deltas", "inf"),
    ])
    def test_delta_must_be_finite(self, capsys, argv):
        payload = self.error(capsys, *argv)
        assert payload["error"] == "ValueError"
        assert "delta must be finite and positive" in payload["message"]

    def test_solver_grid_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["quotient-dist", "--grid", "5", "[0.2,0,0.4,0]", "[0.2,0,0.8,0]"])
        assert exc.value.code == 2

    # the checks sample the fixed grid i / resolution and draw nothing
    @pytest.mark.parametrize("argv", [
        ("cat0-check", "--model", "corbit", "--vertices", "[[0,0],[2,0],[1,0.3]]"),
        ("slim-check", "--model", "corbit", "--delta", "1", "--vertices", "[[0,0],[4,0],[0,1.3]]"),
    ])
    def test_checks_take_no_seed(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("cat0-check", "--model", "corbit", "--vertices", "[[0,0],[2,0],[1,0.3]]"),
        ("slim-check", "--model", "corbit", "--delta", "1",
         "--vertices", "[[0,0],[4,0],[0,1.3]]"),
        ("geodesic-check", "--model", "corbit", "[0,0]", "[1,0.5]"),
        ("sweep", "--kind", "slim-grid"),
        ("fixtures",),
    ])
    def test_resolution_above_bound(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("stabmetric.fixtures.build_fixture",
                            lambda *args: pytest.fail("a fixture ran"))
        payload = self.error(capsys, *argv, "--resolution", str(metriclab.MAX_RESOLUTION + 1))
        assert payload["message"] == "resolution must be in 1..8192, got 8193"

    @pytest.mark.parametrize("argv, bound, message", [
        (("mass-growth",), dynamics.MAX_ITERATES, "n must be in 1..100000, got 100001"),
        (("embed-check",), quotient.MAX_SAMPLES,
         "sample count must be in 0..100000, got 100001"),
        (("sweep", "--kind", "isometry-samples"), quotient.MAX_SAMPLES,
         "sample count must be in 0..100000, got 100001"),
    ])
    def test_count_above_bound(self, capsys, monkeypatch, argv, bound, message):
        # the first calls of the mass iteration and of the strip draws
        for name in ("math.hypot", "numpy.random.default_rng"):
            monkeypatch.setattr(name, lambda *args: pytest.fail("work started"))
        payload = self.error(capsys, *argv, "-n", str(bound + 1))
        assert payload == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("argv", [("pa", "--matrix", "[[2,1],[1,1]]"), ("fixtures",)])
    @pytest.mark.parametrize("missing_parent", [True, False])
    def test_unwritable_out(self, capsys, monkeypatch, tmp_path, argv, missing_parent):
        # exit 2, not fixtures' exit 1 for a failed fixture, and before any work
        monkeypatch.setattr("stabmetric.fixtures.build_fixture",
                            lambda *args: pytest.fail("a fixture ran"))
        out = tmp_path / "missing" / "x.json" if missing_parent else tmp_path
        payload = self.error(capsys, *argv, "--out", str(out))
        assert payload["error"] == "OSError"
        assert "names no file in an existing directory" in payload["message"]
        assert list(tmp_path.iterdir()) == []

    def test_deeply_nested_json(self, capsys):
        nested = "[" * 20000 + "]" * 20000
        payload = self.error(capsys, "dist", "--model", "corbit", nested, "0")
        assert payload == {"error": "ValueError",
                           "message": "invalid JSON for first point: nested too deeply"}


class TestCachedParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_no_parse_state_carries_over(self, capsys, tmp_path):
        # each call in this process prints what a fresh process prints
        report = tmp_path / "report.json"
        vertices = "[[0,0,0,0],[2,0,2,0],[1,1,1,1]]"
        calls = [
            ("embed-check", "-n", "3", "--seed", "5"),
            ("embed-check", "-n", "3"),
            ("cat0-check", "--model", "r4", "--resolution", "16", "--vertices", vertices),
            ("fixtures", "--timings", "--out", str(report)),
            ("fixtures",),
            ("dist", "--model", "bogus", "0", "1"),
            ("pa", "--matrix", "[[2,1],[1,1]]"),
        ]
        seen = []
        for argv in calls:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            here = capsys.readouterr()
            written = report.read_text() if report.exists() else None
            report.unlink(missing_ok=True)
            fresh = subprocess.run([sys.executable, "-m", "stabmetric.cli", *argv],
                                   capture_output=True, text=True)
            assert (code, here.out) == (fresh.returncode, fresh.stdout), argv
            if "--timings" not in argv:  # the timings are wall-clock
                assert here.err == fresh.stderr, argv
            assert written == (report.read_text() if report.exists() else None), argv
            report.unlink(missing_ok=True)
            seen.append((code, here.out))
        assert seen[0][1] != seen[1][1]  # the report names its seed, 5 then 0
        assert seen[5] == (2, "")


class TestQuotientImports:
    def test_no_fractions_or_decimal(self):
        # the exact LP works in ints; Fraction would pull in decimal too
        probe = "\n".join([
            "import sys",
            "from stabmetric.cli import main",
            "assert main(['quotient-dist', '[0,0.25,1,1.25]', '[0,0,0.5,0]']) == 0",
            "assert main(['quotient-dist', '--model', 'kronecker', '[0,0,0.5,0]',",
            "             '[0,0.5,0.5,0.5]']) == 0",
            "assert main(['fixtures', '--resolution', '8', '--format', 'csv']) == 0",
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)), file=sys.stderr)",
        ])
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[]\n"


class TestPackageRoot:
    def test_import_loads_no_submodule_and_no_numpy(self):
        probe = ("import sys, stabmetric; print(sorted(m for m in sys.modules "
                 "if m == 'numpy' or m.startswith('stabmetric.')))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_scalar_commands_load_no_numpy(self):
        probe = "\n".join([
            "import sys",
            "from stabmetric.cli import build_parser, main",
            "build_parser()",
            "for argv in (['pa', '--matrix', '[[2,1],[1,1]]'], ['pa', '--genus', '2'],",
            "             ['mass-growth', '-n', '50'], ['mass-growth', '--format', 'csv'],",
            "             ['dist', '--model', 'poincare', '[0,1]', '[1,2]']):",
            "    assert main(argv) == 0, argv",
            "assert 'numpy' not in sys.modules, 'numpy loaded'",
            "sys.exit(main(['fixtures', '--filter', 'pa-classification', '--resolution', '8']))",
        ])
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def json_values(leaves):
    """Recursive JSON-like values over ``leaves``: lists, tuples and dicts
    with str keys, empty ones included, and flat lists of floats."""
    return st.recursive(
        leaves | st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
        lambda children: (st.lists(children, max_size=5)
                          | st.lists(children, max_size=5).map(tuple)
                          | st.dictionaries(st.text(max_size=8), children, max_size=5)),
        max_leaves=20,
    )


FLOAT_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308,
                               1.7976931348623157e308, 0.1, 1e16, 1e-7])
JSON_LEAVES = (st.none() | st.booleans() | st.integers()
               | st.integers(-(10 ** 400), 10 ** 400) | FLOAT_EDGES
               | st.floats(allow_nan=False, allow_infinity=False) | st.text())


def dumps_outcome(write, value):
    """What ``write(value)`` returns, or the type and message of what it raises."""
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def reference_text(value):
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(json_values(JSON_LEAVES))
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == reference_text(value)

    @settings(max_examples=200, deadline=None)
    @given(json_values(JSON_LEAVES | st.sampled_from([math.nan, math.inf, -math.inf])))
    def test_non_finite_raises_as_json_dumps(self, value):
        assert dumps_outcome(cli._json_text, value) == dumps_outcome(reference_text, value)

    @pytest.mark.parametrize("value", [
        [np.float64(1.5), 2.0], {"a": np.float64(-0.0)}, np.float64(1e308), [np.int64(3)],
        {1: "a", 2: [1.0]}, {"k": {3: [1.0, {"z": 1}]}}, {1: 1, "a": 2}, [1.0, True],
        {"x": [np.float64("nan")]}, {1: math.nan}, [1.0, 2.0, -math.inf, math.nan],
        {"b": [[], {}, ()], "a": ("\u00e9\n\x00", None)}, {"k": object()},
    ], ids=["float64-list", "float64-value", "float64-top", "int64", "int-keys",
            "nested-int-keys", "mixed-keys", "float-and-bool", "float64-nan", "int-key-nan",
            "first-non-finite", "empty-containers", "unknown-type"])
    def test_fallback_cases(self, value):
        assert dumps_outcome(cli._json_text, value) == dumps_outcome(reference_text, value)

    def test_nested_fallback_indents(self):
        value = {"outer": [{"inner": {2: [1.0, "x"]}}]}
        assert cli._json_text(value) == reference_text(value)
        assert "\n          1.0" in cli._json_text(value)
