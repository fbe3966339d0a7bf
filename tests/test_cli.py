"""End-to-end tests of the command-line interface."""

import json
import math
import re
from pathlib import Path

import pytest

from stabmetric.cli import main
from stabmetric.fixtures import FIXTURES

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
        assert payload["deviation"] <= 1e-6

    def test_kronecker_quotient(self, capsys):
        code, out, _ = run(capsys, "quotient-dist", "--model", "kronecker",
                           "[0.2,0,0.4,0]", "[0.2,0,0.8,0]")
        payload = json.loads(out)
        assert code == 0
        assert payload["closed_form"] == pytest.approx(0.2, abs=1e-12)
        assert payload["deviation"] <= 1e-6


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
        import subprocess
        import sys

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

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("STABMETRIC_SEED", "5")
        _, via_env, _ = run(capsys, "fixtures", "--filter", "corbit-distance",
                            "--resolution", "128")
        monkeypatch.delenv("STABMETRIC_SEED")
        _, via_flag, _ = run(capsys, "fixtures", "--filter", "corbit-distance",
                             "--seed", "5", "--resolution", "128")
        assert via_env == via_flag

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
            return {"value": 1.0}, {"a": True, "b": False}, []

        monkeypatch.setitem(fx.FIXTURES, "corbit-distance-formula", ("claim", half))
        code, out, _ = run(capsys, "fixtures", "--filter", "corbit-distance")
        [result] = json.loads(out)["results"]
        assert code == 1
        assert result["passed"] is False
        assert result["details"] == {"value": 1.0, "failed_checks": ["b"]}

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


class TestRegionBoundary:
    def test_cat0_vertex_outside_strip(self, capsys):
        code, out, err = run(
            capsys, "cat0-check", "--model", "kronecker", "--resolution", "16",
            "--vertices", json.dumps([[0, 0, 0.5, 0], [1, 0, 1.5, 0], [0, 0, 1.5, 0]]),
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "OutsideRegion"


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
        assert "not JSON compliant" in payload["message"]

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
        assert "not JSON compliant" in payload["message"]

    def test_oracle_overflow(self, capsys):
        payload = self.error(capsys, "dist", "--model", "kronecker",
                             "[0,1e308,0.5,0]", "[0,0,0.5,0]")
        assert payload["error"] == "OverflowError"

    def test_collapsing_mass_seed_named(self, capsys):
        payload = self.error(capsys, "mass-growth", "--matrix", "[[1,1],[1,1]]",
                             "--seed-vectors", "[[1,-1]]")
        assert "[1.0, -1.0]" in payload["message"]

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

    def test_solver_grid_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["quotient-dist", "--grid", "5", "[0.2,0,0.4,0]", "[0.2,0,0.8,0]"])
        assert exc.value.code == 2
