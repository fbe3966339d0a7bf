"""The fixtures' one pass/fail rule: checks are (name, value, relation,
bound) records, and ``build_fixture`` alone turns them into verdicts."""

import math
from dataclasses import replace

import numpy as np
import pytest

from stabmetric import dynamics, metriclab, quotient, stabmodel
from stabmetric.fixtures import FIXTURES, RELATIONS, build_fixture

NUMERIC = ("<=", ">=", "<", ">")


@pytest.fixture(scope="module", params=[0, 1])
def records(request):
    """Each fixture's records at one seed, straight from its builder."""
    return {fid: builder(request.param, 512)[1] for fid, (_, builder) in FIXTURES.items()}


def _canned(details, checks):
    return lambda seed, resolution: (details, checks, [])


class TestRecords:
    def test_relations_and_bounds(self, records):
        for fid, checks in records.items():
            for name, value, relation, bound in checks:
                assert relation in RELATIONS, (fid, name)
                if relation in NUMERIC:
                    assert isinstance(bound, float) and math.isfinite(bound), (fid, name)
                else:
                    assert type(value) is bool and type(bound) is bool, (fid, name)

    def test_names_are_unique(self, records):
        for fid, checks in records.items():
            names = [name for name, *_ in checks]
            assert len(set(names)) == len(names), fid

    def test_seed_zero_count(self):
        assert sum(len(builder(0, 512)[1]) for _, builder in FIXTURES.values()) == 118


class TestRule:
    @staticmethod
    def _crossed(value, relation):
        """A bound just across the value, so that the relation fails."""
        return {"<=": math.nextafter(value, -math.inf), "<": value,
                ">=": math.nextafter(value, math.inf), ">": value}.get(relation, not value)

    def test_a_crossed_bound_names_its_check(self, monkeypatch):
        for fid, (claim, builder) in list(FIXTURES.items()):
            details, checks, _ = builder(0, 512)
            for k, (name, value, relation, _) in enumerate(checks):
                crossed = [*checks[:k], (name, value, relation, self._crossed(value, relation)),
                           *checks[k + 1:]]
                monkeypatch.setitem(FIXTURES, fid, (claim, _canned(details, crossed)))
                result = build_fixture(fid)
                assert result.passed is False
                assert result.details["failed_checks"] == [name]

    def test_nan_fails_every_numeric_relation(self, monkeypatch):
        checks = [(relation, math.nan, relation, 0.0) for relation in NUMERIC]
        monkeypatch.setitem(FIXTURES, "entropy-chain", ("claim", _canned({}, checks)))
        result = build_fixture("entropy-chain")
        assert result.passed is False
        assert result.details["failed_checks"] == list(NUMERIC)


class TestQuotientClosedForm:
    def test_closed_form_off_by_1e_12_fails(self, monkeypatch):
        # the solver is exact, so a closed form 1e-12 off on one pair fails
        # by name: at seed 0 the first pair's 2.66... + 1e-12 rounds to
        # 1.00009e-12 above the exact optimum
        closed = quotient.quot_dist_closed
        calls = []

        def first_off(xbar, ybar):
            calls.append(None)
            return closed(xbar, ybar) + (1e-12 if len(calls) == 1 else 0.0)

        assert build_fixture("quotient-closed-form", 0).passed is True
        monkeypatch.setattr(quotient, "quot_dist_closed", first_off)
        result = build_fixture("quotient-closed-form", 0)
        # the analytic minimizer is measured against the same closed form
        assert result.details["failed_checks"] == ["max_solver_deviation <= 1e-12",
                                                   "max_minimizer_deviation <= 1e-12"]
        assert 1e-12 < result.details["max_solver_deviation"] < 1.001e-12


class TestEmbeddingIsometry:
    """The fixture's certificates measure the library's own maps."""

    @pytest.mark.parametrize("attr, check", [
        ("d_B_closed", "max_metric_deviation <= 1e-12"),
        ("kron_quot_closed", "max_quotient_deviation <= 1e-12"),
    ])
    def test_changed_closed_form_fails_by_name(self, monkeypatch, attr, check):
        form = getattr(quotient, attr)
        monkeypatch.setattr(quotient, attr, lambda p, q: form(p, q) * 1.5)
        result = build_fixture("kronecker-embedding-isometry", 0)
        assert result.details["failed_checks"] == [check]

    def test_c_act_without_its_pi_fails_the_intertwining(self, monkeypatch):
        act = stabmodel.c_act
        monkeypatch.setattr(stabmodel, "c_act",
                            lambda p, lam: act(p, complex(lam.real, lam.imag / math.pi)))
        result = build_fixture("kronecker-embedding-isometry", 0)
        assert result.details["failed_checks"] == ["max_intertwining_deviation <= 1e-12"]


class TestNanFails:
    """A NaN deep in a fixture's evidence fails the check it feeds."""

    def test_nan_solver_row(self, monkeypatch):
        solve = quotient.quot_dist_lp

        def nan_row(sigma, tau):
            out = solve(sigma, tau).copy()
            out[3] = math.nan
            return out

        monkeypatch.setattr(quotient, "quot_dist_lp", nan_row)
        result = build_fixture("quotient-closed-form")
        assert result.details["failed_checks"] == ["max_solver_deviation <= 1e-12"]

    def test_nan_grid_cell(self, monkeypatch):
        grid = dynamics.displacement_grid

        def nan_cell(fs, x, y):
            out = grid(fs, x, y)
            out[0, 0, 0] = math.nan
            return out

        monkeypatch.setattr(dynamics, "displacement_grid", nan_cell)
        result = build_fixture("translation-length-crosscheck")
        assert result.details["failed_checks"] == ["min_grid_margin >= 0"]

    def test_nan_translation_length(self, monkeypatch):
        length = dynamics.poincare_translation_length
        calls = []

        def nan_third(mat):
            calls.append(mat)
            return math.nan if len(calls) == 3 else length(mat)

        monkeypatch.setattr(dynamics, "poincare_translation_length", nan_third)
        result = build_fixture("translation-length-crosscheck")
        assert result.details["failed_checks"] == ["max_pair_deviation <= 1e-12"]

    def test_nan_isometry_sample(self, monkeypatch):
        monkeypatch.setattr(quotient, "isometry_samples",
                            lambda n, seed: np.array([[0.0, 0.0], [math.nan, 0.0], [0.0, 0.0]]))
        assert math.isnan(quotient.isometry_report(3).max_metric_deviation)

    def test_nan_in_the_last_row_block(self, monkeypatch):
        plane = metriclab.euclidean_plane()

        def pairwise(A, B):
            out = plane.pairwise(A, B)
            if len(A) == len(B):  # the last block of the scan's upper triangle
                out[0, 0] = math.nan
            return out

        monkeypatch.setattr(metriclab, "_BLOCK_CELLS", 64)
        space = replace(plane, pairwise=pairwise)
        assert math.isnan(metriclab.geodesic_deviation(space, 0j, 1 + 1j, resolution=64))
