"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line; tolerances are
pinned here and nowhere else.  Everything is deterministic and runs in
well under a minute.
"""

import math

import numpy as np

from stabmetric import dynamics, metriclab, quotient, stabmodel
from stabmetric.dynamics import PA_TABLE, Autoeq, MassSeed
from stabmetric.quotient import QuotPoint

LOG_GOLD = math.log((3.0 + math.sqrt(5.0)) / 2.0)


def _report(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok


def test_c1_orbit_distance_closed_form():
    """Orbit distance from the base point is max{|Re|, pi |Im|}, 1e-12."""
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(1000):
        lam = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        expected = max(abs(lam.real), math.pi * abs(lam.imag))
        ok = ok and abs(stabmodel.c_orbit_distance(0.0, lam) - expected) <= 1e-12
    _report("criterion 1: orbit distance closed form (1000 samples, 1e-12)", ok)


def test_c2_nonunique_geodesics():
    """Detour certificates on the orbit and on the quotient, r = 0.2."""
    r = 0.2
    bound = r / (4.0 * math.pi) - 1e-9
    corbit = metriclab.c_orbit_space()
    z = 0.5 * r * complex(1.0, 1.0 / (2.0 * math.pi))
    cert_orbit = metriclab.nonunique_geodesic_check(corbit, 0j, z, complex(r, 0.0))
    qspace = metriclab.quotient_r4_space()
    p1 = QuotPoint.from_vector((r, 0.0, 2 * r, 0.0))
    p2 = QuotPoint.from_vector((r, 0.0, 3 * r, r / 2))
    p3 = QuotPoint.from_vector((r, 0.0, 4 * r, 0.0))
    cert_quot = metriclab.nonunique_geodesic_check(qspace, p1, p2, p3)
    ok = (
        cert_orbit.witness["additivity_residual"] <= 1e-12
        and cert_quot.witness["additivity_residual"] <= 1e-12
        and cert_orbit.margin >= bound
        and cert_quot.margin >= bound
    )
    _report("criterion 2: non-unique geodesic certificates (residual 1e-12, "
            "margin >= r/(4 pi) - 1e-9)", ok)


def test_c3_slim_violations():
    """Fat triangles with margin exactly delta for delta in {1, 2, 4, 8}."""
    space = metriclab.c_orbit_space()
    ok = True
    for delta in (1.0, 2.0, 4.0, 8.0):
        cert = metriclab.slim_check(
            space, 0j, complex(4 * delta, 0.0), complex(0.0, 4 * delta / math.pi), delta
        )
        expected_witness = complex(2 * delta, 2 * delta / math.pi)
        ok = ok and cert is not None
        ok = ok and abs(cert.margin - delta) <= 1e-9
        ok = ok and abs(cert.witness["point"] - expected_witness) <= 1e-9
    _report("criterion 3: slimness violations at every delta (margin delta +- 1e-9)", ok)


def test_c4_quotient_infimum():
    """The exact LP infimum matches the closed form; minimizer attains it."""
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(100):
        x = tuple(rng.uniform(-3.0, 3.0, 4))
        y = tuple(rng.uniform(-3.0, 3.0, 4))
        closed = quotient.quot_dist_closed(QuotPoint.from_vector(x), QuotPoint.from_vector(y))
        numeric = quotient.quot_dist_lp([x], [y])[0]
        attained = quotient.dprime(quotient.r4_act(x, quotient.quot_minimizer(x, y)), y)
        ok = ok and abs(numeric - closed) <= 1e-12
        ok = ok and abs(attained - closed) <= 1e-12
    _report("criterion 4: quotient infimum (exact LP 1e-12, analytic minimizer 1e-12)", ok)


def test_c5_isometric_embedding():
    """Embedding preserves both metrics; class supremum is exact."""
    report = quotient.isometry_report(200, seed=105)
    rng = np.random.default_rng(105)
    sampled_ok = True
    for _ in range(200):
        p = stabmodel.random_region_point(rng)
        q = stabmodel.random_region_point(rng)
        closed = stabmodel.d_B_closed(p, q)
        for cap in (1, 5, 10):
            sampled_ok = sampled_ok and stabmodel.d_B_sampled(p, q, cap) == closed
    ok = (
        report.max_metric_deviation <= 1e-12
        and report.max_quotient_deviation <= 1e-12
        and sampled_ok
    )
    _report("criterion 5: isometric embedding (1e-12) and exact class supremum "
            "for K in {1, 5, 10}", ok)


def test_c6_trace_classification():
    """Trace test on the 20-entry table; other genera report nonexistence."""
    ok = len(PA_TABLE) == 20
    kinds = {k for _, k in PA_TABLE}
    ok = ok and kinds == {"hyperbolic", "parabolic", "elliptic"}
    for mat, expected in PA_TABLE:
        cls = dynamics.pa_classify(mat)
        ok = ok and cls.pseudo_anosov == (expected == "hyperbolic")
        ok = ok and cls.trace == mat.trace
    for genus in (0, 2, 3, 11):
        ok = ok and not dynamics.curve_pa_summary(genus).pseudo_anosov_exists
    _report("criterion 6: trace classification on 20 matrices and genus rule", ok)


def test_c7_translation_length():
    """log((3+sqrt 5)/2) anchor; equality with arccosh(|tr|/2); axis point."""
    fib = Autoeq(2, 1, 1, 1)
    ok = abs(dynamics.translation_length(fib) - LOG_GOLD) <= 1e-12
    ok = ok and abs(dynamics.translation_length(fib) - 0.9624237) <= 5e-8
    rng = np.random.default_rng(107)
    grid = [complex(x, y) for x in np.linspace(-3.0, 3.0, 21)
            for y in np.geomspace(0.05, 20.0, 21)]
    for _ in range(100):
        mat = dynamics.random_unimodular_hyperbolic(rng)
        length = dynamics.translation_length(mat)
        ok = ok and abs(length - dynamics.poincare_translation_length(mat)) <= 1e-12
        grid_min = min(dynamics.poincare_distance(zz, dynamics.mobius_apply(mat, zz))
                       for zz in grid)
        ok = ok and grid_min >= length - 1e-3
        apex = dynamics.axis_point(mat)
        ok = ok and abs(
            dynamics.poincare_distance(apex, dynamics.mobius_apply(mat, apex)) - length
        ) <= 1e-9
    _report("criterion 7: translation length equals log stretch factor "
            "(1e-12) and is attained on the axis (1e-9)", ok)


def test_c8_mass_growth():
    """a_200 within 0.02 of log rho; error shrinks from n = 50 to n = 200."""
    mat = Autoeq(2, 1, 1, 1)
    ok = True
    for seed in (MassSeed.of((1.0, 0.0)), MassSeed.of((0.3, 0.7), (-1.0, 2.0))):
        values = dynamics.mass_growth_estimate(mat, seed, 200)
        err50 = abs(values[49] - LOG_GOLD)
        err200 = abs(values[199] - LOG_GOLD)
        ok = ok and err200 <= 0.02 and err200 < err50
    _report("criterion 8: mass growth converges (a_200 within 0.02, error decreasing)", ok)


def test_c9_entropy_chain():
    """Entropy equals translation length for pseudo-Anosov entries and
    dominates it on the whole table."""
    ok = True
    for mat, expected in PA_TABLE:
        entropy = dynamics.entropy_value(mat)
        ok = ok and entropy >= dynamics.poincare_translation_length(mat) - 1e-12
        if expected == "hyperbolic":
            ok = ok and abs(entropy - dynamics.translation_length(mat)) <= 1e-12
    _report("criterion 9: entropy equals translation length on pseudo-Anosov "
            "entries and dominates it on the table", ok)


def test_c10_metric_axioms():
    """Symmetry, triangle inequality, identity of indiscernibles, 1e-12."""
    rng = np.random.default_rng(110)

    def axioms(dist, sample, n=1000):
        for _ in range(n):
            a, b, c = sample(), sample(), sample()
            if abs(dist(a, b) - dist(b, a)) > 1e-12:
                return False
            if dist(a, c) > dist(a, b) + dist(b, c) + 1e-12:
                return False
            if dist(a, a) > 1e-12:
                return False
            if a != b and dist(a, b) <= 0.0:
                return False
        return True

    def rnd_complex():
        return complex(rng.uniform(-5, 5), rng.uniform(-5, 5))

    def rnd_vec4():
        return tuple(rng.uniform(-3.0, 3.0, 4))

    def rnd_quot():
        return QuotPoint.from_vector(rnd_vec4())

    def rnd_kron():
        return stabmodel.random_region_point(rng)

    def rnd_upper():
        return complex(rng.uniform(-3, 3), rng.uniform(0.05, 5.0))

    def rnd_near_upper():  # within 1e-12..1e-3 of 0.5 + 2i, where acosh(1 + tiny) cancels
        offset = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return 0.5 + 2j + 10.0 ** rng.uniform(-12, -3) * offset

    ok = axioms(stabmodel.c_orbit_distance, rnd_complex)
    ok = ok and axioms(quotient.dprime, rnd_vec4)
    ok = ok and axioms(quotient.quot_dist_closed, rnd_quot)
    ok = ok and axioms(stabmodel.d_B_closed, rnd_kron)
    ok = ok and axioms(quotient.kron_quot_closed, rnd_kron)
    ok = ok and axioms(dynamics.poincare_distance, rnd_upper)
    ok = ok and axioms(dynamics.poincare_distance, rnd_near_upper)
    _report("criterion 10: metric axioms for every distance (1000 triples each, 1e-12)", ok)
