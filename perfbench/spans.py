"""Spans and counters recorded from outside the package, and the
per-layer metrics derived from them.

``Recorder.install`` replaces module attributes of the package with
wrappers.  A name bound by ``from ... import`` is a separate binding,
so each binding that the measured calls go through is wrapped on its
own (see BINDINGS).  Wrappers do nothing while the recorder is
inactive, which keeps the output checks out of the trace.

Two kinds of wrapper exist.  A span wrapper records
``[name, start_ns, end_ns, parent_index, op_id]`` and a call count; it
is used where a layer spends measurable time per call.  A count wrapper
only counts: it sits on scalar kernels called up to ~10^5 times per op,
where a span per call would cost more than the call.  Time spent in a
counted kernel is part of its caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import tracemalloc
from collections import Counter
from time import perf_counter_ns

from stabmetric import dynamics, fixtures, lin2, metriclab, quotient, stabmodel

LAYERS = ("cli", "fixtures", "quotient", "stabmodel", "metriclab", "dynamics", "lin2")
CHECKERS = ("cat0_check", "slim_check", "geodesic_deviation", "nonunique_geodesic_check")
PEAK_RESOLUTIONS = (512, 1024, 2048)
FIXTURE_IDS = tuple(fixtures.FIXTURES)

# (module, attribute, metric name, kind).  Handles from the metriclab
# factories capture metriclab's own d_B_closed binding when they are
# built, so handles built after install() are covered; so is the
# d_B_closed that quotient.kron_quot_closed calls.  dprime,
# quot_dist_closed, kron_quot_closed and the handle factories themselves
# carry no metric and are left unwrapped.
BINDINGS = (
    (quotient, "quot_dist_inf", "quotient.quot_dist_inf", "span"),
    *((metriclab, name, f"metriclab.{name}", "span") for name in CHECKERS),
    (stabmodel, "d_B_sampled", "stabmodel.d_B_sampled", "span"),
    (stabmodel, "d_B_closed", "stabmodel.d_B_closed", "span"),
    (quotient, "d_B_closed", "stabmodel.d_B_closed", "span"),
    (metriclab, "d_B_closed", "stabmodel.d_B_closed", "span"),
    (stabmodel, "hn_profile", "stabmodel.hn_profile", "count"),
    (quotient, "isometry_report", "quotient.isometry_report", "span"),
    (dynamics, "curve_pa_summary", "dynamics.curve_pa_summary", "span"),
    (dynamics, "mass_growth_estimate", "dynamics.mass_growth_estimate", "span"),
    (dynamics, "upper_bound_dbar", "dynamics.upper_bound_dbar", "span"),
    (dynamics, "poincare_distance", "dynamics.poincare_distance", "count"),
    (lin2, "sup_displacement", "lin2.sup_displacement", "span"),
    (dynamics, "sup_displacement", "lin2.sup_displacement", "span"),
    (lin2, "lift_eval", "lin2.lift_eval", "count"),
    (lin2, "compose", "lin2.compose", "count"),
    (fixtures, "compose", "lin2.compose", "count"),
    (fixtures, "build_fixture", "fixtures", "span"),
)


def pairwise_cells(checker: str, resolution: int) -> int:
    """Distance-matrix cells a checker evaluates, computed from its
    resolution (not counted from array sizes).  Sides are sampled at
    resolution + 1 points; refinement passes sample 201 points."""
    n = resolution + 1
    if checker == "cat0_check":
        return (3 * n) ** 2
    if checker == "slim_check":
        return 3 * n * 2 * n + 2 * (n + 201)
    if checker == "geodesic_deviation":
        return n * n
    if checker == "nonunique_geodesic_check":
        return n + 2 * 201
    raise ValueError(checker)


class Recorder:
    """In-memory spans and counters for one child process."""

    def __init__(self, track_memory: bool = False):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.op = -1
        self.active = False
        self.track_memory = track_memory

    # -- recording -------------------------------------------------------
    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named ``name``."""
        self.counts[f"{name}.calls"] += 1
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        self.spans[idx][1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = perf_counter_ns()
            self.stack.pop()

    def _span(self, name: str, fn):
        rec = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            if hook is not None:
                return hook(rec, name, fn, args, kwargs)
            return rec.call(name, fn, *args, **kwargs)

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        rec = self
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module, attr, name, kind in BINDINGS:
            fn = getattr(module, attr)
            wrap = self._span if kind == "span" else self._count
            setattr(module, attr, wrap(name, fn))

    def snapshot(self) -> tuple[dict, dict]:
        """Counters and peaks so far, then reset them for the next pass."""
        counts, peaks = dict(self.counts), dict(self.peaks)
        self.counts.clear()
        self.peaks.clear()
        return counts, peaks

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _quot_dist_inf(rec, name, fn, args, kwargs):
    dist = args[0]
    counts = rec.counts

    def counted(*a):
        counts[f"{name}.evals"] += 1
        return dist(*a)

    return rec.call(name, fn, counted, *args[1:], **kwargs)


def _checker(rec, name, fn, args, kwargs):
    checker = name.split(".", 1)[1]
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    resolution = bound.arguments["resolution"]
    rec.counts["metriclab.pairwise_cells"] += pairwise_cells(checker, resolution)
    if not (rec.track_memory and checker in ("cat0_check", "slim_check")):
        return rec.call(name, fn, *args, **kwargs)
    tracemalloc.start()
    try:
        return rec.call(name, fn, *args, **kwargs)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        key = f"{name}.peak_mib.r{resolution}"
        rec.peaks[key] = max(rec.peaks.get(key, 0.0), peak / 2 ** 20)


def _sup_displacement(rec, name, fn, args, kwargs):
    before = rec.counts["lin2.lift_eval.calls"]
    try:
        return rec.call(name, fn, *args, **kwargs)
    finally:
        rec.counts[f"{name}.lift_evals"] += rec.counts["lin2.lift_eval.calls"] - before


def _build_fixture(rec, name, fn, args, kwargs):
    result = rec.call(f"fixtures.{args[0]}", fn, *args, **kwargs)
    if not result.passed:
        rec.counts["fixtures.failed"] += 1
    return result


_HOOKS = {
    "quotient.quot_dist_inf": _quot_dist_inf,
    **{f"metriclab.{name}": _checker for name in CHECKERS},
    "lin2.sup_displacement": _sup_displacement,
    "fixtures": _build_fixture,
}


# -- derivation ---------------------------------------------------------

def span_times(spans: list[list], start: int) -> dict[str, float]:
    """Busy and self seconds per span name and per layer over spans[start:],
    the spans of one pass.  Self time is a span's duration minus the part
    its child spans cover; spans nest, so that is the sum of the direct
    children's durations."""
    covered = Counter()
    for name, t0, t1, parent, op in spans[start:]:
        if parent >= 0:
            covered[parent] += t1 - t0
    out: Counter = Counter()
    for idx in range(start, len(spans)):
        name, t0, t1, parent, op = spans[idx]
        own = t1 - t0 - covered[idx]
        out[f"{name}.busy_s"] += (t1 - t0) / 1e9
        out[f"{name}.self_s"] += own / 1e9
        out[f"{name.split('.', 1)[0]}.layer_self_s"] += own / 1e9
    return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(counts: dict, peaks: dict, times: dict) -> dict[str, float]:
    """Per-layer metrics of one pass over the workload's trace round."""
    c = Counter(counts)
    t = Counter(times)
    m = {
        "quotient.quot_dist_inf.calls": c["quotient.quot_dist_inf.calls"],
        "quotient.quot_dist_inf.busy_s": t["quotient.quot_dist_inf.busy_s"],
        "quotient.quot_dist_inf.evals_per_call": _ratio(c["quotient.quot_dist_inf.evals"],
                                                        c["quotient.quot_dist_inf.calls"]),
        "metriclab.pairwise_cells": c["metriclab.pairwise_cells"],
    }
    for name in CHECKERS:
        m[f"metriclab.{name}.busy_s"] = t[f"metriclab.{name}.busy_s"]
    for name in ("cat0_check", "slim_check"):
        for res in PEAK_RESOLUTIONS:
            key = f"metriclab.{name}.peak_mib.r{res}"
            m[key] = peaks.get(key, 0.0)
    for name in ("d_B_sampled", "d_B_closed"):
        m[f"stabmodel.{name}.calls"] = c[f"stabmodel.{name}.calls"]
        m[f"stabmodel.{name}.busy_s"] = t[f"stabmodel.{name}.busy_s"]
    m["stabmodel.hn_profile.calls"] = c["stabmodel.hn_profile.calls"]
    m["dynamics.poincare_distance.calls"] = c["dynamics.poincare_distance.calls"]
    for name in ("mass_growth_estimate", "upper_bound_dbar"):
        m[f"dynamics.{name}.busy_s"] = t[f"dynamics.{name}.busy_s"]
    for name in ("sup_displacement", "lift_eval", "compose"):
        m[f"lin2.{name}.calls"] = c[f"lin2.{name}.calls"]
    m["lin2.sup_displacement.busy_s"] = t["lin2.sup_displacement.busy_s"]
    m["lin2.sup_displacement.lift_evals_per_call"] = _ratio(
        c["lin2.sup_displacement.lift_evals"], c["lin2.sup_displacement.calls"])
    for fid in FIXTURE_IDS:
        m[f"fixtures.{fid}.ms"] = 1000.0 * _ratio(t[f"fixtures.{fid}.busy_s"],
                                                  c[f"fixtures.{fid}.calls"])
    m["fixtures.failed"] = c["fixtures.failed"]
    m["cli.main.calls"] = c["cli.main.calls"]
    m["cli.main.self_ms_per_call"] = 1000.0 * _ratio(t["cli.main.self_s"], c["cli.main.calls"])
    m["cli.report_bytes"] = c["cli.report_bytes"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = t[f"{layer}.layer_self_s"]
    return m
