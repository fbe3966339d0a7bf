"""One workload run inside a single-threaded child process.

Reads a job from stdin, runs the seeded ops of the workload in-process
(commands through ``stabmetric.cli.main``, library calls directly) as a
closed loop with one client, checks every output, and prints one JSON
result line.  Usage (run.py does this):

    echo '{"workload": ..., "seed": ..., "seconds": ..., "mode": ...}' \\
        | PYTHONPATH=src python3 perfbench/child.py

Modes: ``timed`` loops over the workload's rounds; ``plain`` and
``traced`` loop over its first round only, so that traced and untraced
passes run the same ops.  ``traced`` installs the span recorder and
derives per-layer metrics for every pass.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import resource
import sys
import time

import numpy
import stabmetric
from stabmetric import cli, dynamics, lin2

import checks
import spans
import workloads


def _run_op(op: dict, rec) -> dict:
    """Run one op; ``rec`` is the active recorder, or None when untraced."""
    if op["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = (cli.main(op["argv"]) if rec is None
                      else rec.call("cli.main", cli.main, op["argv"]))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rc = exc.code
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    args = op["args"]
    if op["call"] in ("sup_displacement", "upper_bound_dbar"):
        l1, l2 = (complex(*lam) for lam in args["lams"])
        g = lin2.compose(dynamics.c_element(l1), dynamics.c_element(l2))
        if op["call"] == "sup_displacement":
            return {"value": lin2.sup_displacement(g)}
        return {"value": dynamics.upper_bound_dbar(g)}
    if op["call"] == "poincare":
        f = dynamics.Autoeq(*args["matrix"])
        z = complex(*args["z"])
        return {"value": dynamics.poincare_distance(z, dynamics.mobius_apply(f, z))}
    raise ValueError(op["call"])


def main() -> int:
    job = json.loads(sys.stdin.read())
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(stabmetric.__file__).startswith(src + os.sep):
        raise SystemExit(f"stabmetric imported from {stabmetric.__file__}, not from {src}")
    mode = job["mode"]
    rec = None
    if mode == "traced":
        rec = spans.Recorder(track_memory=job["memory"])
        rec.install()

    for op in workloads.warmup(job["workload"]):
        _run_op(op, None)

    if mode == "timed":
        source = workloads.rounds(job["workload"], job["seed"])
    else:
        first = next(workloads.rounds(job["workload"], job["seed"]))
        source = itertools.repeat(first)

    latencies: list[float] = []
    failures: list[dict] = []
    passes: list[dict] = []
    window = 0.0
    op_id = 0
    for ops in source:
        first_span = len(rec.spans) if rec is not None else 0
        round_start = time.perf_counter()
        checking = 0.0
        for op in ops:
            if rec is not None:
                rec.op = op_id
                rec.active = True
            t0 = time.perf_counter()
            try:
                outcome = _run_op(op, rec)
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                outcome = {"error": f"{type(exc).__name__}: {exc}"}
            t1 = time.perf_counter()
            if rec is not None:
                rec.active = False
                rec.counts["cli.report_bytes"] += len(outcome.get("stdout", "").encode())
            latencies.append(t1 - t0)
            reason = checks.check(op, outcome)
            if reason is not None:
                failures.append({"op": op_id, "argv": op.get("argv", op.get("call")),
                                 "reason": reason})
            checking += time.perf_counter() - t1
            op_id += 1
        elapsed = time.perf_counter() - round_start - checking
        window += elapsed
        if rec is not None:
            counts, peaks = rec.snapshot()
            times = spans.span_times(rec.spans, first_span)
            passes.append({"metrics": spans.pass_metrics(counts, peaks, times),
                           "elapsed_s": elapsed, "ops": len(ops)})
        # a timed run fills its window; passes stop before overrunning their budget
        if window >= job["seconds"] or (mode != "timed" and window + elapsed > job["seconds"]):
            break

    if rec is not None:
        rec.write_spans(job["spans_path"])
    print(json.dumps({
        "latencies_s": latencies,
        "window_s": window,
        "failures": failures,
        "passes": passes,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "package": stabmetric.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
