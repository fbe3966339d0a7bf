"""Benchmark of the stabmetric package: three workloads, end-to-end
metrics from an untraced run and per-layer metrics from a traced one.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run measures set-up in fresh interpreters, then drives the package
in one single-threaded child process (closed loop, one client).  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it print every metric by
name with its unit, and the run manifest.  Metric names and units come
from BENCHMARK.json; perfbench/README.md maps each metric to its layer
and workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Reserved for claims: a change that claims a gain must also show it on
# this seed, which no tuning of the benchmark used.
HELD_OUT_SEED = 7919
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170
OUT_DIR = ".perfbench"

SETUP_PROBE = (
    "import time, stabmetric.cli as c; c.build_parser(); "
    "import sys, stabmetric; sys.stdout.write(repr(time.perf_counter()) + ' ' + stabmetric.__file__)"
)


class BenchError(RuntimeError):
    pass


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _check_package_path(root: str, path: str) -> None:
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(path).startswith(src + os.sep):
        raise BenchError(f"stabmetric was imported from {path}, not from {src}")


def measure_setup(root: str, env: dict) -> list[float]:
    """Seconds from spawning a fresh interpreter to stabmetric.cli imported
    and build_parser() returned.  One unmeasured start first writes the
    bytecode cache, which users do not pay on every run."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        stamp, path = proc.stdout.split(" ", 1)
        _check_package_path(root, path)
        if i:
            samples.append(float(stamp) - start)
    return samples


def run_child(root: str, env: dict, job: dict) -> dict:
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py")], cwd=root, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child timed out: {job}")
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    _check_package_path(root, result["package"])
    return result


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    return ordered[max(math.ceil(q * len(ordered) / 100.0), 1) - 1]


def tail(ordered: list[float]) -> float:
    """The highest of TAIL_PERCENTILES that leaves at least ten samples
    beyond it.  A fixed ladder keeps the percentile the same across runs
    whose sample counts differ a little."""
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        if n - math.ceil(q * n / 100.0) >= 10:
            return q
    return 100.0


def _git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(root: str, env: dict, workload: str, seed: int, seconds: float):
    setup = measure_setup(root, env)
    res = run_child(root, env, {"workload": workload, "seed": seed, "seconds": seconds,
                                "mode": "timed"})
    lat = sorted(res["latencies_s"])
    n, failed = len(lat), len(res["failures"])
    q = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": n / res["window_s"],
        "op_p50_ms": 1000.0 * percentile(lat, 50.0),
        "op_tail_ms": 1000.0 * percentile(lat, q),
        "peak_rss_mib": res["maxrss_kib"] / 1024.0,
        "ok_frac": (n - failed) / n,
    }
    manifest = {
        "samples": n, "tail_percentile": q, "fail_frac": failed / n,
        "window_s": res["window_s"], "setup_samples_s": setup,
        "python": res["python"], "numpy": res["numpy"],
    }
    return metrics, n, res["failures"], manifest


def is_exact(name: str) -> bool:
    """Counts that must repeat exactly between passes and processes."""
    return not (name.startswith("bench.") or name.endswith(("_s", ".ms", "_ms_per_call"))
                or ".peak_mib." in name)


def per_layer(root: str, env: dict, workload: str, seed: int, seconds: float):
    """Untraced passes, then two traced processes over the same first round:
    A for times, B also for tracemalloc peaks.  Counts of every pass in A
    and B must agree exactly."""
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    setup = measure_setup(root, env)
    base = {"workload": workload, "seed": seed}
    plain = run_child(root, env, {**base, "mode": "plain", "seconds": seconds / 3})
    traced = []
    for tag, memory in (("a", False), ("b", True)):
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}-{tag}.jsonl")
        traced.append(run_child(root, env, {**base, "mode": "traced", "memory": memory,
                                            "seconds": seconds / 3,
                                            "spans_path": spans_path}))
    a, b = traced
    passes_a = [p["metrics"] for p in a["passes"]]
    passes_b = [p["metrics"] for p in b["passes"]]
    reference = {k: v for k, v in passes_a[0].items() if is_exact(k)}
    mismatches = sorted({k for p in passes_a + passes_b for k in reference if p[k] != reference[k]})
    metrics = {k: reference[k] if is_exact(k) else
               statistics.median(p[k] for p in (passes_b if ".peak_mib." in k else passes_a))
               for k in passes_a[0]}
    untraced = len(plain["latencies_s"]) / plain["window_s"]
    traced_rate = len(a["latencies_s"]) / a["window_s"]
    metrics["bench.untraced_ops_per_s"] = untraced
    metrics["bench.traced_ops_per_s"] = traced_rate
    metrics["bench.trace_slowdown"] = untraced / traced_rate
    children = (plain, a, b)
    attempted = sum(len(c["latencies_s"]) for c in children)
    failures = [f for c in children for f in c["failures"]]
    manifest = {
        "untraced_ops": len(plain["latencies_s"]),
        "traced_passes": {"a": len(a["passes"]), "b": len(b["passes"])},
        "ops_per_pass": a["passes"][0]["ops"],
        "counts_repeat_exactly": not mismatches, "count_mismatches": mismatches,
        "setup_s": statistics.median(setup), "setup_samples_s": setup,
        "python": a["python"], "numpy": a["numpy"],
    }
    return metrics, attempted, failures, manifest


def run_workload(root: str, env: dict, spec: dict, workload: str, args):
    measure, wanted = (per_layer, spec["per_layer"]) if args.trace else (end_to_end,
                                                                         spec["end_to_end"])
    metrics, attempted, failures, manifest = measure(root, env, workload, args.seed,
                                                     args.seconds)
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise BenchError(f"metrics {sorted(set(names) ^ set(metrics))} are missing or not "
                         "declared in BENCHMARK.json")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    manifest.update({
        "workload": workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "git_commit": _git_commit(root),
    })
    return out, attempted, failures, manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        env = _child_env(root)
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: run_workload(root, env, spec, name, args) for name in names}
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    metrics = {}
    for name, (out, n, failures, manifest) in results.items():
        for metric, entry in out.items():
            print(f"{name:16s} {metric:45s} {entry['value']:>14.6g} {entry['unit']}")
        for failure in failures[:20]:
            print(f"{name:16s} FAILED {json.dumps(failure)}")
        print(f"{name:16s} manifest {json.dumps(manifest, sort_keys=True)}")
        attempted += n
        failed += len(failures)
        if len(results) == 1:
            metrics = out
        else:
            metrics.update({f"{name}.{k}": v for k, v in out.items()})
    correct = failed == 0 and all(r[3].get("counts_repeat_exactly", True)
                                  for r in results.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
