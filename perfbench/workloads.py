"""Seeded operation lists for the three workloads.

Inputs are built from the workload seed with the standard library only;
the package receives nothing but these generated inputs.  Each op
carries the values its output is checked against, derived in closed
form here, never by the package under test.

An op is a dict:

    {"kind": "cli", "argv": [...], "check": {...}}
    {"kind": "call", "call": "<name>", "args": {...}, "check": {...}}

A workload is an endless sequence of rounds; a round is a fixed mix of
op classes in a seeded order.  The timed loop always finishes whole rounds, so every
run sees the same proportions whatever its seed.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("verify-suite", "certify-highres", "scalar-api")

# certify-highres: the fixed mix of one round, as (command, model, resolution).
# Every model and command runs at 512; the larger, O(n^2)-bound resolutions
# are spread over the models so each round stays a few seconds long.
CERTIFY_MIX = (
    *((cmd, model, 512)
      for cmd in ("cat0", "slim", "geodesic")
      for model in ("corbit", "r4", "quotient", "kronecker")),
    ("cat0", "corbit", 1024), ("cat0", "kronecker", 1024),
    ("slim", "r4", 1024), ("slim", "quotient", 1024),
    ("geodesic", "kronecker", 1024), ("geodesic", "r4", 1024),
    ("cat0", "corbit", 2048), ("slim", "quotient", 2048),
    ("geodesic", "kronecker", 2048),
)

# scalar-api: one round.  The weights put the median of a whole number of
# rounds (rank 7 of 13) on sup_displacement, between quotient-dist-r4 and
# upper_bound_dbar of nearly the same latency, not in a gap between op
# classes, where the median would jump as the machine's speed varies.
SCALAR_MIX = (
    "poincare", "poincare", "pa", "hn", "dist-kronecker", "quotient-dist-r4",
    "sup_displacement", "upper_bound_dbar", "embed-check",
    "quotient-dist-kronecker", "quotient-dist-kronecker", "mass-growth", "mass-growth",
)

KRONECKER_GAP = 0.5


def _embed(model: str, lam: tuple[float, float]) -> list[float]:
    """Isometric image of the c-orbit point a + b i in each model.

    The c-orbit metric is max{|da|, pi |db|}; every image below carries
    the same distance and maps straight lines to straight lines, so the
    c-orbit triangles keep their known margins in every model.
    """
    a, b = lam
    if model == "corbit":
        return [a, b]
    if model == "r4":
        return [a, math.pi * b, a, math.pi * b]
    if model == "kronecker":
        return [a, math.pi * b, a + KRONECKER_GAP, math.pi * b]
    if model == "quotient":
        return [0.0, 0.0, 2.0 * a, 2.0 * math.pi * b]
    raise ValueError(model)


def _scale(rng: random.Random) -> float:
    return math.exp(rng.uniform(math.log(0.25), math.log(4.0)))


def _certify_op(rng: random.Random, cmd: str, model: str, res: int) -> dict:
    s = _scale(rng)
    common = ["--model", model, "--resolution", str(res)]
    if cmd == "cat0":
        # degenerate comparison triangle beaten by s (corbit-cat0-violation, scaled)
        tri = [(0.0, 0.0), (2.0 * s, 0.0), (s, s / math.pi)]
        argv = ["cat0-check", *common, "--vertices",
                json.dumps([_embed(model, v) for v in tri])]
        return {"kind": "cli", "argv": argv,
                "check": {"type": "cat0", "model": model, "margin": s}}
    if cmd == "slim":
        # side midpoint at distance 2 delta from the other sides (corbit-slim-violation)
        tri = [(0.0, 0.0), (4.0 * s, 0.0), (0.0, 4.0 * s / math.pi)]
        argv = ["slim-check", *common, "--delta", repr(s), "--vertices",
                json.dumps([_embed(model, v) for v in tri])]
        return {"kind": "cli", "argv": argv,
                "check": {"type": "slim", "model": model, "delta": s}}
    p = (rng.uniform(-2.0, 2.0) * s, rng.uniform(-2.0, 2.0) * s)
    q = (rng.uniform(-2.0, 2.0) * s, rng.uniform(-2.0, 2.0) * s)
    argv = ["geodesic-check", *common,
            json.dumps(_embed(model, p)), json.dumps(_embed(model, q))]
    distance = max(abs(p[0] - q[0]), math.pi * abs(p[1] - q[1]))
    return {"kind": "cli", "argv": argv,
            "check": {"type": "geodesic", "distance": distance}}


def _strip_vector(rng: random.Random) -> list[float]:
    x1 = rng.uniform(-2.0, 2.0)
    return [x1, rng.uniform(-1.5, 1.5), x1 + rng.uniform(0.05, 0.95), rng.uniform(-1.5, 1.5)]


def _quotient_closed(x: list[float], y: list[float]) -> float:
    d = [b - a for a, b in zip(x, y)]
    return max(abs(d[0] - d[2]), abs(d[1] - d[3])) / 2.0


def _hyperbolic(rng: random.Random) -> tuple[int, int, int, int]:
    """Random word in the two elementary shears with |trace| > 2."""
    while True:
        m = (1, 0, 0, 1)
        used = set()
        for _ in range(rng.randint(2, 4)):
            pick = rng.randrange(2)
            used.add(pick)
            for _ in range(rng.randint(1, 2)):
                a, b, c, d = m
                m = (a + b, b, c + d, d) if pick == 0 else (a, a + b, c, c + d)
        if len(used) < 2:
            continue
        if rng.random() < 0.5:
            m = tuple(-v for v in m)
        if abs(m[0] + m[3]) > 2:
            return m


def _axis_apex(m: tuple[int, int, int, int]) -> tuple[float, float]:
    a, b, c, d = m
    s = math.sqrt((a + d) ** 2 - 4.0)
    p1 = ((a - d) - s) / (2.0 * c)
    p2 = ((a - d) + s) / (2.0 * c)
    return (0.5 * (p1 + p2), 0.5 * abs(p1 - p2))


def _lam(rng: random.Random) -> list[float]:
    return [rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3)]


def _scalar_op(rng: random.Random, name: str) -> dict:
    if name == "dist-kronecker":
        x, y = _strip_vector(rng), _strip_vector(rng)
        return {"kind": "cli",
                "argv": ["dist", "--model", "kronecker", json.dumps(x), json.dumps(y)],
                "check": {"type": "dist-kronecker",
                          "distance": max(abs(a - b) for a, b in zip(x, y))}}
    if name.startswith("quotient-dist-"):
        model = name.rsplit("-", 1)[1]
        if model == "r4":
            x = [rng.uniform(-3.0, 3.0) for _ in range(4)]
            y = [rng.uniform(-3.0, 3.0) for _ in range(4)]
        else:
            x, y = _strip_vector(rng), _strip_vector(rng)
        return {"kind": "cli",
                "argv": ["quotient-dist", "--model", model, json.dumps(x), json.dumps(y)],
                "check": {"type": "quotient-dist", "closed": _quotient_closed(x, y)}}
    if name == "hn":
        x = _strip_vector(rng)
        k1, k2 = rng.randint(0, 5), rng.randint(1, 5)
        shift = rng.randint(-3, 3)
        return {"kind": "cli",
                "argv": ["hn", "--point", json.dumps(x), "--object-class",
                         json.dumps({"k": [k1, k2], "shift": shift})],
                "check": {"type": "hn", "mass": k1 * math.exp(x[1]) + k2 * math.exp(x[3]),
                          "phi_plus": x[2] + shift,
                          "phi_minus": (x[0] if k1 else x[2]) + shift}}
    if name == "pa":
        a, b, c, d = _hyperbolic(rng)
        tr = abs(a + d)
        return {"kind": "cli",
                "argv": ["pa", "--matrix", json.dumps([[a, b], [c, d]])],
                "check": {"type": "pa", "stretch": 0.5 * (tr + math.sqrt(tr * tr - 4.0)),
                          "translation": math.acosh(0.5 * tr)}}
    if name == "mass-growth":
        vectors = [[rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)] for _ in range(rng.randint(1, 3))]
        return {"kind": "cli",
                "argv": ["mass-growth", "-n", "2000", "--seed-vectors", json.dumps(vectors)],
                "check": {"type": "mass-growth", "n": 2000,
                          "limit": math.log(0.5 * (3.0 + math.sqrt(5.0)))}}
    if name == "embed-check":
        return {"kind": "cli",
                "argv": ["embed-check", "--seed", str(rng.randrange(10 ** 6))],
                "check": {"type": "embed-check", "n": 100}}
    if name in ("sup_displacement", "upper_bound_dbar"):
        l1, l2 = _lam(rng), _lam(rng)
        re, im = l1[0] + l2[0], l1[1] + l2[1]
        # a composition of translations is a rotation-dilation: f(phi) = phi - Re
        if name == "sup_displacement":
            expected, tol = abs(re), 1e-9
        else:
            # log ||M|| = -pi Im; operator_norm takes sqrt(t^2 - 4 det^2), which
            # cancels for conformal M, so its log is only good to ~sqrt(eps)
            expected, tol = max(abs(re), math.pi * abs(im)), 1e-7
        return {"kind": "call", "call": name, "args": {"lams": [l1, l2]},
                "check": {"type": "value", "value": expected, "tol": tol}}
    if name == "poincare":
        m = _hyperbolic(rng)
        return {"kind": "call", "call": "poincare",
                "args": {"matrix": list(m), "z": list(_axis_apex(m))},
                "check": {"type": "value", "value": math.acosh(0.5 * abs(m[0] + m[3])),
                          "tol": 1e-9}}
    raise ValueError(name)


def rounds(workload: str, seed: int):
    """Endless seeded rounds of a workload; the same seed gives the same ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "verify-suite":
            fixture_seed = rng.randrange(10 ** 6)
            yield [{"kind": "cli", "argv": ["fixtures", "--seed", str(fixture_seed)],
                    "check": {"type": "fixtures", "count": 12}}]
            continue
        if workload == "certify-highres":
            ops = [_certify_op(rng, *spec) for spec in CERTIFY_MIX]
        else:
            ops = [_scalar_op(rng, name) for name in SCALAR_MIX]
        rng.shuffle(ops)
        yield ops


def warmup(workload: str) -> list[dict]:
    """Small ops, one per command the workload runs, to finish lazy set-up
    before timing; fixed, so they never depend on the seed."""
    rng = random.Random(f"{workload}:warmup")
    if workload == "verify-suite":
        return [{"kind": "cli", "argv": ["fixtures", "--seed", "0"],
                 "check": {"type": "fixtures", "count": 12}}]
    if workload == "certify-highres":
        return [_certify_op(rng, cmd, model, 64)
                for cmd in ("cat0", "slim", "geodesic")
                for model in ("corbit", "r4", "quotient", "kronecker")]
    return [_scalar_op(rng, name) for name in SCALAR_MIX]
