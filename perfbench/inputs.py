"""Seeded input generation for every workload.

The benchmark's seed argument is the only source of randomness: each
function here is a pure function of it, and the program under test
only ever receives what these functions produce (request documents,
simulation cells, sweep-store rows).  :func:`canonical_bytes` gives the
byte form the tests compare, and the run writes the same inputs beside
its results.

Mixes are *stratified*: the share of each experiment, key or fault
rate in a step is fixed (largest-remainder rounding of its weight) and
only the order is drawn from the seed (figures_cold fixes the order
too and draws only the fault identities).  Two seeds then differ in
which key comes when and in every fault identity, but not in how much
of each kind of work a run contains, which keeps seed-to-seed spread
down to what the program itself does.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np

#: Circuit-figure experiments both service workloads request.
EXPERIMENTS = ("fig04", "fig07b", "fig11a", "fig11", "fig13")
#: Request share of each experiment in figures_cold.  With
#: fault identities fig04 and fig11a cost ~0.1 s and fig07b, fig11 and
#: fig13 0.4-2 s on the reference machine.  Keeping the heavy three at a
#: twentieth of the requests, and fig04 well ahead of fig11a, puts both
#: latency percentiles inside one cost cluster rather than on the edge
#: between two, where a 10 s run can read them steadily.
EXPERIMENT_MIX = {"fig04": 0.65, "fig11a": 0.30, "fig07b": 0.02, "fig11": 0.02, "fig13": 0.01}
SOLVER = "factor-cache"
#: Every request carries this deadline: a request not answered within
#: it counts as failed.
DEADLINE_S = 20.0

#: Open-loop rate ladders.  ``reference`` is where the latency metrics
#: are taken; ``probes`` are tried in ascending order after it and the
#: highest rate meeting ``limit_ms`` at p90 is the sustained rate.
#: ``reference_share`` is the part of ``--seconds`` the reference step
#: gets; the probes share the rest.  The reference machine's speed
#: wanders by about a quarter from minute to minute, so a rung either
#: sits well under the slowest capacity seen (hot ~350, cold ~15 req/s)
#: or well over the fastest (hot ~500, cold ~21 req/s); a rung near
#: capacity would hold in some runs and not others.
SERVICE_STEPS = {
    "figures_hot": {
        "reference": 100.0,
        "probes": (200.0, 600.0),
        "limit_ms": 100.0,
        "reference_share": 0.45,
    },
    "figures_cold": {
        "reference": 8.0,
        "probes": (10.0, 40.0),
        "limit_ms": 300.0,
        "reference_share": 0.7,
    },
}
HOT_SEEDS_PER_EXPERIMENT = 2
HOT_ZIPF_ALPHA = 1.0
COLD_FAULT_RATES = (1e-3, 1e-2)
#: Share of figures_cold requests that reuse a recent request's fault
#: identity under a different experiment.
COLD_REUSE_SHARE = 0.25
COLD_REUSE_WINDOW = 4

MEMSYS_BENCHMARKS = ("mcf_m", "lbm_m", "mum_m", "zeu_m")
MEMSYS_SCHEMES = ("Hard+Sys", "UDRVR+PR")
#: Trace seed of every cell (the performance figures' default).  The
#: run's seed orders the cells; another trace seed would move the cost
#: of a run by several percent, which is not the program's doing.
MEMSYS_TRACE_SEED = 3
MEMSYS_MAX_ROUNDS = 64

#: design_sweep pre-fill grid: 25 configs x 4 techniques x 10 fault
#: rates x 10 seeds x 10 cells = 100,000 rows.
SWEEP_GRID = {"configs": 25, "techniques": 4, "rates": 10, "seeds": 10, "cells": 10}
SWEEP_TECHNIQUES = ("Base", "DRVR", "DRVR+PR", "UDRVR+PR")
SWEEP_MAX_ITERATIONS = 256
SWEEP_MC_SAMPLES = 8
SWEEP_WARM_SEED = 1


def _rng(workload: str, seed: int) -> random.Random:
    """A generator private to one workload and seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def stratified(weights: dict, n: int, rng: random.Random) -> list:
    """``n`` labels in a seeded order with fixed per-label counts."""
    total = sum(weights.values())
    exact = {label: n * w / total for label, w in weights.items()}
    counts = {label: int(value) for label, value in exact.items()}
    short = n - sum(counts.values())
    by_remainder = sorted(weights, key=lambda lab: (exact[lab] - counts[lab], str(lab)), reverse=True)
    for label in by_remainder[:short]:
        counts[label] += 1
    labels = [label for label in weights for _ in range(counts[label])]
    rng.shuffle(labels)
    return labels


def step_plan(workload: str, seconds: float) -> list[dict]:
    """The rate steps of one service run: ``{name, rate, duration_s}``."""
    spec = SERVICE_STEPS[workload]
    reference_s = seconds * spec["reference_share"]
    probe_s = (seconds - reference_s) / len(spec["probes"])
    steps = [{"name": "reference", "rate": spec["reference"], "duration_s": reference_s}]
    for rate in spec["probes"]:
        steps.append({"name": f"probe-{rate:g}", "rate": rate, "duration_s": probe_s})
    return steps


def _arrivals(step: dict) -> list[float]:
    """Evenly spaced send offsets: a fixed offered rate."""
    n = max(1, round(step["rate"] * step["duration_s"]))
    return [i / step["rate"] for i in range(n)]


def hot_keys(seed: int) -> list[tuple[str, int]]:
    """figures_hot keys (experiment, seed), most popular first.

    The experiment at each popularity rank is fixed (payload sizes, and
    so wire costs, differ by experiment); the seed draws the seeds.
    """
    rng = _rng("figures_hot.keys", seed)
    seeds = rng.sample(range(1, 1000), HOT_SEEDS_PER_EXPERIMENT)
    return [(name, s) for s in seeds for name in EXPERIMENTS]


def hot_inputs(seed: int, seconds: float) -> dict:
    """Pre-touch keys and the per-step request schedule of figures_hot."""
    rng = _rng("figures_hot", seed)
    keys = hot_keys(seed)
    weights = {key: 1.0 / (rank + 1) ** HOT_ZIPF_ALPHA for rank, key in enumerate(keys)}
    steps = []
    for step in step_plan("figures_hot", seconds):
        offsets = _arrivals(step)
        chosen = stratified(weights, len(offsets), rng)
        requests = [
            [offset, {"experiment": name, "seed": key_seed}]
            for offset, (name, key_seed) in zip(offsets, chosen)
        ]
        steps.append(dict(step, requests=requests))
    return {"keys": [list(key) for key in keys], "steps": steps}


def smooth_order(weights: dict, n: int) -> list:
    """``n`` labels interleaved by smooth weighted round robin.

    Deterministic: every seed sends the same experiment at the same
    position, so the queueing pattern of a cold run does not move
    with the seed (each request still carries a seeded identity).
    """
    total = sum(weights.values())
    current = {label: 0.0 for label in weights}
    order = []
    for _ in range(n):
        for label, weight in weights.items():
            current[label] += weight
        best = max(current, key=lambda label: current[label])
        current[best] -= total
        order.append(best)
    return order


def cold_inputs(seed: int, seconds: float) -> dict:
    """Per-step schedule of figures_cold (fresh or reused fault identities).

    Every ``1 / COLD_REUSE_SHARE``-th request reuses the fault identity
    of the latest earlier request with a different experiment; all the
    others get a fresh seed and a fault rate drawn (stratified) from
    ``COLD_FAULT_RATES``.
    """
    rng = _rng("figures_cold", seed)
    next_seed = rng.randrange(1 << 20, 1 << 30)
    every = round(1 / COLD_REUSE_SHARE)
    recent: list[dict] = []
    steps = []
    reused = total = 0
    for step in step_plan("figures_cold", seconds):
        offsets = _arrivals(step)
        names = smooth_order(EXPERIMENT_MIX, len(offsets))
        rates = stratified({r: 1.0 for r in COLD_FAULT_RATES}, len(offsets), rng)
        requests = []
        for offset, name, rate in zip(offsets, names, rates):
            source = None
            if total % every == every - 1:
                candidates = [r for r in recent[-COLD_REUSE_WINDOW:] if r["experiment"] != name]
                source = candidates[-1] if candidates else None
            if source is not None:
                doc = {"experiment": name, "seed": source["seed"], "fault_rate": source["fault_rate"]}
                reused += 1
            else:
                next_seed += 1
                doc = {"experiment": name, "seed": next_seed, "fault_rate": rate}
            total += 1
            recent.append(doc)
            requests.append([offset, doc])
        steps.append(dict(step, requests=requests))
    return {"steps": steps, "reuse_share": reused / total if total else 0.0}


def memsys_inputs(seed: int) -> dict:
    """The seeded cell order of every round (and the fixed trace seed)."""
    rng = _rng("memsys_sim", seed)
    cells = [[bench, scheme] for bench in MEMSYS_BENCHMARKS for scheme in MEMSYS_SCHEMES]
    rounds = []
    for _ in range(MEMSYS_MAX_ROUNDS):
        order = list(cells)
        rng.shuffle(order)
        rounds.append(order)
    return {"trace_seed": MEMSYS_TRACE_SEED, "rounds": rounds}


def sweep_prefill(seed: int) -> dict:
    """The ~1e5-row pre-fill grid as schema columns (NumPy arrays)."""
    g = SWEEP_GRID
    rng = np.random.default_rng(int.from_bytes(hashlib.sha256(f"design_sweep:{seed}".encode()).digest()[:8], "big"))
    shape = (g["configs"], g["techniques"], g["rates"], g["seeds"], g["cells"])
    n = int(np.prod(shape))
    idx = np.indices(shape).reshape(len(shape), n)
    cfg, tech, rate, sd, cell = idx
    rates = np.round(np.geomspace(1e-5, 3e-2, g["rates"]), 8)
    base_seed = int(rng.integers(1, 1 << 20))
    techniques = np.array(SWEEP_TECHNIQUES, dtype=object)
    # Values are rounded so the written copy compresses; the grid's
    # shape, not its digits, is what the store's work depends on.
    latency = np.round(1.0 + 0.2 * tech + 50.0 * rates[rate] + rng.gamma(2.0, 0.05, n), 4)
    return {
        "config_hash": np.array([f"grid{c:03d}" for c in range(g["configs"])], dtype=object)[cfg],
        "experiment": np.full(n, "fault-sweep", dtype=object),
        "technique": techniques[tech],
        "solver": np.full(n, "batched", dtype=object),
        "fault_set": np.array([f"rate={r:g}" for r in rates], dtype=object)[rate],
        "seed": (base_seed + sd).astype(np.int64),
        "cell": np.array([f"bl{c}" for c in range(g["cells"])], dtype=object)[cell],
        "fault_rate": rates[rate].astype(np.float64),
        "array_size": np.full(n, 512, dtype=np.int64),
        "latency_us": latency,
        "min_endurance": np.round(1e7 / latency, 0),
        "fail_fraction": np.round(np.clip(rates[rate] * rng.uniform(0.5, 1.5, n), 0, 1), 6),
        "stuck_fraction": rates[rate].astype(np.float64),
        "value": np.full(n, np.nan),
        "wall_s": np.round(rng.uniform(0.01, 0.2, n), 3),
    }


#: The fixed read mix of design_sweep: (label, predicates, projection).
#: Equality on string columns, numeric ranges, an ``in`` list and a
#: projection-only scan, over both pre-filled and ensemble rows.
SWEEP_QUERIES = (
    ("tech-eq", [("technique", "==", "UDRVR+PR")], ["cell", "latency_us"]),
    ("tech-rate", [("technique", "==", "DRVR"), ("fault_rate", ">=", 1e-3)], ["latency_us", "fail_fraction"]),
    ("latency-range", [("latency_us", "<", 1.2)], ["config_hash", "latency_us"]),
    ("config-eq", [("config_hash", "==", "grid007")], ["technique", "latency_us", "min_endurance"]),
    ("rate-in", [("fault_rate", "in", [1e-5, 3e-2])], ["fail_fraction"]),
    ("mc-rows", [("experiment", "==", "mc-sweep")], ["seed", "fault_rate", "latency_us"]),
    ("mc-base-rate", [("experiment", "==", "mc-sweep"), ("fault_rate", "==", 0.01)], ["latency_us"]),
    ("endurance", [("min_endurance", ">", 9.5e6)], ["cell"]),
    ("fail-high", [("fail_fraction", ">", 0.02), ("technique", "!=", "Base")], ["config_hash", "fail_fraction"]),
    ("all-latency", [], ["latency_us"]),
)


def sweep_inputs(seed: int) -> dict:
    """Master seeds of the timed ensemble iterations (pre-fill aside).

    The set-up's warm ensemble always uses ``SWEEP_WARM_SEED``: run from
    cold caches, it solves every voltage quantum its instances' droops
    touch, and how many that is (so the solve batch, and with it peak
    memory) moves with the master seed.
    """
    rng = _rng("design_sweep", seed)
    seeds = rng.sample(range(1 << 20, 1 << 30), SWEEP_MAX_ITERATIONS)
    return {"warm_seed": SWEEP_WARM_SEED, "iteration_seeds": seeds, "queries": [list(q) for q in SWEEP_QUERIES]}


def generate(workload: str, seed: int, seconds: float) -> dict:
    """Every generated input of one run, as plain data."""
    if workload == "figures_hot":
        return hot_inputs(seed, seconds)
    if workload == "figures_cold":
        return cold_inputs(seed, seconds)
    if workload == "memsys_sim":
        return memsys_inputs(seed)
    if workload == "design_sweep":
        return sweep_inputs(seed)
    raise KeyError(workload)


def canonical_bytes(workload: str, seed: int, seconds: float) -> bytes:
    """Byte form of every generated input (pre-fill columns included)."""
    parts = [json.dumps(generate(workload, seed, seconds), sort_keys=True).encode()]
    if workload == "design_sweep":
        for name, column in sorted(sweep_prefill(seed).items()):
            data = "\x1f".join(column.tolist()).encode() if column.dtype == object else column.tobytes()
            parts.append(name.encode() + b"=" + data)
    return b"\x1e".join(parts)
