"""memsys_sim: SystemSimulator cells in process, warmed L3, fixed trace.

Set-up (repeated ``SETUPS`` times, each from cold model and profile
caches; ``setup_s`` is the median) builds the two schemes and their
RESET-latency tables, the only place the circuit solvers run in this
workload.  One set of DRAM-L3 slices per benchmark is then warmed once.
The timed loop runs whole rounds of the eight (benchmark, scheme) cells
in a seeded order for about ``--seconds``: each cell is a fresh
:class:`~repro.cpu.system.SystemSimulator` handed a copy of its
benchmark's warmed caches and trace streams, and only its ``run()`` is
timed.  Warming outside ``run()`` is the same work ``run()`` does with
``warmup_accesses`` (it touches cache state only, identically for
every scheme), which the reference digest locks: it was produced with
the simulator's own warm-up.  Timings are CPU seconds
(``common.cpu_clock``).

Every cell's simulated IPC and ``ControllerStats`` must equal the
digest in ``memsys_digest.json`` exactly.  Regenerate it only when the
simulated model is meant to change::

    python3 -m perfbench.memsys --write-digest
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import math
import pathlib
import sys
import time

from . import common, inputs, tracing
from .common import Outcome, median, percentile

SETUPS = 3
SCALE = 256
ACCESSES_PER_CORE = 1000
WARMUP_ACCESSES = 4000
WRITE_HEAVY = ("mcf_m", "lbm_m", "mum_m")
#: Fig. 15 / sweep rows of EXPERIMENTS.md: UDRVR+PR over Hard+Sys.
PAPER_GAIN_PCT = 11.7
DIGEST = pathlib.Path(__file__).with_name("memsys_digest.json")


@dataclasses.dataclass
class Bench:
    config: object
    schemes: dict
    suite: dict
    warm: dict
    schemes_build_s: float


def setup() -> Bench:
    """Cold caches, then the two schemes and their RESET-latency tables."""
    from repro.engine.context import RunContext
    from repro.mem.line_codec import LineWriteModel
    from repro.techniques.stacks import make_hard_sys
    from repro.techniques.udrvr import make_udrvr_pr
    from repro.workloads.benchmarks import get_benchmark, scale_benchmark
    from repro.xpoint.vmap import ModelCache

    common.cold_caches()
    context = RunContext(model_cache=ModelCache())
    base = context.config
    config = base.with_cpu(l3_bytes_per_core=max(64 << 10, base.cpu.l3_bytes_per_core // SCALE))
    start = common.cpu_clock()
    schemes = {
        "Hard+Sys": make_hard_sys(config),
        "UDRVR+PR": make_udrvr_pr(config, model=context.nominal_ir_model(config)),
    }
    for scheme in schemes.values():
        LineWriteModel(config, scheme)  # builds the RESET-latency tables
    schemes_build_s = common.cpu_clock() - start
    suite = {name: scale_benchmark(get_benchmark(name), SCALE) for name in inputs.MEMSYS_BENCHMARKS}
    return Bench(config, schemes, suite, {}, schemes_build_s)


def warm_caches(bench: Bench, trace_seed: int) -> None:
    """Warm one set of DRAM-L3 slices and trace streams per benchmark."""
    from repro.cpu.system import SystemSimulator

    for name in inputs.MEMSYS_BENCHMARKS:
        sim = SystemSimulator(
            bench.config, bench.schemes["Hard+Sys"], bench.suite[name],
            accesses_per_core=ACCESSES_PER_CORE, seed=trace_seed, warmup_accesses=0,
        )
        for stream, hierarchy in zip(sim.streams, sim.hierarchies):
            for _ in range(WARMUP_ACCESSES):
                access = stream.next_access()
                hierarchy.access_l3(access.address, access.is_write)
        bench.warm[name] = (sim.hierarchies, sim.streams)


def run_cell(bench: Bench, name: str, scheme: str, trace_seed: int):
    """One timed cell: (result, CPU seconds of ``run()``)."""
    from repro.cpu.system import SystemSimulator

    sim = SystemSimulator(
        bench.config, bench.schemes[scheme], bench.suite[name],
        accesses_per_core=ACCESSES_PER_CORE, seed=trace_seed, warmup_accesses=0,
    )
    sim.hierarchies, sim.streams = copy.deepcopy(bench.warm[name])
    start = common.cpu_clock()
    result = sim.run()
    return result, common.cpu_clock() - start


def digest_entry(result) -> dict:
    return {"ipc": result.ipc, "stats": dataclasses.asdict(result.stats)}


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _install(tracer: tracing.Tracer) -> None:
    from repro.cpu.system import SystemSimulator
    from repro.mem.controller import MemoryController
    from repro.mem.line_codec import LineWriteModel
    from repro.workloads.datapatterns import WritePatternGenerator
    from repro.workloads.synthetic import SyntheticStream

    tracer.wrap(SystemSimulator, "run", "cpu.run", record=True)
    for method in ("submit_read", "try_submit_write", "notify_write_space", "drain"):
        tracer.wrap(MemoryController, method, "mem.controller")
    tracer.wrap(LineWriteModel, "write", "mem.line_write")
    tracer.wrap(SyntheticStream, "next_access", "workloads.stream")
    tracer.wrap(WritePatternGenerator, "masks", "workloads.pattern")


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import obs

    outcome = Outcome()
    generated = inputs.memsys_inputs(seed)
    trace_seed = generated["trace_seed"]
    digest = json.loads(DIGEST.read_text())
    expected = digest["cells"]

    collector = obs.Collector() if trace else None
    durations = []
    for index in range(SETUPS):
        bench = None  # the previous set-up's state must not add to peak RSS
        if collector is not None:
            collector.reset()  # keep the last (cold) set-up's counts
        start = common.cpu_clock()
        with obs.collecting(collector) if collector is not None else contextlib.nullcontext():
            bench = setup()
        durations.append(common.cpu_clock() - start)
    setup_snapshot = collector.snapshot().to_plain() if collector is not None else {}
    start = common.cpu_clock()
    warm_caches(bench, trace_seed)
    warm_s = common.cpu_clock() - start

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        _install(tracer)
    cell_s, results = [], []
    rounds = 0
    loop_start = time.perf_counter()
    round_s = 0.0
    try:
        for order in generated["rounds"]:
            # Whole rounds only: stop where the window ends closest to
            # --seconds (judged by the last round's wall time).
            elapsed = time.perf_counter() - loop_start
            if rounds and elapsed + round_s / 2 >= seconds:
                break
            for name, scheme in order:
                result, cpu_s = run_cell(bench, name, scheme, trace_seed)
                cell_s.append(cpu_s)
                results.append((name, scheme, result))
            rounds += 1
            round_s = time.perf_counter() - loop_start - elapsed
    finally:
        if tracer is not None:
            tracer.uninstall()

    per_cell = {}
    for name, scheme, result in results:
        outcome.attempted += 1
        key = f"{name}|{scheme}|{trace_seed}"
        entry = digest_entry(result)
        per_cell[(name, scheme)] = result
        if entry != expected.get(key):
            outcome.fail(f"cell {key}: simulated IPC/ControllerStats differ from the reference digest")

    accesses = len(results) * ACCESSES_PER_CORE * 8
    run_s = sum(cell_s)
    # A round (all eight cells) is the operation whose latency is
    # reported: single cells of one kind vary by ~20 % on the reference
    # machine, a round of eight by far less.
    cells = len(inputs.MEMSYS_BENCHMARKS) * len(inputs.MEMSYS_SCHEMES)
    round_cpu_s = [sum(cell_s[i : i + cells]) for i in range(0, len(cell_s), cells)]
    ratio = _geomean(
        per_cell[(name, "UDRVR+PR")].ipc / per_cell[(name, "Hard+Sys")].ipc for name in WRITE_HEAVY
    )
    gain_pct = (ratio - 1.0) * 100.0
    outcome.e2e.update(
        {
            "setup_s": median(durations),
            "peak_rss_mb": common.self_rss_mb(),
            "latency_p50_ms": percentile(round_cpu_s, 50) * 1e3,
            "latency_p90_ms": percentile(round_cpu_s, 90) * 1e3,
            "work_per_s": accesses / run_s,
        }
    )
    one_round = list(per_cell.values())
    if trace:
        layers = tracing.obs_layers(setup_snapshot)
        layers.update(
            {
                "techniques.schemes_build_s": bench.schemes_build_s,
                "mem.line_write_s": tracer.total_s["mem.line_write"],
                "mem.controller_s": tracer.total_s["mem.controller"],
                "mem.reads": sum(r.stats.reads for r in one_round),
                "mem.writes": sum(r.stats.writes for r in one_round),
                "mem.write_bursts": sum(r.stats.write_bursts for r in one_round),
                "mem.write_queue_stall_s": sum(r.stats.write_queue_stall_time for r in one_round),
                "cpu.sim_run_s": tracer.total_s["cpu.run"],
                "cpu.self_s": tracer.self_s["cpu.run"],
                "cpu.host_us_per_access": run_s / accesses * 1e6,
                "cpu.ipc": sum(r.ipc for r in one_round) / len(one_round),
                "cpu.ipc_ratio_write_heavy": ratio,
                "cpu.ipc_gain_error_pp": abs(gain_pct - PAPER_GAIN_PCT),
                "workloads.stream_s": tracer.total_s["workloads.stream"],
                "workloads.pattern_s": tracer.total_s["workloads.pattern"],
                "trace.spans": tracer.spans,
            }
        )
        outcome.layers.update(layers)
        tracer.dump(common.OUT / workload / f"seed{seed}" / "spans.jsonl")
    outcome.details.update(
        {
            "trace_seed": trace_seed,
            "rounds": rounds,
            "setup_durations_s": durations,
            "schemes_build_s": bench.schemes_build_s,
            "warm_s": warm_s,
            "cells": [
                {"benchmark": n, "scheme": s, "run_s": t, "ipc": r.ipc}
                for (n, s, r), t in zip(results, cell_s)
            ],
            "ipc_ratio_write_heavy": ratio,
        }
    )
    outcome.report.append(
        f"{len(results)} cells in {rounds} rounds (trace seed {trace_seed}, "
        f"{ACCESSES_PER_CORE} accesses/core after {WARMUP_ACCESSES} warm-up), "
        f"sim_accesses_per_s = {accesses / run_s:.6g} 1/s"
    )
    outcome.report.append(
        f"accuracy: UDRVR+PR / Hard+Sys IPC on {'/'.join(WRITE_HEAVY)} = {ratio:.4f} "
        f"({gain_pct:+.1f} %) vs paper +{PAPER_GAIN_PCT} % (error {gain_pct - PAPER_GAIN_PCT:+.1f} pp)"
    )
    return outcome


def write_digest() -> None:
    """Recompute every cell with the simulator's own warm-up."""
    from repro.cpu.system import SystemSimulator

    cells = {}
    trace_seed = inputs.MEMSYS_TRACE_SEED
    bench = setup()
    for name in inputs.MEMSYS_BENCHMARKS:
        for scheme in inputs.MEMSYS_SCHEMES:
            result = SystemSimulator(
                bench.config, bench.schemes[scheme], bench.suite[name],
                accesses_per_core=ACCESSES_PER_CORE, seed=trace_seed,
                warmup_accesses=WARMUP_ACCESSES,
            ).run()
            cells[f"{name}|{scheme}|{trace_seed}"] = digest_entry(result)
    DIGEST.write_text(
        json.dumps(
            {
                "accesses_per_core": ACCESSES_PER_CORE,
                "warmup_accesses": WARMUP_ACCESSES,
                "scale": SCALE,
                "cells": cells,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-digest"]:
        sys.exit("usage: python3 -m perfbench.memsys --write-digest")
    sys.path.insert(0, str(common.SRC))
    write_digest()
