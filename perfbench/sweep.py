"""design_sweep: Monte Carlo ensembles written into a large SweepStore.

Set-up (repeated ``SETUPS`` times, each into a fresh store from cold
profile caches) appends the seeded ~1e5-row pre-fill grid as ten
shards, combines it, and runs one untimed ensemble so imports and
lazily built models are in place.  Each timed iteration then runs the
``mc-sweep`` experiment on the ``batched`` solver under a new master
seed, writes its instance rows through ``append`` + ``combine`` (the
instances become queryable there), and issues the fixed query mix of
``inputs.SWEEP_QUERIES``.  Iterations repeat until ``--seconds`` have
passed.

Output check: for every iteration and fault rate, the percentile bands
re-aggregated from a store query must equal the bands the ensemble
reported, exactly.
"""

from __future__ import annotations

import shutil
import time
import uuid

from . import common, inputs, tracing
from .common import Outcome, median, per_kind_percentile

SETUPS = 3
SOLVER = "batched"
SHARDS = 10
BANDS = (("latency_us", "latency_us"), ("lifetime_at_risk", "min_endurance"), ("fail_fraction", "fail_fraction"))


def _ensemble(seed: int, collector=None):
    import repro.engine
    from repro.engine.context import RunContext

    context = RunContext(
        seed=seed, solver=SOLVER, params={"samples": inputs.SWEEP_MC_SAMPLES}, collector=collector
    )
    return repro.engine.run_experiment("mc-sweep", context)


def setup(prefill: dict, warm_seed: int):
    import numpy as np

    import repro.sweepstore as sweepstore

    common.cold_caches()
    root = common.OUT / "tmp" / f"design_sweep-{uuid.uuid4().hex[:8]}"
    store = sweepstore.SweepStore(root, grace_s=0.0)
    table = sweepstore.Table(dict(prefill))
    for part in np.array_split(np.arange(table.num_rows), SHARDS):
        store.append(table.take(part))
    store.combine()
    _ensemble(warm_seed)
    return root, store


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    import repro.engine
    import repro.mc.experiment
    import repro.sweepstore as sweepstore
    from repro import obs
    from repro.mc import PercentileBand

    outcome = Outcome()
    generated = inputs.sweep_inputs(seed)
    prefill = inputs.sweep_prefill(seed)
    durations, roots = [], []
    try:
        for _ in range(SETUPS):
            store = None  # the previous set-up's store must not add to peak RSS
            start = common.cpu_clock()
            root, store = setup(prefill, generated["warm_seed"])
            durations.append(common.cpu_clock() - start)
            roots.append(root)
        prefill_rows = store.stats()["combined_rows"]

        collector = obs.Collector() if trace else None
        tracer = tracing.Tracer() if trace else None
        if tracer is not None:
            tracer.wrap(repro.engine, "run_experiment", "analysis.run_experiment", record=True)
            tracer.wrap(repro.mc.experiment, "run_ensemble", "mc.ensemble", record=True)
            for method in ("append", "combine", "query"):
                tracer.wrap(sweepstore.SweepStore, method, f"sweepstore.{method}", record=True)
        write_s, query_s = [], []
        instances = query_rows = 0
        iterations = []
        loop_start = time.perf_counter()
        try:
            for master_seed in generated["iteration_seeds"]:
                if iterations and time.perf_counter() - loop_start >= seconds:
                    break
                start = common.cpu_clock()
                result = _ensemble(master_seed, collector)
                rows = sweepstore.rows_from_result(result, solver=SOLVER)
                store.append(rows)
                store.combine()
                write_s.append(common.cpu_clock() - start)
                instances += len(rows)
                iterations.append((master_seed, result.payload))
                for label, where, columns in inputs.SWEEP_QUERIES:
                    start = common.cpu_clock()
                    answer = store.query(where=where, columns=columns)
                    query_s.append((label, common.cpu_clock() - start))
                    query_rows += len(answer[columns[0]])
        finally:
            if tracer is not None:
                tracer.uninstall()

        mismatched = 0
        for master_seed, payload in iterations:
            for rate in payload["rates"]:
                outcome.attempted += 1
                cut = store.query(
                    where=[("experiment", "==", "mc-sweep"), ("seed", "==", master_seed), ("fault_rate", "==", float(rate))],
                    columns=[column for _, column in BANDS],
                )
                expected = payload["bands"][f"{rate:g}"]
                for band, column in BANDS:
                    got = PercentileBand.from_samples(cut[column]).as_dict()
                    if len(cut[column]) != payload["samples"] or got != expected[band]:
                        mismatched += 1
                        outcome.fail(f"seed {master_seed} rate {rate:g}: {band} re-aggregated from the store differs")
                        break
        outcome.attempted += len(query_s)
        final_rows = store.stats()["combined_rows"]
    finally:
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)

    samples_per_s = instances / sum(write_s)
    outcome.e2e.update(
        {
            "setup_s": median(durations),
            "peak_rss_mb": common.self_rss_mb(),
            "latency_p50_ms": per_kind_percentile(query_s, 50) * 1e3,
            "latency_p90_ms": per_kind_percentile(query_s, 90) * 1e3,
            "work_per_s": samples_per_s,
        }
    )
    if trace:
        layers = tracing.obs_layers(collector.snapshot().to_plain())
        layers.update(
            {
                "experiment.self_s": tracer.self_s["analysis.run_experiment"],
                "mc.ensemble_s": tracer.total_s["mc.ensemble"],
                "mc.quanta_solved": sum(
                    band["quanta_solved"] for _, payload in iterations for band in payload["bands"].values()
                ),
                "mc.instances": instances,
                "sweepstore.append_s": tracer.total_s["sweepstore.append"],
                "sweepstore.combine_s": tracer.total_s["sweepstore.combine"],
                "sweepstore.query_s": tracer.total_s["sweepstore.query"],
                "sweepstore.query_rows": query_rows,
                "trace.spans": tracer.spans,
            }
        )
        outcome.layers.update(layers)
        tracer.dump(common.OUT / workload / f"seed{seed}" / "spans.jsonl")
    outcome.details.update(
        {
            "setup_durations_s": durations,
            "prefill_rows": prefill_rows,
            "final_rows": final_rows,
            "iterations": len(iterations),
            "write_s": write_s,
            "query_s": query_s,
        }
    )
    outcome.report.append(
        f"{len(iterations)} ensembles x {instances // max(1, len(iterations))} instances on {SOLVER} into a "
        f"{prefill_rows}-row store (now {final_rows}); mc_samples_per_s = {samples_per_s:.6g} 1/s"
    )
    outcome.report.append(
        f"{len(query_s)} queries: query_p50_ms = {per_kind_percentile(query_s, 50) * 1e3:.4g} ms, "
        f"query_p90_ms = {per_kind_percentile(query_s, 90) * 1e3:.4g} ms; band checks mismatched: {mismatched}"
    )
    return outcome

