#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload figures_hot --seed 1 --seconds 10 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json``;
``perfbench/README.md`` explains each.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` runs the workload again with span
recording on and prints the per-layer metrics instead.  Human-readable
lines come first; the last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 when every output check passed, 1 when a check failed
(the result line is still printed, with ``"correct": false``), 2 when
the program's sources or the benchmark declaration are missing, 3 when
the run is invalid (open-loop generator lagged; nothing is reported).
Everything the run writes goes under ``.perfbench_out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
import traceback

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from perfbench import common, inputs  # noqa: E402

WORKLOADS = ("figures_hot", "figures_cold", "memsys_sim", "design_sweep")


def _declaration() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _workload_module(name: str):
    if name.startswith("figures_"):
        from perfbench import service

        return service
    if name == "memsys_sim":
        from perfbench import memsys

        return memsys
    from perfbench import sweep

    return sweep


def _write_inputs(run_dir: pathlib.Path, workload: str, seed: int, seconds: float) -> None:
    common.write_json(run_dir / "inputs.json", inputs.generate(workload, seed, seconds))
    if workload == "design_sweep":
        import numpy as np

        columns = inputs.sweep_prefill(seed)
        np.savez_compressed(
            run_dir / "prefill.npz",
            **{name: col.astype(str) if col.dtype == object else col for name, col in columns.items()},
        )


def _overhead_lines(run_dir: pathlib.Path, traced: dict) -> list[str]:
    """Traced minus untraced end-to-end, when an untraced result exists."""
    untraced_file = run_dir / "trace0.json"
    if not untraced_file.exists():
        candidates = sorted(run_dir.parent.glob("seed*/trace0.json"), key=lambda p: p.stat().st_mtime)
        if not candidates:
            return ["tracing overhead: no untraced result of this workload yet"]
        untraced_file = candidates[-1]
    untraced = json.loads(untraced_file.read_text())["e2e"]
    lines = [f"tracing overhead against {untraced_file.relative_to(common.ROOT)}:"]
    for name, value in traced.items():
        base = untraced.get(name)
        if base:
            lines.append(f"  {name}: traced {value:.6g} - untraced {base:.6g} = {value - base:+.6g} ({(value - base) / base:+.1%})")
    return lines


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: program sources not found under {common.SRC}", file=sys.stderr)
        return 2
    try:
        declaration = _declaration()
    except (OSError, ValueError) as exc:
        print(f"benchmark: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    tmp = common.OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(common.SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"benchmark: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if pathlib.Path(repro.__file__).resolve().parent != (common.SRC / "repro").resolve():
        print(f"benchmark: imported repro from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2

    run_dir = common.OUT / args.workload / f"seed{args.seed}"
    started = time.time()
    try:
        outcome = _workload_module(args.workload).run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except Exception:  # noqa: BLE001 - report and exit without a result
        traceback.print_exc()
        return 1
    # Written after the run, so generating them adds nothing to the
    # run's own peak RSS.
    _write_inputs(run_dir, args.workload, args.seed, args.seconds)
    if outcome.invalid:
        print(f"INVALID RUN: {outcome.invalid}", file=sys.stderr)
        return 3
    attempted = max(1, outcome.attempted)
    outcome.e2e["ok_share"] = 1.0 - outcome.failed / attempted

    if args.trace:
        names = [m["name"] for m in declaration["per_layer"]]
        units = {m["name"]: m["unit"] for m in declaration["per_layer"]}
        unknown = sorted(set(outcome.layers) - set(names))
        if unknown:
            raise KeyError(f"undeclared per-layer metrics {unknown}")
        outcome.layers["trace.latency_p50_ms"] = outcome.e2e["latency_p50_ms"]
        outcome.layers["trace.work_per_s"] = outcome.e2e["work_per_s"]
        # A layer the workload never entered did no work: 0.
        values = {name: float(outcome.layers.get(name, 0.0)) for name in names}
        outcome.report.extend(_overhead_lines(run_dir, outcome.e2e))
    else:
        names = [m["name"] for m in declaration["end_to_end"]]
        units = {m["name"]: m["unit"] for m in declaration["end_to_end"]}
        values = {name: float(outcome.e2e[name]) for name in names}

    host = common.machine()
    common.write_json(
        run_dir / f"trace{args.trace}.json",
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "started": started,
            "machine": host,
            "correct": outcome.correct,
            "attempted": attempted,
            "failed": outcome.failed,
            "checks_failed": outcome.checks_failed,
            "e2e": outcome.e2e,
            "layers": outcome.layers,
            "details": outcome.details,
        },
    )
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} ({args.seconds:g} s)")
    print(f"machine: {host.get('cpu_model', host['machine'])}, {host['cpus']} cpus, python {host['python']}")
    for line in outcome.report:
        print(line)
    for name in names:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    print(f"failed_share = {outcome.failed / attempted:.6g} share ({outcome.failed}/{attempted})")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": attempted,
                "failed": outcome.failed,
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
