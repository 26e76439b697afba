"""figures_hot / figures_cold: open-loop traffic against ``repro serve``.

Each set-up boots a fresh ``python -m repro serve`` subprocess (process
compute plane, two workers, fresh cache and sweep directories) and
pre-touches it; the last set-up's service takes the timed traffic.  One
client process drives it over two pipelined connections: every request
is written when it is *due*, whatever is still outstanding (an open
loop), and its latency is timed from that due time, so a stall also
charges the requests queued behind it.  How late the sender itself ran
(``client.send_lag_ms``) is recorded; a reference step whose sender
lagged past ``LAG_P50_BOUND_MS`` / ``LAG_MAX_BOUND_MS`` makes the run
invalid rather than reported.

The rate ladder (``inputs.SERVICE_STEPS``) starts with the reference
step, where the latency metrics are taken, and climbs through the probe
rates until one misses the p90 limit, grows a backlog, or fails a
request; ``work_per_s`` is the highest rate that held.  A probe whose
backlog passes twice what the limit allows stops sending (it has
already failed), so the ladder never floods the admission queue.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import uuid

from . import common, inputs, tracing
from .common import Outcome, median, percentile

SETUPS = 3
WORKERS = 2
CONNECTIONS = 2
MAX_PENDING = 256
LAG_P50_BOUND_MS = 5.0
LAG_MAX_BOUND_MS = 250.0
#: Responses of figures_cold recomputed in process and compared.
COLD_CHECK_SAMPLE = 3
BOOT_TIMEOUT_S = 60.0
#: Relative tolerance of the payload comparison (see ``_difference``).
REL_TOL = 1e-4

_PREFIX = re.compile(rb'^\{"ok":(true|false),"id":(\d+)')
_LISTENING = re.compile(r"listening on (?P<host>[^:]+):(?P<port>\d+)")


class Service:
    """One ``repro serve`` subprocess with its own temp directories."""

    def __init__(self, tag: str) -> None:
        self.root = common.OUT / "tmp" / f"{tag}-{uuid.uuid4().hex[:8]}"
        self.root.mkdir(parents=True)
        self.marker = uuid.uuid4().hex
        self.output: list[str] = []
        self.host, self.port = "127.0.0.1", None
        self.shm_before = common.shm_segments()
        env = {
            **os.environ,
            "PYTHONPATH": str(common.SRC),
            "TMPDIR": str(self.root),
            common.MARKER_NAME: self.marker,
        }
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--compute-plane", "process",
                "--compute-workers", str(WORKERS),
                "--max-pending", str(MAX_PENDING),
                "--cache-dir", str(self.root / "cache"),
                "--sweep-dir", str(self.root / "sweep"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=common.ROOT,
            env=env,
        )
        self._banner = threading.Event()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        if not self._banner.wait(BOOT_TIMEOUT_S) or self.port is None:
            self.kill()
            raise RuntimeError(f"service did not start: {''.join(self.output)[-2000:]}")

    def _pump(self) -> None:
        # Drains the service's stdout for its whole life, so a chatty
        # child can never block on a full pipe.
        for line in self.process.stdout:
            self.output.append(line)
            match = _LISTENING.search(line)
            if match and self.port is None:
                self.host, self.port = match.group("host"), int(match.group("port"))
                self._banner.set()
        self._banner.set()

    def peak_rss_mb(self) -> float:
        return common.tree_peak_rss_mb(self.process.pid)

    def finish(self, outcome: Outcome) -> None:
        """Wait for the drained service to exit, then check hygiene.

        Call after the ``shutdown`` op.  A non-zero exit, a process
        still carrying this service's marker, or a ``repro-shm-*``
        segment it left behind each count as a failed operation.
        """
        outcome.attempted += 1
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            outcome.fail("service did not exit within 60 s of shutdown")
            return
        self._reader.join(timeout=10)
        if code != 0:
            outcome.fail(f"service exited with {code}: {''.join(self.output)[-500:]}")
        deadline = time.monotonic() + 10.0
        leaked = common.marked_processes(self.marker)
        while leaked and time.monotonic() < deadline:
            time.sleep(0.2)
            leaked = common.marked_processes(self.marker)
        if leaked:
            outcome.fail(f"leaked child processes {leaked}")
        segments = common.shm_segments() - self.shm_before
        if segments:
            outcome.fail(f"leaked shared-memory segments {sorted(segments)}")
        shutil.rmtree(self.root, ignore_errors=True)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)
        for pid in common.marked_processes(self.marker):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        shutil.rmtree(self.root, ignore_errors=True)


class LoadClient:
    """Pipelined NDJSON client over a few connections (asyncio)."""

    def __init__(self) -> None:
        self.streams = []
        self.readers = []
        self.waiting: dict[int, asyncio.Future] = {}
        self.received: dict[int, tuple[float, bytes, bool]] = {}
        self.next_id = 0

    async def open(self, host: str, port: int, connections: int = CONNECTIONS) -> None:
        for _ in range(connections):
            reader, writer = await asyncio.open_connection(host, port, limit=1 << 26)
            self.streams.append(writer)
            self.readers.append(asyncio.ensure_future(self._read(reader)))

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            match = _PREFIX.match(line)
            if match:
                ok, rid = match.group(1) == b"true", int(match.group(2))
            else:
                doc = json.loads(line)
                ok, rid = bool(doc.get("ok")), doc.get("id")
            self.received[rid] = (now, line, ok)
            future = self.waiting.pop(rid, None)
            if future is not None and not future.done():
                future.set_result(None)

    def send(self, doc: dict) -> tuple[int, asyncio.Future]:
        self.next_id += 1
        rid = self.next_id
        future = asyncio.get_running_loop().create_future()
        self.waiting[rid] = future
        line = json.dumps(dict(doc, id=rid), separators=(",", ":")).encode() + b"\n"
        self.streams[rid % len(self.streams)].write(line)
        return rid, future

    async def call(self, doc: dict, timeout: float = 120.0) -> dict:
        rid, future = self.send(doc)
        await asyncio.wait_for(future, timeout)
        return json.loads(self.received.pop(rid)[1])

    async def close(self) -> None:
        for writer in self.streams:
            writer.close()
        for task in self.readers:
            task.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)
        for writer in self.streams:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def _request(spec: dict, tag: str) -> dict:
    doc = {
        "op": "run",
        "solver": inputs.SOLVER,
        "deadline_s": inputs.DEADLINE_S,
        "rid": f"{tag}-{uuid.uuid4().hex}",
    }
    doc.update(spec)
    return doc


async def _pretouch(client: LoadClient, specs: list[dict]) -> list[dict]:
    """Run ``specs`` with at most one request per connection in flight."""
    gate = asyncio.Semaphore(CONNECTIONS)

    async def one(spec: dict) -> dict:
        async with gate:
            return await client.call(_request(spec, "pretouch"), timeout=300.0)

    return await asyncio.gather(*(one(spec) for spec in specs))


async def _run_step(client: LoadClient, step: dict, limit_ms: float) -> dict:
    """Send one step's schedule open-loop; returns its raw record."""
    limit_s = limit_ms / 1000.0
    abort_at = max(8, math.ceil(2.0 * step["rate"] * limit_s))
    sent = []  # (rid, due, sent_at, spec)
    max_outstanding = 0
    aborted = False
    loop_start = time.perf_counter() + 0.02
    midpoint = len(step["requests"]) // 2
    outstanding_at_mid = 0
    for index, (offset, spec) in enumerate(step["requests"]):
        due = loop_start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        outstanding = len(client.waiting)
        max_outstanding = max(max_outstanding, outstanding)
        if index == midpoint:
            outstanding_at_mid = outstanding
        if outstanding > abort_at:
            aborted = True
            break
        rid, _ = client.send(_request(spec, step["name"]))
        sent.append((rid, due, time.perf_counter(), spec))
    outstanding_at_end = len(client.waiting)
    pending = [client.waiting[rid] for rid, *_ in sent if rid in client.waiting]
    if pending:
        await asyncio.wait(pending, timeout=inputs.DEADLINE_S + 10.0)
    records = []
    for rid, due, sent_at, spec in sent:
        got = client.received.pop(rid, None)
        client.waiting.pop(rid, None)
        records.append(
            {
                "rid": rid,
                "spec": spec,
                "due": due,
                "sent": sent_at,
                "recv": got[0] if got else None,
                "ok": bool(got and got[2]),
                "line": got[1] if got else None,
            }
        )
    return {
        "name": step["name"],
        "rate": step["rate"],
        "scheduled": len(step["requests"]),
        "aborted": aborted,
        "max_outstanding": max_outstanding,
        "outstanding_at_mid": outstanding_at_mid,
        "outstanding_at_end": outstanding_at_end,
        "records": records,
    }


def _summarise(raw: dict, limit_ms: float) -> dict:
    records = raw["records"]
    # A failed or unanswered request counts as taking the full request
    # deadline: it misses every latency limit.
    latencies = [
        (r["recv"] - r["due"]) * 1e3 if r["ok"] else inputs.DEADLINE_S * 1e3 for r in records
    ]
    lags = [(r["sent"] - r["due"]) * 1e3 for r in records]
    failed = sum(1 for r in records if not r["ok"])
    p50 = percentile(latencies, 50) if records else inputs.DEADLINE_S * 1e3
    p90 = percentile(latencies, 90) if records else inputs.DEADLINE_S * 1e3
    lag_p50 = percentile(lags, 50) if lags else 0.0
    # A growing backlog: more requests outstanding when the last one is
    # sent than half-way through, beyond the ~sqrt(n) wobble of a
    # stable queue, or more than the limit lets the rate keep in flight
    # (Little's law).
    mid, end = raw["outstanding_at_mid"], raw["outstanding_at_end"]
    backlog_ok = end - mid <= 2 + 2 * math.sqrt(max(1, mid)) and end <= max(
        4, math.ceil(raw["rate"] * limit_ms / 1000.0)
    )
    held = (
        not raw["aborted"]
        and failed == 0
        and p90 <= limit_ms
        and backlog_ok
        and lag_p50 <= LAG_P50_BOUND_MS
    )
    return {
        "name": raw["name"],
        "rate": raw["rate"],
        "sent": len(records),
        "scheduled": raw["scheduled"],
        "failed": failed,
        "aborted": raw["aborted"],
        "p50_ms": p50,
        "p90_ms": p90,
        "send_lag_p50_ms": lag_p50,
        "send_lag_max_ms": max(lags) if lags else 0.0,
        "max_outstanding": raw["max_outstanding"],
        "outstanding_at_mid": raw["outstanding_at_mid"],
        "outstanding_at_end": raw["outstanding_at_end"],
        "held": held,
    }


def _stats_diff(before: dict, after: dict) -> dict:
    counters = {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
    }
    spans = {}
    for path, stat in after["spans"].items():
        old = before["spans"].get(path, {"count": 0, "total_s": 0.0})
        spans[path] = {
            "count": stat["count"] - old["count"],
            "total_s": stat["total_s"] - old["total_s"],
        }
    return {"counters": counters, "spans": spans, "gauges": after["gauges"]}


def _leaf(path: str) -> str:
    return path.rsplit("/", 1)[-1]


def _experiment_self_s(spans: dict) -> float:
    """Experiment spans minus the part their direct children cover."""
    total = 0.0
    for path, stat in spans.items():
        if not _leaf(path).startswith("experiment["):
            continue
        depth = path.count("/") + 1
        children = sum(
            s["total_s"]
            for p, s in spans.items()
            if p.startswith(path + "/") and p.count("/") == depth
        )
        total += stat["total_s"] - children
    return total


def _layers(diff: dict, raw: dict, summary: dict) -> dict:
    """Per-layer metrics of one step from its stats diff and responses."""
    c, spans = diff["counters"], diff["spans"]
    overheads, hit_walls, hits, answered = [], [], 0, 0
    for record in raw["records"]:
        if not record["ok"]:
            continue
        meta = json.loads(record["line"])["result"]["meta"]
        answered += 1
        overheads.append((record["recv"] - record["sent"]) * 1e3 - meta["wall_s"] * 1e3)
        if meta.get("cache") == "hit":
            hits += 1
            hit_walls.append(meta["wall_s"] * 1e3)
    layers = tracing.obs_layers(diff)
    layers.update(
        {
            "service.admitted": c.get("service.admitted", 0),
            "service.rejected": c.get("service.rejected", 0),
            "service.deadline_expired": c.get("service.deadline_expired", 0),
            "service.queue_depth_peak": diff["gauges"].get("service.queue_depth_peak", 0.0),
            "service.overhead_ms": median(overheads) if overheads else 0.0,
            "compute.plan_busy_s": sum(
                s["total_s"] for p, s in spans.items() if "/" not in p and p.startswith("compute.plan")
            ),
            "compute.group_dispatches": c.get("compute.group_dispatches", 0),
            "compute.grouped_jobs": c.get("compute.grouped_jobs", 0),
            "compute.worker_deaths": c.get("compute.worker_deaths", 0),
            "compute.requeues": c.get("compute.requeues", 0),
            "cache.hit_ratio": hits / answered if answered else 0.0,
            "cache.hit_wall_ms": median(hit_walls) if hit_walls else 0.0,
            "experiment.self_s": _experiment_self_s(spans),
            "client.send_lag_p50_ms": summary["send_lag_p50_ms"],
            "client.send_lag_max_ms": summary["send_lag_max_ms"],
        }
    )
    return layers


def _difference(a, b, path: str = "") -> "str | None":
    """Where two payloads differ, or ``None`` when they match.

    Exact except floats, which match to ``REL_TOL``.  ``factor-cache``
    warm-starts each solve from the worker's previous solution, and a
    cold Newton stopping point sits up to ~1e-6 V from the warm one
    (docs/solvers.md), so one request's payload depends on what its
    worker solved before it by a few 1e-6 relative (more on quantities
    that are differences of voltages).  An answer for another seed,
    fault rate or experiment differs by orders of magnitude more.
    """
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            if math.isnan(a) and math.isnan(b):
                return None
            if math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12):
                return None
        return f"{path or '/'}: {a!r} vs {b!r}"
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return f"{path or '/'}: keys {sorted(a)} vs {sorted(b)}"
        for key in a:
            found = _difference(a[key], b[key], f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path or '/'}: length {len(a)} vs {len(b)}"
        for index, (x, y) in enumerate(zip(a, b)):
            found = _difference(x, y, f"{path}[{index}]")
            if found:
                return found
        return None
    return None if a == b else f"{path or '/'}: {a!r} vs {b!r}"


def _reference_payload(spec: dict) -> dict:
    """The same request run in process, through the batch front door."""
    from repro.engine import run_experiment
    from repro.engine.warm import warm_context
    from repro.faults import FaultModel

    seed = spec.get("seed", 0)
    faults = None
    if "fault_rate" in spec:
        faults = FaultModel.at_rate(float(spec["fault_rate"]), seed=seed)
    context = warm_context(seed=seed, solver=inputs.SOLVER, faults=faults, cache_dir=None)
    result = run_experiment(spec["experiment"], context)
    return json.loads(json.dumps(result.to_plain()))["payload"]


def _check_outputs(workload: str, seed: int, steps: list[dict], outcome: Outcome) -> dict:
    """Compare answered payloads with in-process runs; mismatches fail."""
    by_key: dict[str, list] = {}
    for raw in steps:
        for record in raw["records"]:
            if record["ok"]:
                key = json.dumps(record["spec"], sort_keys=True)
                by_key.setdefault(key, []).append(record)
    if workload == "figures_hot":
        keys = sorted(by_key)
    else:
        import random

        reference = sorted(
            json.dumps(r["spec"], sort_keys=True) for r in steps[0]["records"] if r["ok"]
        )
        keys = random.Random(seed).sample(reference, min(COLD_CHECK_SAMPLE, len(reference)))
    checked = mismatched = 0
    for key in keys:
        expected = _reference_payload(json.loads(key))
        for record in by_key[key]:
            checked += 1
            payload = json.loads(record["line"])["result"]["payload"]
            found = _difference(payload, expected)
            if found:
                mismatched += 1
                outcome.fail(f"payload of {key} differs from the in-process run at {found}")
    return {"keys_checked": len(keys), "responses_checked": checked, "mismatched": mismatched}


async def _measure(workload: str, seed: int, seconds: float, trace: bool, outcome: Outcome) -> None:
    spec = inputs.SERVICE_STEPS[workload]
    generated = inputs.generate(workload, seed, seconds)
    if workload == "figures_hot":
        warm_specs = [{"experiment": name, "seed": s} for name, s in generated["keys"]]
    else:
        warm_specs = [{"experiment": name} for name in inputs.EXPERIMENTS]

    service: "Service | None" = None
    client: "LoadClient | None" = None
    setup_durations = []
    try:
        for index in range(SETUPS):
            start = time.perf_counter()
            service = Service(f"{workload}-{index}")
            client = LoadClient()
            await client.open(service.host, service.port)
            for doc in await _pretouch(client, warm_specs):
                outcome.attempted += 1
                if not doc.get("ok"):
                    outcome.fail(f"pre-touch request failed: {doc.get('error')}")
            setup_durations.append(time.perf_counter() - start)
            if index < SETUPS - 1:
                await client.call({"op": "shutdown"})
                await client.close()
                service.finish(outcome)
                service = client = None

        summaries, raws, diffs = [], [], []
        for step in generated["steps"]:
            before = (await client.call({"op": "stats"}))["stats"] if trace else None
            raw = await _run_step(client, step, spec["limit_ms"])
            after = (await client.call({"op": "stats"}))["stats"] if trace else None
            summary = _summarise(raw, spec["limit_ms"])
            outcome.attempted += summary["sent"]
            outcome.failed += summary["failed"]
            summaries.append(summary)
            raws.append(raw)
            if trace:
                diffs.append(_stats_diff(before, after))
            if not summary["held"]:
                break
        peak_rss = service.peak_rss_mb()
        await client.call({"op": "shutdown"})
        await client.close()
        client = None
        service.finish(outcome)
        service = None
    finally:
        if client is not None:
            await client.close()
        if service is not None:
            service.kill()

    reference = summaries[0]
    if reference["send_lag_p50_ms"] > LAG_P50_BOUND_MS or reference["send_lag_max_ms"] > LAG_MAX_BOUND_MS:
        outcome.invalid = (
            f"generator lag p50 {reference['send_lag_p50_ms']:.2f} ms / max "
            f"{reference['send_lag_max_ms']:.1f} ms beyond {LAG_P50_BOUND_MS} / {LAG_MAX_BOUND_MS} ms"
        )
    sustained = 0.0
    for summary in summaries:
        if not summary["held"]:
            break
        sustained = summary["rate"]
    checks = _check_outputs(workload, seed, raws, outcome)

    outcome.e2e.update(
        {
            "setup_s": median(setup_durations),
            "peak_rss_mb": peak_rss,
            "latency_p50_ms": reference["p50_ms"],
            "latency_p90_ms": reference["p90_ms"],
            "work_per_s": sustained,
        }
    )
    if trace:
        outcome.layers.update(_layers(diffs[0], raws[0], reference))
        outcome.layers["trace.spans"] = sum(len(raw["records"]) for raw in raws)
        outcome.details["stats_diffs"] = [
            {"step": s["name"], "counters": d["counters"], "spans": d["spans"]}
            for s, d in zip(summaries, diffs)
        ]
    outcome.details.update(
        {
            "setup_durations_s": setup_durations,
            "steps": summaries,
            "checks": checks,
            "limit_ms": spec["limit_ms"],
            "requests": [
                {
                    "step": raw["name"],
                    "spec": r["spec"],
                    "due_ms": (r["due"] - raws[0]["records"][0]["due"]) * 1e3,
                    "latency_ms": (r["recv"] - r["due"]) * 1e3 if r["ok"] else None,
                    "send_lag_ms": (r["sent"] - r["due"]) * 1e3,
                }
                for raw in raws
                for r in raw["records"]
            ],
        }
    )
    if workload == "figures_cold":
        outcome.details["reuse_share"] = generated["reuse_share"]
    n_ref = reference["sent"]
    outcome.report.append(
        f"reference step {reference['rate']:g} req/s: {n_ref} requests, "
        f"p50 {reference['p50_ms']:.2f} ms, p90 {reference['p90_ms']:.2f} ms "
        f"(limit {spec['limit_ms']:g} ms), send lag p50 {reference['send_lag_p50_ms']:.3f} ms "
        f"max {reference['send_lag_max_ms']:.2f} ms"
    )
    for summary in summaries[1:]:
        outcome.report.append(
            f"probe {summary['rate']:g} req/s: {summary['sent']}/{summary['scheduled']} sent, "
            f"p90 {summary['p90_ms']:.1f} ms, backlog {summary['outstanding_at_mid']} -> {summary['outstanding_at_end']}, "
            f"{'held' if summary['held'] else 'missed'}"
        )
    outcome.report.append(f"sustained_rps = {sustained:g} 1/s (offered rates {[s['rate'] for s in summaries]})")
    outcome.report.append(
        f"output checks: {checks['responses_checked']} responses over {checks['keys_checked']} keys, "
        f"{checks['mismatched']} mismatched"
    )


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    asyncio.run(_measure(workload, seed, seconds, trace, outcome))
    return outcome
