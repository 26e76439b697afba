"""Helpers shared by every workload: paths, statistics, process hygiene.

Importing this module does not import :mod:`repro` (only
:func:`cold_caches` does, when called): :mod:`perfbench.run` first
checks that the program's sources are present.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Every file the benchmark writes lives under this directory of the
#: checkout (results, generated inputs, temp caches, span dumps).
OUT = ROOT / ".perfbench_out"
#: Environment variable carried by every process a service run starts,
#: so leaked descendants can be found by scanning ``/proc``.
MARKER_NAME = "PERFBENCH_RUN_MARKER"
SHM_DIR = pathlib.Path("/dev/shm")
SHM_PREFIX = "repro-shm-"


#: Clock of the in-process workloads' timings: CPU seconds of this
#: process.  On a shared VM, time the vCPU is not scheduled (steal)
#: lands in wall-clock timings of single-threaded work but not in its
#: CPU time.  The service workloads keep wall time: their latency is
#: what a client waits, and their deadlines are wall-clock.
cpu_clock = time.process_time


@dataclass
class Outcome:
    """What one workload run measured.

    ``e2e`` holds the end-to-end metrics (the untraced run's result);
    ``layers`` the per-layer metrics of a traced run (names missing
    from it are layers the workload never entered: reported as 0).
    ``report`` lines are printed before the JSON result line.
    ``invalid`` names why the run must not be reported at all.
    """

    attempted: int = 0
    failed: int = 0
    checks_failed: list = field(default_factory=list)
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    report: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    invalid: str | None = None

    def fail(self, message: str) -> None:
        """Record a failed check; it counts as one failed operation."""
        self.checks_failed.append(message)
        self.failed += 1
        self.report.append(f"CHECK FAILED: {message}")

    @property
    def correct(self) -> bool:
        return not self.checks_failed


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation."""
    data = sorted(values)
    if not data:
        return float("nan")
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def per_kind_percentile(samples, q: float) -> float:
    """``q``-th percentile over operation kinds of each kind's median.

    ``samples`` is ``(kind, seconds)`` pairs from a run that repeats a
    fixed set of operation kinds.  Taking each kind's median first makes
    the statistic independent of how many repetitions fit in the run
    and of a single slow repetition, which a pooled percentile over few
    repetitions of very unequal kinds is not.
    """
    by_kind: dict = {}
    for kind, seconds in samples:
        by_kind.setdefault(kind, []).append(seconds)
    return percentile([median(values) for values in by_kind.values()], q)


def cold_caches() -> None:
    """Drop the program's process-wide model, profile and solver caches.

    In-process set-ups call this first so each repetition pays the
    solves a new process would.  The simulator's line-write model takes
    its IR model from the library's default model cache, so that cache
    is cleared too.
    """
    from repro.circuit.solvers import reset_backend_state
    from repro.xpoint import vmap

    vmap._DEFAULT_CACHE.clear()
    vmap.profile_registry.clear()
    reset_backend_state()


def self_rss_mb() -> float:
    """Peak resident set of this process (MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _status_kb(pid: int, field_name: str) -> int:
    try:
        text = pathlib.Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith(field_name + ":"):
            return int(line.split()[1])
    return 0


def process_tree(root_pid: int) -> list[int]:
    """``root_pid`` and every live descendant (via ``/proc/*/stat``)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, stack = [], [root_pid]
    while stack:
        pid = stack.pop()
        tree.append(pid)
        stack.extend(children.get(pid, ()))
    return tree


def tree_peak_rss_mb(root_pid: int) -> float:
    """Sum of per-process peak RSS (VmHWM) over a live process tree."""
    return sum(_status_kb(pid, "VmHWM") for pid in process_tree(root_pid)) / 1024.0


def marked_processes(marker: str) -> list[int]:
    """PIDs other than ours whose environment carries ``marker``."""
    needle = marker.encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            environ = pathlib.Path("/proc", entry, "environ").read_bytes()
        except OSError:
            continue
        if needle in environ:
            found.append(int(entry))
    return found


def shm_segments() -> set[str]:
    """Names of the program's shared-memory segments currently present."""
    try:
        return {p.name for p in SHM_DIR.iterdir() if p.name.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def machine() -> dict:
    """The host details recorded beside every result."""
    info = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    try:
        info["affinity_cpus"] = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        pass
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for line in pathlib.Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                info["mem_total_kb"] = int(line.split()[1])
                break
    except OSError:
        pass
    try:
        import numpy
        import scipy

        info["numpy"] = numpy.__version__
        info["scipy"] = scipy.__version__
    except ImportError:
        pass
    return info


def write_json(path: pathlib.Path, document) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True, default=str))
