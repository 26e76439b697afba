"""Span recording around the program's public functions (traced runs).

:class:`Tracer` replaces a function or method with a wrapper that times
each call and keeps a stack, so every span knows the span that caused
it and a layer's *self* time is its duration minus the part its child
spans cover.  Boundaries crossed a handful of times per operation keep
one record per call (name, start, end, parent); per-access boundaries
(the simulator's stream, pattern, controller and line-write calls) only
accumulate totals, which is what keeps tracing overhead to a fraction
of the run.  Records stay in memory until :meth:`Tracer.dump`.

Wrappers are installed only for a traced run and removed after it.
"""

from __future__ import annotations

import functools
import json
import pathlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.records: list[tuple] = []
        self._stack: list[list] = []  # [name, child_s, span_id]
        self._next_id = 0
        self._installed: list[tuple] = []

    def wrap(self, owner, attribute: str, name: str, record: bool = False) -> None:
        """Time every call of ``owner.attribute`` as span ``name``."""
        original = getattr(owner, attribute)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [name, 0.0, self._next_id]
            parent = stack[-1][2] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
                if record:
                    self.records.append((frame[2], parent, name, start, end))

        setattr(owner, attribute, wrapper)
        self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    @property
    def spans(self) -> int:
        """Every span timed, recorded or only accumulated."""
        return sum(self.calls.values())

    def dump(self, path: pathlib.Path) -> None:
        """Write the span records (one JSON object per line) and totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span_id, parent, name, start, end in self.records:
                handle.write(
                    json.dumps({"id": span_id, "parent": parent, "name": name, "start": start, "end": end})
                    + "\n"
                )
            for name in sorted(self.calls):
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "calls": self.calls[name],
                            "total_s": self.total_s[name],
                            "self_s": self.self_s[name],
                        }
                    )
                    + "\n"
                )


def obs_layers(snapshot: dict) -> dict:
    """Solver and profile-cache metrics from a ``repro.obs`` snapshot."""
    counters, spans = snapshot.get("counters", {}), snapshot.get("spans", {})

    def span_total(prefix: str) -> float:
        return sum(
            stat["total_s"] for path, stat in spans.items() if path.rsplit("/", 1)[-1].startswith(prefix)
        )

    hits, misses = counters.get("profile_cache.hit", 0), counters.get("profile_cache.miss", 0)
    solves = counters.get("solver.solves", 0)
    jobs, batches = counters.get("coalesce.jobs", 0), counters.get("coalesce.batches", 0)
    return {
        "profile_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "profile_cache.shared_hit": counters.get("profile_cache.shared_hit", 0),
        "profile_cache.duplicate_solves": counters.get("profile_cache.duplicate_solves", 0),
        "profile_cache.shm_fallbacks": counters.get("profile_cache.shm_fallbacks", 0),
        "profile.solve_s": span_total("solve.profile"),
        "solver.solves": solves,
        "solver.newton_iterations": counters.get("solver.newton_iterations", 0),
        "solver.factorisations_per_solve": counters.get("solver.factorisations", 0) / solves if solves else 0.0,
        "solver.reduced_batch_s": span_total("solve.reduced.batch"),
        "coalesce.ratio": jobs / batches if batches else 0.0,
    }
