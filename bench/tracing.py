"""Span recorder installed from outside the program.

The traced pass wraps the public entry point of each layer *at class level
and before construction* (the harness pre-binds transport methods at init,
so instance patching would miss calls) and records one span per call:
name, start, end, parent span, and the trace id the benchmark set for the
enclosing scripted batch.  Spans stay in memory; ``bench/run.py`` writes
them out when the run ends.

A layer's self time is its spans' duration minus the part their child spans
cover.  The wrappers cost about a microsecond per call, so traced numbers
are never end-to-end numbers — ``trace.overhead_share`` says by how much.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "install"]

#: Span names whose nested re-entry is one logical call (the columnar
#: kernel's ``run_round`` delegates to the object kernel's).
_ROUND = ("core.kernel.run_round", "core.columnar.run_round")


class Tracer:
    """In-memory span store with a parent stack (single-threaded)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.trace_ids: List[Optional[str]] = []
        self.trace_id: Optional[str] = None
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn: Callable, name: str) -> Callable:
        names, starts, ends = self.names, self.starts, self.ends
        parents, trace_ids, stack = self.parents, self.trace_ids, self._stack

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            trace_ids.append(self.trace_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a traced
        wrapper; :meth:`uninstall` restores the original."""
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        is_staticmethod = isinstance(original, staticmethod)
        target = original.__func__ if (is_classmethod or is_staticmethod) else original
        wrapped = self.wrap(target, name)
        if is_classmethod:
            wrapped = classmethod(wrapped)
        elif is_staticmethod:
            wrapped = staticmethod(wrapped)
        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def truncate(self, count: int) -> None:
        """Forget every span recorded after the first ``count``."""
        for spans in (self.names, self.starts, self.ends, self.parents, self.trace_ids):
            del spans[count:]

    # -- analysis ----------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                covered[parent] += durations[i]
        out: Dict[str, List[float]] = {}
        for i in range(n):
            entry = out.setdefault(self.names[i], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += durations[i]
            entry[2] += durations[i] - covered[i]
        return {name: (int(c), total, own) for name, (c, total, own) in out.items()}

    def outermost(self, group: Sequence[str]) -> Tuple[int, float]:
        """(calls, inclusive seconds) of spans in ``group`` that have no
        ancestor in the same group — nested delegation counted once."""
        members = set(group)
        calls = 0
        seconds = 0.0
        for i, name in enumerate(self.names):
            if name not in members:
                continue
            parent = self.parents[i]
            while parent >= 0 and self.names[parent] not in members:
                parent = self.parents[parent]
            if parent < 0:
                calls += 1
                seconds += self.ends[i] - self.starts[i]
        return calls, seconds

    def rounds(self) -> Tuple[int, float]:
        return self.outermost(_ROUND)

    def dump(self, path: str, workload: str, totals, max_spans: int = 100_000) -> None:
        """Write the per-name ``totals`` and the first ``max_spans`` spans."""
        origin = self.starts[0] if self.starts else 0.0
        count = min(len(self.names), max_spans)
        payload = {
            "workload": workload,
            "span_count": len(self.names),
            "spans_written": count,
            "totals": {
                name: {"calls": calls, "seconds": total, "self_seconds": own}
                for name, (calls, total, own) in sorted(totals.items())
            },
            "span_fields": ["name", "start_s", "end_s", "parent", "trace_id"],
            "spans": [
                [
                    self.names[i],
                    self.starts[i] - origin,
                    self.ends[i] - origin,
                    self.parents[i],
                    self.trace_ids[i],
                ]
                for i in range(count)
            ],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the layer table names."""
    from repro.core import columnar, hierarchy, kernel
    from repro.serving import frontend, snapshots
    from repro.sim import engine, harness, transport

    patch = tracer.patch
    patch(engine.SimulationEngine, "run", "sim.engine.run")
    patch(transport.Transport, "send", "sim.transport.send")
    patch(transport.Transport, "send_fire_and_forget", "sim.transport.send")
    patch(harness.ScenarioHarness, "_run_ring_round", "sim.harness.round")
    patch(harness.ScenarioHarness, "_on_message", "sim.harness.on_message")
    patch(hierarchy.HierarchyBuilder, "regular", "core.hierarchy.build")
    patch(kernel.TokenRoundKernel, "run_round", _ROUND[0])
    patch(kernel.TokenRoundKernel, "propagate", "core.kernel.propagate")
    patch(kernel.TokenRoundKernel, "detect_and_repair", "core.kernel.detect_and_repair")
    # Rounds repair through repair_ring directly; detect_and_repair is only
    # the notification path's way in.
    patch(kernel.TokenRoundKernel, "repair_ring", "core.kernel.repair_ring")
    patch(columnar.ColumnarKernel, "run_round", _ROUND[1])
    patch(columnar.ColumnarKernel, "propagate", "core.columnar.propagate")
    patch(columnar.ColumnarStore, "from_hierarchy", "core.columnar.store_build")
    patch(frontend.ServingFrontend, "drain", "serving.frontend.drain")
    patch(snapshots.SnapshotCache, "acquire", "serving.snapshots.acquire")
    # The frontend imported the function by name: patch the name it calls.
    patch(frontend, "tier_leader_fanout", "serving.columnar_query.fanout")
