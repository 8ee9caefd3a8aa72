"""Fault injection.

The paper's reliability model (Section 5.2) assumes node faults with uniform
and independent probability ``f`` and folds link faults into node faults, so
the injector has node faults only:

* **Crash faults** — the node enters ``FAILED`` and never recovers on its own.
* **Transient disconnection** — the node enters ``DISCONNECTED`` and recovers
  after a configurable downtime (the paper's "temporary disconnection" of
  mobile hosts).

Faults are injected as a :class:`FaultPlan` of timed :class:`FaultEvent`
objects: built by hand (scenario scripts and tests) or drawn by
:meth:`FaultPlan.uniform_node_faults`, which faults each node with
probability ``f`` at one instant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.sim.engine import SimulationEngine
from repro.sim.network import NodeState
from repro.sim.stats import MetricRegistry
from repro.sim.trace import TraceRecorder


class FaultKind(enum.Enum):
    """Kinds of injectable faults."""

    CRASH = "crash"
    DISCONNECT = "disconnect"
    RECONNECT = "reconnect"


@dataclass(frozen=True)
class FaultEvent:
    """A single scheduled fault.

    ``target`` is a node id.  ``duration`` only applies to DISCONNECT events
    with automatic recovery; ``None`` means no automatic recovery.
    """

    time: float
    kind: FaultKind
    target: object
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"fault time must be non-negative, got {self.time}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"fault duration must be positive, got {self.duration}")


@dataclass
class FaultPlan:
    """A reproducible collection of fault events."""

    events: List[FaultEvent] = field(default_factory=list)

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    def crash(self, node_id: str, time: float = 0.0) -> "FaultPlan":
        return self.add(FaultEvent(time=time, kind=FaultKind.CRASH, target=node_id))

    def disconnect(self, node_id: str, time: float, duration: Optional[float] = None) -> "FaultPlan":
        return self.add(
            FaultEvent(time=time, kind=FaultKind.DISCONNECT, target=node_id, duration=duration)
        )

    def sorted_events(self) -> List[FaultEvent]:
        return sorted(self.events, key=lambda e: (e.time, e.kind.value, str(e.target)))

    def __len__(self) -> int:
        return len(self.events)

    @staticmethod
    def uniform_node_faults(
        node_ids: Sequence[str],
        fault_probability: float,
        rng: np.random.Generator,
        time: float = 0.0,
    ) -> "FaultPlan":
        """Fault each node independently with probability ``fault_probability``.

        This is exactly the fault model behind the paper's Table II: uniform,
        independent node faults over the network entities of the hierarchy.
        """
        if not 0.0 <= fault_probability <= 1.0:
            raise ValueError(f"fault probability must be in [0, 1], got {fault_probability}")
        plan = FaultPlan()
        if fault_probability == 0.0:
            return plan
        draws = rng.random(len(node_ids))
        for node_id, draw in zip(node_ids, draws):
            if draw < fault_probability:
                plan.crash(node_id, time=time)
        return plan


class FaultInjector:
    """Applies fault plans to the entities' liveness table, ``down``.

    ``down`` maps each node id that is not UP to its
    :class:`repro.sim.network.NodeState`; a node absent from it is up.  The
    injector is its only writer and the transport reads it, so a run with no
    faults keeps it empty.  Protocol layers subscribe with :meth:`on_fault`
    to learn about faults as they are applied (the harness turns a crash
    into the kernel's ``fail_entity``).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        metrics: Optional[MetricRegistry] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.engine = engine
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.down: Dict[str, NodeState] = {}
        self._listeners: List[Callable[[FaultEvent], None]] = []
        self.applied: List[FaultEvent] = []

    def on_fault(self, listener: Callable[[FaultEvent], None]) -> None:
        """Register a callback invoked whenever a fault is applied."""
        self._listeners.append(listener)

    # -- applying faults ------------------------------------------------------

    def apply_plan(self, plan: FaultPlan) -> None:
        """Schedule every event of ``plan`` on the engine."""
        for event in plan.sorted_events():
            self._schedule(event)

    def _schedule(self, event: FaultEvent) -> None:
        delay = max(0.0, event.time - self.engine.now)

        def fire(_engine: SimulationEngine) -> None:
            self._apply(event)

        self.engine.schedule(delay, fire, priority=-10, label=f"fault:{event.kind.value}")

    def _apply(self, event: FaultEvent) -> None:
        target = str(event.target)
        if event.kind is FaultKind.CRASH:
            self.down[target] = NodeState.FAILED
        elif event.kind is FaultKind.DISCONNECT:
            self.down[target] = NodeState.DISCONNECTED
            if event.duration is not None:
                recover = FaultEvent(
                    time=self.engine.now + event.duration,
                    kind=FaultKind.RECONNECT,
                    target=event.target,
                )
                self._schedule(recover)
        elif event.kind is FaultKind.RECONNECT:
            # A crashed node does not silently come back; only disconnections heal.
            if self.down.get(target) is NodeState.DISCONNECTED:
                del self.down[target]
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown fault kind {event.kind}")

        self.applied.append(event)
        self.metrics.counter(f"faults.{event.kind.value}").increment()
        self.trace.record(
            self.engine.now, "fault", target, event.kind.value, duration=event.duration
        )
        for listener in self._listeners:
            listener(event)
