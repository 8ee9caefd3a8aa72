"""Fault injection.

The paper's reliability model (Section 5.2) assumes node faults with uniform
and independent probability ``f`` and folds link faults into node faults, so
the injector has node faults only:

* **Crash faults** — the node enters ``FAILED`` and never recovers on its own.
* **Transient disconnection** — the node enters ``DISCONNECTED`` and recovers
  after a configurable downtime (the paper's "temporary disconnection" of
  mobile hosts).

Faults can be injected three ways: a pre-computed :class:`FaultPlan` (used by
Monte-Carlo reliability trials where each node is faulted with probability
``f`` at time zero), scheduled individual :class:`FaultEvent` objects (used by
scenario tests), or a Poisson process of random faults over a run (used by the
churn workloads).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.sim.engine import SimulationEngine
from repro.sim.network import Network, NodeState
from repro.sim.rng import RandomStreams
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
    """Applies fault plans and random fault processes to a network.

    Protocol layers can subscribe with :meth:`on_fault` to learn about faults
    as they are applied (failure detectors in the reproduction are driven by
    timeouts, but tests use the callback to assert detection latency).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        network: Network,
        streams: RandomStreams,
        metrics: Optional[MetricRegistry] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.engine = engine
        self.network = network
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        # Each random fault *process* draws from its own named substream, so
        # generating a crash plan never shifts the disconnection schedule (or
        # any other component's draws) under the same master seed.
        self._crash_rng = streams.substream("faults", "poisson")
        self._disconnect_rng = streams.substream("faults", "transient")
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
        if event.kind is FaultKind.CRASH:
            self.network.set_node_state(str(event.target), NodeState.FAILED)
        elif event.kind is FaultKind.DISCONNECT:
            self.network.set_node_state(str(event.target), NodeState.DISCONNECTED)
            if event.duration is not None:
                recover = FaultEvent(
                    time=self.engine.now + event.duration,
                    kind=FaultKind.RECONNECT,
                    target=event.target,
                )
                self._schedule(recover)
        elif event.kind is FaultKind.RECONNECT:
            node = self.network.node(str(event.target))
            # A crashed node does not silently come back; only disconnections heal.
            if node.state is NodeState.DISCONNECTED:
                self.network.set_node_state(str(event.target), NodeState.UP)
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown fault kind {event.kind}")

        self.applied.append(event)
        self.metrics.counter(f"faults.{event.kind.value}").increment()
        self.trace.record(
            self.engine.now, "fault", str(event.target), event.kind.value, duration=event.duration
        )
        for listener in self._listeners:
            listener(event)

    # -- random fault processes --------------------------------------------------

    def poisson_crashes(
        self,
        node_ids: Sequence[str],
        rate_per_node: float,
        horizon: float,
    ) -> FaultPlan:
        """Build a plan of crash faults from a per-node Poisson process.

        ``rate_per_node`` is the expected number of crashes per node per unit
        time; each node crashes at most once (first arrival within the horizon).
        """
        if rate_per_node < 0:
            raise ValueError(f"rate must be non-negative, got {rate_per_node}")
        plan = FaultPlan()
        if rate_per_node == 0:
            return plan
        for node_id in node_ids:
            first_arrival = float(self._crash_rng.exponential(1.0 / rate_per_node))
            if first_arrival <= horizon:
                plan.crash(node_id, time=first_arrival)
        return plan

    def transient_disconnections(
        self,
        node_ids: Sequence[str],
        rate_per_node: float,
        mean_downtime: float,
        horizon: float,
    ) -> FaultPlan:
        """Plan of transient disconnections with exponential downtimes."""
        if mean_downtime <= 0:
            raise ValueError(f"mean downtime must be positive, got {mean_downtime}")
        plan = FaultPlan()
        if rate_per_node == 0:
            return plan
        for node_id in node_ids:
            t = 0.0
            while True:
                t += float(self._disconnect_rng.exponential(1.0 / rate_per_node))
                if t > horizon:
                    break
                downtime = float(self._disconnect_rng.exponential(mean_downtime))
                plan.disconnect(node_id, time=t, duration=downtime)
                t += downtime
        return plan
