"""Event-driven scenario harness: the kernel on top of the lossy sim stack.

Before this module, the ``sim`` layer (engine, transport, faults, mobility)
and the unified :class:`repro.core.kernel.TokenRoundKernel` were only loosely
connected: packaged scenarios stepped the kernel synchronously and the
fault/mobility machinery was unit-tested in isolation.  The harness closes
that gap:

* **Kernel rounds as events.**  Membership captures and notification
  deliveries schedule token rounds on the
  :class:`repro.sim.engine.SimulationEngine`; each round executes the
  kernel's Figure 3 state machine at its simulated time.
* **Messages through the transport.**  The kernel's
  :class:`repro.core.kernel.MessageDispatch` seam is bound to a
  :class:`TransportDispatch` that turns Notification-to-Parent/Child into
  real :class:`repro.sim.transport.Transport` messages subject to
  configurable latency and per-link loss.  Lost notifications are re-sent
  with backoff until they land (the paper's retransmission masking), so a
  lossy run converges to the same membership view as a lossless one.
  Token hops and Holder-Acknowledgements change no receiver's state, so
  they never reach the transport: the kernel counts them (``hops.token``,
  ``messages.holder_ack``).
* **Faults and mobility drive the protocol.**  A
  :class:`repro.sim.faults.FaultInjector` crash marks the entity failed in
  the kernel and lets the next token circulation *discover* it — the
  kernel's ring-repair surgery runs, instead of being simulated around.
  Mobility arrives as timed join/handoff/leave captures.

Every scenario-matrix cell (:mod:`repro.workloads.matrix`) composes against
this harness instead of hand-rolling a driver.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.config import ProtocolConfig
from repro.core.delivery import Notification, ReliableNotifier
from repro.core.events import MembershipEventBus
from repro.core.hierarchy import HierarchyBuilder, RingHierarchy, paused_gc
from repro.core.identifiers import NodeId, coerce_node
from repro.core.kernel import (
    KERNEL_BACKENDS,
    MessageDispatch,
    TokenRoundKernel,
    create_kernel,
)
from repro.core.member import MemberInfo
from repro.core.partition import PartitionReport, detect_partitions
from repro.core.token import TokenOperation
from repro.sim.engine import SimulationEngine
from repro.sim.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.sim.network import LatencyModel, Network, NetworkNode
from repro.sim.rng import RandomStreams
from repro.sim.stats import MetricRegistry, RunRecord
from repro.sim.trace import TraceRecorder
from repro.sim.transport import Message, Transport

#: Wire tag of the harness's one message class.
MSG_NOTIFY = "rgb.notify"


class HarnessError(RuntimeError):
    """Raised for invalid harness configuration or usage."""


@dataclass(frozen=True)
class HarnessConfig:
    """Configuration of one :class:`ScenarioHarness` run.

    Parameters
    ----------
    ring_size, height:
        Shape of the regular hierarchy (``ring_size ** height`` access
        proxies), the paper's analytical topology.  Unused when the harness
        is handed the hierarchy to run over.
    seed:
        Master seed for every named random stream of the run.
    loss:
        Per-link message loss probability (each logical edge of the harness
        network is one link; leader→parent paths are usually one link).
    latency_mean, latency_std:
        Per-link delay distribution.  ``latency_std=0`` makes delays
        deterministic, which the golden-trace suite relies on.
    resend_limit, resend_backoff:
        Dispatch-level reliability: how often (and how spaced) an undelivered
        notification is re-sent before the harness re-routes or gives up.
    round_delay:
        Delay between an entity's queue becoming non-empty and the token
        round that drains it (the event-driven analogue of the structural
        engine's immediate round).
    crash_detection_delay:
        How long after an entity crash the perpetually circulating token is
        assumed to notice it (schedules a probe round in the crashed
        entity's ring).
    protocol:
        Kernel tunables.
    trace_enabled:
        Structured trace recording (golden-trace tests switch this on).
    record_sends:
        Keep the first and most recent dispatched notification per member so
        :meth:`ScenarioHarness.schedule_injection` can re-deliver them
        (duplicate/stale replay adversaries).  Off by default: recording
        never changes protocol behaviour, but the bookkeeping is wasted
        unless a scenario injects replays.
    backend:
        Kernel implementation (``"object"`` or ``"columnar"``); both produce
        bit-identical protocol state.  The columnar backend adds dense
        per-ring lists and a fast path for rounds that provably change no
        membership view, which pays at large scale.
    """

    ring_size: int = 4
    height: int = 2
    seed: int = 0
    loss: float = 0.0
    latency_mean: float = 2.0
    latency_std: float = 0.5
    resend_limit: int = 25
    resend_backoff: float = 20.0
    round_delay: float = 1.0
    crash_detection_delay: float = 5.0
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    trace_enabled: bool = False
    record_sends: bool = False
    backend: str = "object"

    def __post_init__(self) -> None:
        if self.backend not in KERNEL_BACKENDS:
            raise HarnessError(
                f"unknown kernel backend {self.backend!r}; expected one of "
                f"{KERNEL_BACKENDS}"
            )
        if self.ring_size < 2:
            raise HarnessError(f"ring_size must be >= 2, got {self.ring_size}")
        if self.height < 1:
            raise HarnessError(f"height must be >= 1, got {self.height}")
        if not 0.0 <= self.loss < 1.0:
            raise HarnessError(f"loss must be in [0, 1), got {self.loss}")
        if self.resend_limit < 0:
            raise HarnessError(f"resend_limit must be >= 0, got {self.resend_limit}")
        if self.round_delay <= 0 or self.resend_backoff <= 0:
            raise HarnessError("round_delay and resend_backoff must be positive")

    @property
    def num_proxies(self) -> int:
        return self.ring_size ** self.height


@dataclass
class HarnessResult:
    """Outcome summary of one harness run."""

    sim_time: float
    dispatched_events: int
    converged: bool
    ring_agreement: bool
    membership: int
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Full propagation: every queue drained and sampled rings agree."""
        return self.converged and self.ring_agreement


class TransportDispatch(MessageDispatch):
    """Kernel dispatch that routes notifications over the transport.

    Notifications are *reliable within a budget*; the rules (resend until the
    receiving handler confirms insertion, reroute when an endpoint crashed,
    give up after ``resend_limit`` attempts at a live target) are the shared
    :class:`repro.core.delivery.ReliableNotifier`, ``notifier``.  Here is only
    what is the simulator's: the ``transport.send`` call with its ``no-path``
    recovery link, and the arrival-time-plus-backoff wait.
    """

    def __init__(self, harness: "ScenarioHarness") -> None:
        self.harness = harness

    def bind(self, kernel: TokenRoundKernel) -> None:
        """Create the delivery core (the kernel it acts on is itself
        constructed with this dispatch, so it arrives second)."""
        harness = self.harness
        engine = harness.engine
        self.notifier = ReliableNotifier(
            kernel,
            harness.metrics,
            now=lambda: engine.now,
            send=self._send,
            arm=self._arm,
            schedule_round=harness._schedule_round,
            resend_limit=harness.config.resend_limit,
        )

    # -- MessageDispatch interface ------------------------------------------

    def deliver_notification(
        self,
        kernel: TokenRoundKernel,
        sender: NodeId,
        target: NodeId,
        operations: Sequence[TokenOperation],
        now: float,
    ) -> None:
        entry = self.notifier.notification(sender, target, operations)
        if self.harness.config.record_sends:
            self.harness._record_sends(entry)
        self.notifier.submit(entry)

    # -- the notifier's transport -------------------------------------------

    def _send(self, notify_id: int, entry: Notification) -> float:
        harness = self.harness
        source, destination = str(entry.sender), str(entry.target)
        payload = {"dispatch_id": notify_id, "sender": source, "operations": entry.operations}
        receipt = harness.transport.send(source, destination, MSG_NOTIFY, payload)
        if not receipt.accepted and receipt.reason == "no-path":
            # The minimal link graph lost its route (e.g. repair re-attached a
            # ring under a new parent).  The underlying IP network routes
            # anywhere, so materialise a recovery link and retry immediately.
            harness._ensure_link(source, destination)
            receipt = harness.transport.send(source, destination, MSG_NOTIFY, payload)
        if receipt.accepted and receipt.expected_delivery is not None:
            return (receipt.expected_delivery - harness.engine.now) + harness.config.resend_backoff
        return harness.config.resend_backoff

    def _arm(self, delay: float, callback: Callable[[], None]) -> None:
        # Returns no handle: an acknowledged check must still fire (as a
        # no-op) — the engine's event count is in every record fingerprint.
        self.harness.engine.schedule(delay, lambda _engine: callback(), label="notify-check")

    def on_delivered(self, message: Message) -> None:
        """A notify message arrived, which is its acknowledgement: it pops
        the sender's pending entry (finding nothing means a duplicate)."""
        dispatch_id = message.payload.get("dispatch_id")
        entry = self.notifier.acknowledge(int(dispatch_id)) if dispatch_id is not None else None
        if entry is not None:
            self.notifier.accept(entry)


@dataclass(frozen=True)
class TopologySnapshot:
    """A frozen, fully built ring hierarchy for one shape.

    ``payload`` pickles the :class:`RingHierarchy` exactly as a fresh
    :class:`ScenarioHarness` would build it.  Rehydrating (``pickle.loads``)
    hands each cell its own private, mutable copy — identical to a fresh
    build bit for bit (interned identifiers re-intern on load) — so a matrix
    sweep builds each distinct shape once instead of once per loss-rate ×
    scenario cell.  Entity states and the link network are deliberately *not*
    frozen: they derive deterministically from the hierarchy through bulk
    paths that are faster than unpickling their object graphs, so each cell
    rebuilds them from its rehydrated hierarchy.

    Invalidation rules: a snapshot is keyed by ``(ring_size, height)`` only,
    because everything else a cell varies (loss, latency, seed, scenario,
    trace) lives outside the pickled state — the network is built per cell
    with the cell's latency model and all RNG draws happen after rehydration.
    Anything that changes the *built structure* (builder logic, ring layout)
    invalidates by construction: snapshots are process-local, never persisted
    to disk, and rebuilt on first use by every new process.  A cell on the
    columnar backend builds its store from the rehydrated hierarchy, like a
    fresh cell.
    """

    ring_size: int
    height: int
    payload: bytes


def build_topology_snapshot(ring_size: int, height: int) -> TopologySnapshot:
    """Build one harness hierarchy and freeze it for reuse across cells."""
    with paused_gc():
        hierarchy = HierarchyBuilder("harness").regular(ring_size=ring_size, height=height)
        payload = pickle.dumps(hierarchy, protocol=pickle.HIGHEST_PROTOCOL)
    return TopologySnapshot(ring_size=ring_size, height=height, payload=payload)


def _build_harness_network(hierarchy: RingHierarchy, latency: LatencyModel) -> Network:
    """One network node per hierarchy entity; links mirror the logical
    edges the protocol uses (ring circulation + member↔parent)."""
    network = Network()
    bottom = hierarchy.bottom_tier()
    top = hierarchy.top_tier()
    for ring in hierarchy.rings.values():
        kind = "AP" if ring.tier == bottom else ("BR" if ring.tier == top else "AG")
        network.add_nodes(
            NetworkNode(node_id=node.value, kind=kind, tier=ring.tier)
            for node in ring.members
        )
    links: List[Tuple[str, str, LatencyModel]] = []
    have = set()
    link_key = Network._link_key
    for ring_id, ring in hierarchy.rings.items():
        members = ring.members
        if len(members) > 1:
            for index, node in enumerate(members):
                succ = members[(index + 1) % len(members)]
                key = link_key(node.value, succ.value)
                if key not in have:
                    have.add(key)
                    links.append((node.value, succ.value, latency))
        parent = hierarchy.parent_node.get(ring_id)
        if parent is not None:
            for node in members:
                key = link_key(parent.value, node.value)
                if key not in have:
                    have.add(key)
                    links.append((parent.value, node.value, latency))
    network.add_links(links)
    return network


class ScenarioHarness:
    """Drives the token-round kernel through the discrete-event sim stack.

    The hierarchy to run over is the config's regular shape, built fresh,
    unless the caller supplies it: ``snapshot`` is a
    :class:`TopologySnapshot` of the same shape, rehydrated instead of
    rebuilt — observable behaviour is bit-identical either way (pinned by
    ``tests/test_bulk_build.py``) — and ``hierarchy`` is any ring hierarchy
    the harness then owns (the ``RGBSimulation`` facade's topology-derived
    one).
    """

    def __init__(
        self,
        config: Optional[HarnessConfig] = None,
        snapshot: Optional[TopologySnapshot] = None,
        hierarchy: Optional[RingHierarchy] = None,
    ) -> None:
        self.config = config if config is not None else HarnessConfig()
        cfg = self.config
        self.streams = RandomStreams(cfg.seed)
        self.metrics = MetricRegistry()
        self.trace = TraceRecorder(enabled=cfg.trace_enabled)
        self.event_bus = MembershipEventBus()
        self.engine = SimulationEngine()

        with paused_gc():
            if snapshot is not None:
                if hierarchy is not None:
                    raise HarnessError("pass a snapshot or a hierarchy, not both")
                if (snapshot.ring_size, snapshot.height) != (cfg.ring_size, cfg.height):
                    raise HarnessError(
                        f"snapshot shape r={snapshot.ring_size} h={snapshot.height} does "
                        f"not match config r={cfg.ring_size} h={cfg.height}"
                    )
                hierarchy = pickle.loads(snapshot.payload)
            elif hierarchy is None:
                hierarchy = HierarchyBuilder("harness").regular(
                    ring_size=cfg.ring_size, height=cfg.height
                )
            self.hierarchy: RingHierarchy = hierarchy
            states = hierarchy.build_entity_states()
            self._latency = LatencyModel(
                mean=cfg.latency_mean,
                std=cfg.latency_std,
                loss=cfg.loss,
            )
            self.network = _build_harness_network(hierarchy, self._latency)
        self.transport = Transport(
            self.engine,
            self.network,
            self.streams,
            metrics=self.metrics,
            trace=self.trace,
        )
        self.dispatch = TransportDispatch(self)
        self.kernel = create_kernel(
            self.hierarchy,
            backend=cfg.backend,
            config=cfg.protocol,
            metrics=self.metrics,
            event_bus=self.event_bus,
            trace=self.trace,
            dispatch=self.dispatch,
            entities=states,
            entities_pristine=True,
        )
        self.dispatch.bind(self.kernel)
        self.faults = FaultInjector(
            self.engine,
            self.network,
            self.streams,
            metrics=self.metrics,
            trace=self.trace,
        )
        self.faults.on_fault(self._on_fault)
        for node_id in self.kernel.entities:
            self.transport.register(str(node_id), self._on_message)

        self._round_scheduled: Set[str] = set()
        self._member_counter = 0
        # Per-member dispatched-notification log (record_sends only): the
        # first and the most recent send mentioning each member, as
        # single-operation pending entries ready to re-transmit.
        self._first_sends: Dict[str, Notification] = {}
        self._last_sends: Dict[str, Notification] = {}
        self._c_rounds = self.metrics.counter("harness.rounds")
        # Round-commit listeners (the serving layer's interleave seam):
        # called after every kernel round with (ring_id, sim_now), i.e. at
        # the exact point where membership views may have changed.
        self._round_listeners: List[Callable[[str, float], None]] = []
        # Partition counts recorded by schedule_partition_probe, in time order.
        self.partition_probes: List[int] = []

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _ensure_link(self, a: str, b: str) -> None:
        if not self.network.has_link(a, b):
            self.network.add_link(a, b, self._latency)
            self.metrics.counter("harness.recovery_links").increment()

    # ------------------------------------------------------------------
    # structural information
    # ------------------------------------------------------------------

    def access_proxies(self) -> List[str]:
        return [str(n) for n in self.hierarchy.access_proxies()]

    def ring_neighbor_map(self) -> Dict[str, List[str]]:
        """AP → other members of its bottom ring (handoff-storm locality)."""
        out: Dict[str, List[str]] = {}
        for ring in self.hierarchy.bottom_rings():
            for node in ring.members:
                out[node.value] = [m.value for m in ring.members if m != node]
        return out

    def operational_entities(self) -> List[NodeId]:
        """Entities that are up at both the kernel and the network level."""
        failed = self.kernel.failed
        out = []
        for node in self.kernel.entities:
            if node in failed:
                continue
            if self.network.has_node(node.value) and not self.network.node(node.value).is_operational:
                continue
            out.append(node)
        return out

    def global_membership(self) -> List[MemberInfo]:
        leader = self.hierarchy.topmost_ring().leader
        if leader is None:
            raise HarnessError("topmost ring has no leader")
        return self.kernel.entity(leader).ring_members.members()

    def global_guids(self) -> List[str]:
        return sorted(str(m.guid) for m in self.global_membership())

    def ring_agreement(self, verify_rings: Optional[int] = None) -> bool:
        """Every operational member of (sampled) rings holds the same view."""
        ring_ids = sorted(self.hierarchy.rings)
        if verify_rings is not None and verify_rings < len(ring_ids):
            stride = max(1, len(ring_ids) // verify_rings)
            ring_ids = ring_ids[::stride][:verify_rings]
        failed = self.kernel.failed
        for ring_id in ring_ids:
            views = [
                self.kernel.entity(node).ring_members
                for node in self.hierarchy.ring(ring_id).members
                if node not in failed
            ]
            if len(views) <= 1:
                continue
            first = views[0]
            if not all(first.agrees_with(view) for view in views[1:]):
                return False
        return True

    def partition_report(self) -> PartitionReport:
        return detect_partitions(self.hierarchy, self.operational_entities())

    # ------------------------------------------------------------------
    # timed workload scheduling
    # ------------------------------------------------------------------

    def schedule_join(self, time: float, ap: str, guid: Optional[str] = None) -> str:
        if guid is None:
            guid = f"member-{self._member_counter:06d}"
            self._member_counter += 1
        self.engine.schedule_at(
            time, lambda _e: self.capture_join(ap, guid), label=f"join:{guid}"
        )
        return guid

    def schedule_leave(self, time: float, guid: str) -> None:
        self.engine.schedule_at(time, lambda _e: self.capture_leave(guid), label=f"leave:{guid}")

    def schedule_failure(self, time: float, guid: str) -> None:
        self.engine.schedule_at(
            time, lambda _e: self.capture_member_failure(guid), label=f"fail:{guid}"
        )

    def schedule_handoff(self, time: float, guid: str, to_ap: str) -> None:
        self.engine.schedule_at(
            time, lambda _e: self.capture_handoff(guid, to_ap), label=f"handoff:{guid}"
        )

    def schedule_crash(self, time: float, node_id: str) -> None:
        """Crash a network entity through the fault injector at ``time``."""
        self.faults.apply_plan(FaultPlan().crash(node_id, time=time))

    def schedule_fault_plan(self, plan: FaultPlan) -> None:
        self.faults.apply_plan(plan)

    def schedule_injection(self, time: float, kind: str, member: str) -> None:
        """Re-deliver a recorded dispatch message about ``member`` at ``time``.

        ``kind="duplicate"`` re-transmits the most recent notification that
        mentioned the member (the network delivering the same message twice);
        ``kind="stale"`` re-transmits the *first* one — typically the
        member's original join, the classic resurrection hazard when it
        arrives after the member's leave already circulated.  Requires
        ``record_sends`` in the config; an injection with nothing recorded is
        counted (``harness.injections_skipped``), never silently dropped.
        """
        if kind not in ("duplicate", "stale"):
            raise HarnessError(f"unknown injection kind {kind!r}")
        if not self.config.record_sends:
            raise HarnessError("schedule_injection requires HarnessConfig(record_sends=True)")
        self.engine.schedule_at(
            time, lambda _e: self._inject_replay(kind, member), label=f"inject-{kind}:{member}"
        )

    def schedule_partition_probe(self, time: float) -> None:
        """Append the partition count at ``time`` to ``partition_probes``."""
        self.engine.schedule_at(
            time,
            lambda _e: self.partition_probes.append(self.partition_report().count),
            label="probe:partitions",
        )

    # ------------------------------------------------------------------
    # capture handlers (run at their simulated times, or called directly to
    # capture now): the kernel's capture verbs plus the ring's round; each
    # returns the captured member record, or ``None`` when the kernel skips
    # the capture
    # ------------------------------------------------------------------

    def capture_join(self, ap: "NodeId | str", guid: str) -> Optional[MemberInfo]:
        return self._captured(self.kernel.join(ap, guid, now=self.engine.now))

    def capture_leave(self, guid: str) -> Optional[MemberInfo]:
        return self._captured(self.kernel.leave(guid, now=self.engine.now))

    def capture_member_failure(self, guid: str) -> Optional[MemberInfo]:
        return self._captured(self.kernel.fail_member(guid, now=self.engine.now))

    def capture_handoff(self, guid: str, to_ap: "NodeId | str") -> Optional[MemberInfo]:
        return self._captured(self.kernel.handoff(guid, to_ap, now=self.engine.now))

    def _captured(self, op: Optional[TokenOperation]) -> Optional[MemberInfo]:
        if op is None:
            return None
        self._schedule_round(self.hierarchy.ring_of(op.origin).ring_id)
        return op.member

    # ------------------------------------------------------------------
    # message and fault handling
    # ------------------------------------------------------------------

    def _record_sends(self, pending: Notification) -> None:
        """Log the send per mentioned member (record_sends only).

        Each entry is narrowed to the single operation about that member, so
        a replay re-delivers exactly the adversarial message, not whatever
        else happened to share the original notification.
        """
        for op in pending.operations:
            if op.member is None:
                continue
            entry = replace(pending, operations=(op,))
            key = str(op.member.guid)
            self._first_sends.setdefault(key, entry)
            self._last_sends[key] = entry

    def _inject_replay(self, kind: str, member: str) -> None:
        """Re-transmit the recorded first/last send about ``member`` now.

        The replayed copy goes through the ordinary dispatch machinery —
        transport loss, resends, reroute on a dead endpoint — and lands in
        the notifier's ``accept``, where the kernel's per-member sequence
        watermark (:func:`repro.core.kernel.stale_for`) must absorb it.
        """
        record = (self._first_sends if kind == "stale" else self._last_sends).get(member)
        if record is None:
            self.metrics.counter("harness.injections_skipped").increment()
            return
        self.metrics.counter(f"harness.injections_{kind}").increment()
        self.dispatch.notifier.submit(replace(record))

    def _on_message(self, message: Message) -> None:
        # A NOTIFY is the only message the harness sends.
        self.dispatch.on_delivered(message)

    def _on_fault(self, event: FaultEvent) -> None:
        if event.kind is not FaultKind.CRASH:
            return  # disconnections/link faults act purely at the network level
        key = coerce_node(str(event.target))
        if key not in self.kernel.entities or key in self.kernel.failed:
            return
        if not self.hierarchy.has_node(key):
            return
        ring_id = self.hierarchy.ring_of(key).ring_id
        self.kernel.fail_entity(key, now=self.engine.now)
        # The perpetually circulating token notices the silent crash within a
        # circulation: schedule a probe round that walks the ring and repairs.
        self._schedule_round(ring_id, delay=self.config.crash_detection_delay)

    # ------------------------------------------------------------------
    # round scheduling
    # ------------------------------------------------------------------

    def add_round_listener(self, listener: Callable[[str, float], None]) -> None:
        """Register a callback fired after every committed kernel round.

        A probe seam for tests and benchmarks.  Rounds are *not* the only
        points where membership views change — a handoff's capture updates
        the old proxy's lists directly, and repair can run outside a round —
        so nothing that needs to see every change may hang here (the serving
        layer reads the mutation-site ``GENERATION`` instead).
        """
        self._round_listeners.append(listener)

    def schedule_call(self, time: float, fn: Callable[[], None], label: str = "call") -> None:
        """Schedule an arbitrary callback at an absolute sim time.

        The query-interleave seam: a load generator schedules its query
        batches between the churn events already on the wheel, so reads and
        writes share one simulated clock.
        """
        self.engine.schedule_at(time, lambda _e: fn(), label=label)

    def serving_frontend(self, intermediate_tier: Optional[int] = None):
        """A :class:`repro.serving.frontend.ServingFrontend` over this harness.

        Convenience constructor: the frontend routes per-scheme queries
        against the kernel (columnar sweeps when the backend supports them,
        object walk otherwise).  Imported lazily to keep the sim layer
        import-light.
        """
        from repro.serving.frontend import ServingFrontend

        return ServingFrontend(self, intermediate_tier=intermediate_tier)

    def _schedule_round(self, ring_id: str, delay: Optional[float] = None) -> None:
        if ring_id in self._round_scheduled:
            return
        self._round_scheduled.add(ring_id)
        self.engine.schedule(
            self.config.round_delay if delay is None else delay,
            lambda _e: self._run_ring_round(ring_id),
            label=f"round:{ring_id}",
        )

    def _run_ring_round(self, ring_id: str) -> None:
        self._round_scheduled.discard(ring_id)
        notifier = self.dispatch.notifier
        if not notifier.round_due(ring_id):
            return
        self.kernel.run_round(ring_id, now=self.engine.now)
        self._c_rounds.increment()
        for listener in self._round_listeners:
            listener(ring_id, self.engine.now)
        notifier.after_round(ring_id)

    @property
    def dead_letters(self) -> List[Notification]:
        """Dead-lettered notifications still awaiting a usable fallback."""
        return self.dispatch.notifier.dead_letters

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def counter_values(self) -> Dict[str, int]:
        """Snapshot of every metric counter (name → value).

        The protocol-driver seam (:mod:`repro.baselines.driver`) measures
        per-change costs as deltas between two snapshots.
        """
        return {name: c.value for name, c in sorted(self.metrics.counters.items())}

    def run(self, until: Optional[float] = None) -> HarnessResult:
        """Drive the engine until quiescence (or ``until``) and summarise."""
        self.engine.run(until=until)
        # A crash landing after the last workload event can leave repair work
        # queued with no future event; sweep until genuinely quiescent.  The
        # sweep also re-offers dead-lettered notifications whose fallback a
        # late repair may have restored.
        while self.engine.pending() == 0 and (
            self._kick_pending_rings() or self.dispatch.notifier.retry_dead_letters()
        ):
            self.engine.run(until=until)
        counters = self.counter_values()
        return HarnessResult(
            sim_time=self.engine.now,
            dispatched_events=self.engine.dispatched_events,
            converged=self.converged(),
            ring_agreement=self.ring_agreement(verify_rings=50),
            membership=len(self.global_membership()),
            counters=counters,
        )

    def _kick_pending_rings(self) -> bool:
        kicked = False
        for ring_id in self.kernel.pending_rings():
            self._schedule_round(ring_id)
            kicked = True
        return kicked

    def converged(self) -> bool:
        """No operational entity has queued work and no events are pending."""
        return self.engine.pending() == 0 and not self.kernel.pending_rings()

    def run_record(
        self, name: str, extra_values: Optional[Mapping[str, float]] = None, **params: object
    ) -> RunRecord:
        """Package the run's metrics as a :class:`repro.sim.stats.RunRecord`.

        ``extra_values`` lets callers fold in their own measurements (wall
        time, verdicts) so the record is complete at construction — it is
        frozen and must not be mutated afterwards.
        """
        values = {
            "sim_time": self.engine.now,
            "events": float(self.engine.dispatched_events),
            "membership": float(len(self.global_membership())),
        }
        if extra_values:
            values.update({k: float(v) for k, v in dict(extra_values).items()})
        return RunRecord.from_registry(
            name,
            self.metrics,
            params=dict(params, seed=self.config.seed, loss=self.config.loss,
                        proxies=self.config.num_proxies),
            values=values,
        )
