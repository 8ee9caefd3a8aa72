"""The unified token-round kernel (paper Section 4.3, Figure 3).

The single, transport-agnostic state machine of the One-Round Token Passing
protocol; round, notification and acknowledgement semantics live here and
nowhere else, and every driver steps this module:

* **capture verbs** — ``join`` / ``leave`` / ``fail_member`` / ``handoff``
  own each member's location and epoch (one table), the capturable check,
  sequence and epoch assignment, the old proxy's unregister on a handoff and
  the skip count; plus record lookup and the failure operations emitted by
  ring repair;
* **round orchestration** — queue draining with child-sender tracking, token
  circulation order, ``RingOK``/``ParentOK`` gating, Notification-to-Parent /
  Notification-to-Child routing, Holder-Acknowledgement targets and per-ring
  seen-set dedup ("at most one membership change message propagated along a
  ring");
* **batched application** — each round compiles its aggregated operations into
  one :class:`repro.core.deltas.MembershipDelta` and applies it to every
  visited entity in a single set-based pass (the seed's per-operation path
  lives with the tests, in ``tests/reference/per_op.py``, as the reference
  semantics and the ablation baseline);
* **coverage and repair** — ancestor-chain coverage verdicts (the seed
  materialised a coverage set per ring, O(proxies × height) in all) and the
  hierarchy surgery shared by both repair paths.

The drivers stay thin: :class:`repro.core.one_round.OneRoundEngine` steps the
kernel synchronously (shared memory, zero latency), while the scenario
harness (:mod:`repro.sim.harness`, also behind the ``RGBSimulation`` facade)
and the live UDP node bind the :class:`MessageDispatch` seam to their
transports — sharing one reliable-notification implementation,
:mod:`repro.core.delivery`.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.config import TOKEN_RETRY_LIMIT, ProtocolConfig
from repro.core.deltas import MembershipDelta
from repro.core.entity import NetworkEntityState
from repro.core.events import MembershipEventBus
from repro.core.hierarchy import RingHierarchy, paused_gc
from repro.core.identifiers import (
    GloballyUniqueId,
    NodeId,
    coerce_guid,
    coerce_node,
)
from repro.core.member import MemberInfo, MemberStatus
from repro.core.membership import _EMPTY_STORE, MembershipEvent, event_type_for
from repro.core.ring import LogicalRing
from repro.core.token import Token, TokenOperation, TokenOperationType
from repro.sim.stats import MetricRegistry
from repro.sim.trace import TraceRecorder


#: A member the kernel has never captured: no location, epoch 0.
_UNPLACED: Tuple[Optional[NodeId], int] = (None, 0)


class ProtocolError(RuntimeError):
    """Raised for invalid protocol-level requests."""


def stale_for(applied: Optional[Mapping[str, int]], op: TokenOperation) -> bool:
    """The one copy of the staleness rule.

    ``applied`` is a ring's per-member sequence high-water-mark map (may be
    ``None``/empty); hot paths hoist the map lookup and call this per op.
    An operation is stale when the ring already circulated *this very
    operation or a newer one* about the same member — sequences are globally
    monotonic in capture order, so a lower-sequence operation arriving late
    (reordered by loss + resend) must not supersede the member's most recent
    state.  Same-sequence re-deliveries (a downward dissemination looping
    back to the ring that applied the op, a duplicate after a lost ack) are
    equally stale: re-admitting an already-applied operation into a queue
    lets the aggregation rules collapse it against a *genuinely new* later
    operation about the member — a disseminated join copy would annihilate a
    fresh leave, and the departure would silently never propagate.
    """
    if not applied:
        return False
    member = op.member
    return member is not None and op.sequence <= applied.get(member.guid.value, 0)


class _RingDirtyMarker:
    """Bound ``on_enqueue`` hook: marks one ring as having queued work.

    The columnar backend additionally wires ``_hints``/``_hint_idx`` (see
    ``ColumnarStore.ring_work_hint``): every enqueue then degrades the
    ring's work hint to "unknown" so a stale "no work"/"only position p"
    claim can never survive an insert.  Unwired (object-kernel) markers pay
    one attribute read and a falsy test per enqueue.
    """

    __slots__ = ("_add", "_ring_id", "_hints", "_hint_idx")

    def __init__(self, add, ring_id: str) -> None:
        self._add = add
        self._ring_id = ring_id
        self._hints: Optional[List[int]] = None
        self._hint_idx = -1

    def __call__(self) -> None:
        self._add(self._ring_id)
        hints = self._hints
        if hints is not None:
            hints[self._hint_idx] = -2


class MessageDispatch:
    """Seam through which the kernel emits Notification-to-Parent/Child.

    The kernel decides *what* travels (which operations are fresh for a ring,
    and to whom); the dispatch decides *how* it travels.  The default
    :class:`DirectDispatch` delivers synchronously in shared memory — the
    seed's structural semantics — while the event-driven scenario harness
    (:mod:`repro.sim.harness`) and the live node (:mod:`repro.runtime.dispatch`)
    inject dispatches that turn the same decisions into messages subject to
    latency, loss and retries.

    Notifications are the only messages that travel.  A token hop or a
    Holder-Acknowledgement changes no receiver's state, so the kernel only
    counts them (``hops.token``, ``messages.holder_ack``) and no dispatch
    sees them.
    """

    def deliver_notification(
        self,
        kernel: "TokenRoundKernel",
        sender: NodeId,
        target: NodeId,
        operations: Sequence[TokenOperation],
        now: float,
    ) -> None:
        """Deliver a Notification-to-Parent/Child into ``target``'s queue."""
        raise NotImplementedError


class DirectDispatch(MessageDispatch):
    """Shared-memory delivery: the seed's synchronous structural semantics."""

    def deliver_notification(
        self,
        kernel: "TokenRoundKernel",
        sender: NodeId,
        target: NodeId,
        operations: Sequence[TokenOperation],
        now: float,
    ) -> None:
        target_entity = kernel.entity(target)
        for op in operations:
            target_entity.mq.insert(op, sender=sender, now=now)


@dataclass
class RoundResult:
    """Outcome of one token round in one ring."""

    ring_id: str
    holder: NodeId
    operations: Tuple[TokenOperation, ...]
    token_hops: int = 0
    notify_hops: int = 0
    ack_hops: int = 0
    retransmissions: int = 0
    visited: List[NodeId] = field(default_factory=list)
    repaired: List[NodeId] = field(default_factory=list)
    events: List[MembershipEvent] = field(default_factory=list)

    @property
    def hop_count(self) -> int:
        """Hops counted the way the paper's Section 5.1 model counts them."""
        return self.token_hops + self.notify_hops


@dataclass
class PropagationReport:
    """Aggregate outcome of :meth:`TokenRoundKernel.propagate`."""

    rounds: List[RoundResult] = field(default_factory=list)

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    @property
    def token_hops(self) -> int:
        return sum(r.token_hops for r in self.rounds)

    @property
    def notify_hops(self) -> int:
        return sum(r.notify_hops for r in self.rounds)

    @property
    def ack_hops(self) -> int:
        return sum(r.ack_hops for r in self.rounds)

    @property
    def retransmissions(self) -> int:
        return sum(r.retransmissions for r in self.rounds)

    @property
    def hop_count(self) -> int:
        """Token hops plus notification hops (the paper's HopCount)."""
        return self.token_hops + self.notify_hops

    @property
    def events(self) -> List[MembershipEvent]:
        out: List[MembershipEvent] = []
        for r in self.rounds:
            out.extend(r.events)
        return out

    @property
    def repaired(self) -> List[NodeId]:
        out: List[NodeId] = []
        for r in self.rounds:
            out.extend(r.repaired)
        return out


class TokenRoundKernel:
    """Transport-agnostic execution core of the RGB membership protocol.

    Parameters
    ----------
    hierarchy:
        The ring-based hierarchy to run over.  The kernel mutates it when it
        repairs rings after entity failures.
    config, metrics, event_bus, trace:
        Protocol tunables and shared instrumentation.
    entities:
        Per-entity local state.  Built from the hierarchy when not supplied;
        the scenario harness and the live node pass states they bulk-built
        themselves (see ``entities_pristine``).
    dispatch:
        The :class:`MessageDispatch` seam through which notifications leave
        an entity.
        Defaults to :class:`DirectDispatch` (synchronous shared-memory
        delivery); the scenario harness injects a transport-backed dispatch.
    entities_pristine:
        Promise that the supplied ``entities`` dict came straight from
        :meth:`RingHierarchy.build_entity_states` for this hierarchy (exact
        (ring, member) iteration order, empty queues, no external
        references): the kernel then takes ownership without copying and
        wires queue hooks through the same lockstep fast path it uses for
        states it builds itself.  The snapshot-rehydration path sets this.
    """

    def __init__(
        self,
        hierarchy: RingHierarchy,
        config: Optional[ProtocolConfig] = None,
        metrics: Optional[MetricRegistry] = None,
        event_bus: Optional[MembershipEventBus] = None,
        trace: Optional[TraceRecorder] = None,
        entities: Optional[Mapping[NodeId, NetworkEntityState]] = None,
        dispatch: Optional[MessageDispatch] = None,
        entities_pristine: bool = False,
    ) -> None:
        self.hierarchy = hierarchy
        self.dispatch = dispatch if dispatch is not None else DirectDispatch()
        self.config = config if config is not None else ProtocolConfig()
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.event_bus = event_bus if event_bus is not None else MembershipEventBus()
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        built_in_house = entities is None
        with paused_gc():
            if built_in_house:
                self.entities: Dict[NodeId, NetworkEntityState] = (
                    hierarchy.build_entity_states()
                )
            elif entities_pristine and isinstance(entities, dict):
                self.entities = entities
            else:
                entities_pristine = False
                self.entities = dict(entities)
            # Rings with (potentially) pending queued work.  Maintained through
            # the per-queue on_enqueue hook so *any* insert — kernel, dispatch,
            # harness or test code — marks the owning ring; pending_rings() then
            # verifies only these candidates instead of scanning every queue of
            # every ring per sweep (quadratic pain at 100k+ proxies).
            self._dirty_rings: Set[str] = set()
            dirty_add = self._dirty_rings.add
            # Ring-wise wiring: one shared marker per ring (it closes over the
            # ring id only) instead of one per entity, and no per-node
            # ring-of-node probe — at a million proxies the per-entity variant
            # allocated a million markers just to say the same ring id.
            aggregate = self.config.aggregate_mq
            entities_map = self.entities
            if built_in_house or entities_pristine:
                # Freshly bulk-built states come back in exact (ring, member)
                # iteration order with pristine (unmaterialised, empty) queues:
                # wire hooks by walking the two sequences in lockstep — zero
                # per-node identifier-keyed probes, no queue materialisation.
                entity_iter = iter(entities_map.values())
                if aggregate:
                    # True is the lazy default already; only the hook varies.
                    for ring_id, ring in hierarchy.rings.items():
                        marker = _RingDirtyMarker(dirty_add, ring_id)
                        for _node in ring.members:
                            next(entity_iter).mq_hook = marker
                else:
                    for ring_id, ring in hierarchy.rings.items():
                        marker = _RingDirtyMarker(dirty_add, ring_id)
                        for _node in ring.members:
                            entity = next(entity_iter)
                            entity.aggregate_mq = False
                            entity.mq_hook = marker
            else:
                wired = 0
                for ring_id, ring in hierarchy.rings.items():
                    marker = _RingDirtyMarker(dirty_add, ring_id)
                    for node in ring.members:
                        entity = entities_map.get(node)
                        if entity is None:
                            continue
                        wired += 1
                        entity.set_mq_wiring(aggregate, marker)
                        if entity.has_queued_work():
                            dirty_add(ring_id)
                if wired != len(entities_map):
                    # Entities outside any ring (possible when states are supplied
                    # externally) still honour the aggregation setting.
                    ring_of_node = hierarchy.ring_of_node
                    for node, entity in entities_map.items():
                        if node not in ring_of_node:
                            entity.set_mq_wiring(aggregate, entity.mq_hook)
        # Per-ring member sets for the bottom-tier bookkeeping of the batched
        # apply path, invalidated by the ring's mutation counter.
        self._ring_set_cache: Dict[str, Tuple[int, Set[NodeId]]] = {}
        # Pre-bound hot-loop counters (metrics.counter() is a dict probe).
        metrics = self.metrics
        self._c_rounds_started = metrics.counter("rounds.started")
        self._c_rounds_completed = metrics.counter("rounds.completed")
        self._c_hops_token = metrics.counter("hops.token")
        self._c_hops_notify = metrics.counter("hops.notify")
        self._c_hops_ack = metrics.counter("hops.ack")
        self._c_notifications = metrics.counter("messages.notifications")
        self._c_holder_ack = metrics.counter("messages.holder_ack")
        self._capture_counters: Dict[str, object] = {}
        self.failed: Set[NodeId] = set()
        self._op_sequence = itertools.count(1)
        # Token ids are per-kernel, not process-global: two identically seeded
        # runs in one process must produce identical traces (golden tests).
        self._token_ids = itertools.count(1)
        # Per member GUID: (the access proxy it was last captured at, or
        # None once it departed; its latest attachment epoch).
        self._members: Dict[str, Tuple[Optional[NodeId], int]] = {}
        # Per-ring seen-sets / sequence high-water marks materialise on first
        # touch (defaultdict): pre-seeding one empty set and dict per ring
        # cost two allocations per ring — 222k objects a million-proxy build
        # never looked at.  Read paths that must not create entries use
        # ``.get``, which behaves identically on a defaultdict.
        self.ring_seen: Dict[str, Set[int]] = defaultdict(set)
        # Highest operation sequence a ring has circulated per member GUID.
        # Event-driven transports can reorder notifications (a lost-and-resent
        # join may arrive after the member's later leave was already applied);
        # this map lets receivers drop such stale operations.
        self.ring_applied_seq: Dict[str, Dict[str, int]] = defaultdict(dict)
        self._ring_holder: Dict[str, NodeId] = {}
        # Bumped by invalidate_coverage(); lets a round detect mid-round
        # hierarchy surgery and re-derive its per-entry coverage verdicts.
        self._coverage_epoch = 0
        # Ring tiers are fixed at construction (repair removes members, never
        # whole tiers), so the bottom tier is safe to pin for the hot paths.
        self._bottom_tier = hierarchy.bottom_tier()

    # ------------------------------------------------------------------
    # entity access
    # ------------------------------------------------------------------

    def entity(self, node: "NodeId | str") -> NetworkEntityState:
        key = coerce_node(node)
        try:
            return self.entities[key]
        except KeyError:
            raise ProtocolError(f"unknown network entity {node}") from None

    def is_operational(self, node: "NodeId | str") -> bool:
        return coerce_node(node) not in self.failed

    def operational_entities(self) -> List[NodeId]:
        return [n for n in self.entities if n not in self.failed]

    # ------------------------------------------------------------------
    # sequences and epochs
    # ------------------------------------------------------------------

    def next_sequence(self) -> int:
        return next(self._op_sequence)

    def set_sequence_stream(self, start: int, step: int = 1) -> None:
        """Partition the operation-sequence space.

        The live runtime runs one kernel replica per shard process; each
        replica draws its post-scenario sequences (repair operations) from a
        disjoint arithmetic stream (``start + k*step``) so two shards can
        never mint the same sequence number for different operations.
        Scripted operations carry pre-assigned sequences below ``start``.
        """
        if step < 1:
            raise ProtocolError(f"sequence stream step must be >= 1, got {step}")
        self._op_sequence = itertools.count(start, step)

    @property
    def coverage_epoch(self) -> int:
        """Monotonic count of hierarchy surgeries (see :meth:`invalidate_coverage`).

        Observers (e.g. the harness's dead-letter retry) compare epochs to
        learn that a repair has re-shaped the hierarchy since they last
        looked, without hooking every repair call site.
        """
        return self._coverage_epoch

    def next_epoch(self, guid: str) -> int:
        location, epoch = self._members.get(guid, _UNPLACED)
        self._members[guid] = (location, epoch + 1)
        return epoch + 1

    def make_join_op(
        self,
        ap: "NodeId | str",
        guid: "GloballyUniqueId | str",
        *,
        sequence: Optional[int] = None,
        epoch: Optional[int] = None,
    ) -> TokenOperation:
        """A Member-Join operation for ``guid`` at ``ap``, not yet captured."""
        ap_id = coerce_node(ap)
        guid_id = coerce_guid(guid)
        member = MemberInfo(
            guid=guid_id,
            group=self.hierarchy.group,
            ap=ap_id,
            status=MemberStatus.OPERATIONAL,
            epoch=self.next_epoch(str(guid_id)) if epoch is None else epoch,
        )
        return TokenOperation(
            op_type=TokenOperationType.MEMBER_JOIN,
            origin=ap_id,
            member=member,
            sequence=self.next_sequence() if sequence is None else sequence,
        )

    # ------------------------------------------------------------------
    # capture verbs (what an access proxy does; every driver calls these)
    #
    # Each verb captures one member change into the capturing proxy's queue
    # and returns the operation, or returns ``None`` and counts one
    # ``harness.captures_skipped`` when the proxy cannot capture: it has
    # failed, it has left the hierarchy, or (handoff) the member has no known
    # location or is already there.  A leave or failure of a member with no
    # known location returns ``None`` uncounted: there is no proxy to capture
    # at, so nothing was attempted.  The kernel keeps each member's current
    # location and epoch in one table; a caller that routes without it (the
    # structural engine) names the proxy itself.  Sequence and epoch are
    # drawn here, epoch first; a join, leave or failure may instead take
    # them from the caller (the live node replays a script's pre-assigned
    # identities, and no script emits a handoff).
    # ------------------------------------------------------------------

    def location_of(self, guid: "GloballyUniqueId | str") -> Optional[NodeId]:
        """The access proxy ``guid`` was last captured at (``None``: unknown
        or departed)."""
        return self._members.get(str(guid), _UNPLACED)[0]

    def _place(self, guid: str, location: Optional[NodeId], epoch: Optional[int] = None) -> None:
        if epoch is None:
            epoch = self._members.get(guid, _UNPLACED)[1]
        self._members[guid] = (location, epoch)

    def _capture_site(self, ap: "NodeId | str") -> Optional[NodeId]:
        key = coerce_node(ap)
        if key in self.failed or not self.hierarchy.has_node(key):
            return None
        return key

    def _skip(self) -> None:
        self.metrics.counter("harness.captures_skipped").increment()

    def join(
        self,
        ap: "NodeId | str",
        guid: "GloballyUniqueId | str",
        *,
        now: float,
        sequence: Optional[int] = None,
        epoch: Optional[int] = None,
    ) -> Optional[TokenOperation]:
        """Member-Join: a mobile host joins the group at access proxy ``ap``."""
        key = self._capture_site(ap)
        if key is None:
            return self._skip()
        op = self.make_join_op(key, guid, sequence=sequence, epoch=epoch)
        self._place(str(op.member.guid), key, op.member.epoch)
        return self.capture(key, op, now)

    def leave(
        self,
        guid: "GloballyUniqueId | str",
        ap: "Optional[NodeId | str]" = None,
        *,
        now: float,
        sequence: Optional[int] = None,
    ) -> Optional[TokenOperation]:
        """Member-Leave: the host departs voluntarily, reported at ``ap``
        (default: where it was last captured)."""
        return self._depart(
            TokenOperationType.MEMBER_LEAVE, MemberStatus.LEFT, guid, ap, now, sequence
        )

    def fail_member(
        self,
        guid: "GloballyUniqueId | str",
        ap: "Optional[NodeId | str]" = None,
        *,
        now: float,
        sequence: Optional[int] = None,
    ) -> Optional[TokenOperation]:
        """Member-Failure: the host's access proxy (``ap``, default: where it
        was last captured) detects it faulty."""
        return self._depart(
            TokenOperationType.MEMBER_FAILURE, MemberStatus.FAILED, guid, ap, now, sequence
        )

    def _depart(
        self,
        op_type: TokenOperationType,
        status: MemberStatus,
        guid: "GloballyUniqueId | str",
        ap: "Optional[NodeId | str]",
        now: float,
        sequence: Optional[int],
    ) -> Optional[TokenOperation]:
        guid_id = coerce_guid(guid)
        name = str(guid_id)
        if ap is None:
            ap = self.location_of(name)
            if ap is None:
                return None  # nothing known departs: not a capture attempt
        key = self._capture_site(ap)
        if key is None:
            return self._skip()
        member = self.lookup_member(key, guid_id)
        self._place(name, None)
        op = TokenOperation(
            op_type=op_type,
            origin=key,
            member=member.with_status(status),
            sequence=self.next_sequence() if sequence is None else sequence,
        )
        return self.capture(key, op, now)

    def handoff(
        self,
        guid: "GloballyUniqueId | str",
        to_ap: "NodeId | str",
        old_ap: "Optional[NodeId | str]" = None,
        *,
        now: float,
    ) -> Optional[TokenOperation]:
        """Member-Handoff: the host moves from ``old_ap`` (default: where it
        was last captured) to ``to_ap``.

        The change is captured at the *new* access proxy; the old proxy's
        local list is updated directly, modelling the Mobile-IP style binding
        update the host performs, and the propagated operation carries
        ``previous_ap`` so every view can move the member rather than
        duplicate it.
        """
        guid_id = coerce_guid(guid)
        name = str(guid_id)
        old = self.location_of(name) if old_ap is None else coerce_node(old_ap)
        new = self._capture_site(to_ap)
        if old is None or new is None or old == new:
            return self._skip()
        member = self.lookup_member(old, guid_id)
        moved = member.handed_off_to(new, self.next_epoch(name))
        if old in self.entities:
            self.entities[old].unregister_local_member(name)
        self._place(name, new, moved.epoch)
        op = TokenOperation(
            op_type=TokenOperationType.MEMBER_HANDOFF,
            origin=new,
            member=moved,
            previous_ap=old,
            sequence=self.next_sequence(),
        )
        return self.capture(new, op, now)

    def lookup_member(self, ap: NodeId, guid: GloballyUniqueId) -> MemberInfo:
        """Find the current record for ``guid``, preferring the AP's local list."""
        if ap in self.entities:
            entity = self.entities[ap]
            record = entity.local_members.get(guid)
            if record is not None:
                return record
            record = entity.ring_members.get(guid)
            if record is not None:
                return record
        # Fall back to the global view (e.g. leave reported via a different AP).
        top_leader = self.hierarchy.topmost_ring().leader
        if top_leader is not None and top_leader in self.entities:
            record = self.entities[top_leader].ring_members.get(guid)
            if record is not None:
                return record
        # Unknown member: synthesise a record so the departure still propagates.
        return MemberInfo(
            guid=guid,
            group=self.hierarchy.group,
            ap=ap,
            status=MemberStatus.OPERATIONAL,
            epoch=self.next_epoch(str(guid)),
        )

    def failure_operations(
        self, failed: NodeId, observer: Optional[NodeId]
    ) -> List[TokenOperation]:
        """Operations reporting an entity failure and the members lost with it."""
        ops: List[TokenOperation] = []
        if observer is not None and observer in self.entities:
            for member in self.entities[observer].ring_members.members_at(failed):
                ops.append(
                    TokenOperation(
                        op_type=TokenOperationType.MEMBER_FAILURE,
                        origin=observer,
                        member=member.with_status(MemberStatus.FAILED),
                        sequence=self.next_sequence(),
                    )
                )
        ops.append(
            TokenOperation(
                op_type=TokenOperationType.NE_FAILURE,
                origin=observer if observer is not None else failed,
                entity=failed,
                sequence=self.next_sequence(),
            )
        )
        return ops

    # ------------------------------------------------------------------
    # capture and seen-set dedup
    # ------------------------------------------------------------------

    def capture(self, ap: "NodeId | str", operation: TokenOperation, now: float) -> TokenOperation:
        """Insert ``operation`` into the access proxy's queue and mark it seen."""
        ap_id = coerce_node(ap)
        self.entity(ap_id).mq.insert(operation, sender=ap_id, now=now)
        ring_id = self.hierarchy.ring_of(ap_id).ring_id
        self.ring_seen[ring_id].add(operation.sequence)
        counter = self._capture_counters.get(operation.op_type.value)
        if counter is None:
            counter = self.metrics.counter(f"capture.{operation.op_type.value}")
            self._capture_counters[operation.op_type.value] = counter
        counter.increment()
        if self.trace.enabled:
            self.trace.record(now, "capture", str(ap_id), operation.describe())
        return operation

    def fresh_for_ring(
        self, ring_id: str, operations: Sequence[TokenOperation]
    ) -> List[TokenOperation]:
        """Operations the target ring has not seen yet and that are not stale
        (notification filter)."""
        if ring_id not in self.hierarchy.rings:
            # ring_seen is a defaultdict; guard explicitly so a mistyped or
            # stale ring id still errors (as the pre-seeded map used to)
            # instead of silently treating everything as fresh.
            raise KeyError(ring_id)
        seen = self.ring_seen[ring_id]
        applied = self.ring_applied_seq.get(ring_id)
        if applied:
            return [
                op
                for op in operations
                if op.sequence not in seen and not stale_for(applied, op)
            ]
        return [op for op in operations if op.sequence not in seen]

    def mark_seen(self, ring_id: str, operations: Iterable[TokenOperation]) -> None:
        seen = self.ring_seen[ring_id]
        for op in operations:
            seen.add(op.sequence)

    # ------------------------------------------------------------------
    # round plumbing
    # ------------------------------------------------------------------

    def upward_target(
        self, entity: NetworkEntityState, leader: Optional[NodeId]
    ) -> Optional[NodeId]:
        """Figure 3 lines 10-13 gate: the ring leader with a healthy parent link."""
        if (
            leader is not None
            and entity.current == leader
            and entity.parent_ok
            and entity.parent is not None
        ):
            return entity.parent
        return None

    def ack_targets(self, child_senders: Sequence) -> List:
        """Distinct Holder-Acknowledgement recipients, first-seen order."""
        return list(dict.fromkeys(child_senders))

    # ------------------------------------------------------------------
    # coverage bookkeeping
    # ------------------------------------------------------------------

    def ring_covers(self, ring_id: str, ap: NodeId) -> bool:
        """Is bottom-tier proxy ``ap`` within ring ``ring_id``'s coverage area?

        ``ap`` is covered iff its (bottom-tier) ring is ``ring_id`` or reaches
        it by climbing the leader→parent links — O(height) dict probes and
        **zero cached state**.  This replaces the seed's materialised
        per-ring coverage sets (``tests/reference/per_op.py``), whose combined
        size is O(proxies × height) at scale (hundreds of MB for a million
        proxies).  Always reads the live hierarchy, so repairs are visible
        immediately.
        """
        hierarchy = self.hierarchy
        ring_of_node = hierarchy.ring_of_node
        current = ring_of_node.get(ap)
        if current is None:
            return False
        if hierarchy.rings[current].tier != self._bottom_tier:
            return False
        parent_node = hierarchy.parent_node
        while True:
            if current == ring_id:
                return True
            parent = parent_node.get(current)
            if parent is None:
                return False
            current = ring_of_node.get(parent)
            if current is None:
                return False

    def _entry_coverage(self, ring_id: str, delta: MembershipDelta) -> List[bool]:
        """Per-entry coverage verdicts for one ring (aligned with entries)."""
        ring_covers = self.ring_covers
        return [ring_covers(ring_id, entry.operation.member.ap) for entry in delta.entries]

    def invalidate_coverage(self) -> None:
        self._coverage_epoch += 1

    # ------------------------------------------------------------------
    # operation application (Figure 3 line 08)
    # ------------------------------------------------------------------

    def compile_delta(self, operations: Sequence[TokenOperation]) -> MembershipDelta:
        """Compile an aggregated operation batch once for a whole round."""
        return MembershipDelta.from_operations(operations)

    def _ring_members_set(self, ring: LogicalRing) -> Set[NodeId]:
        """Cached ``set(ring.members)``, invalidated by the ring's mutation
        counter (repairs bump it)."""
        cached = self._ring_set_cache.get(ring.ring_id)
        if cached is not None and cached[0] == ring.version:
            return cached[1]
        members = set(ring.members)
        self._ring_set_cache[ring.ring_id] = (ring.version, members)
        return members

    def _apply_delta_ctx(
        self,
        entity: NetworkEntityState,
        delta: MembershipDelta,
        now: float,
        entry_coverage: Sequence[bool],
        is_bottom: bool,
        ring_member_set: Optional[Set[NodeId]],
    ) -> Sequence[MembershipEvent]:
        """Delta application with the per-ring context precomputed.

        ``run_round`` applies the same compiled delta at every member it
        visits; hoisting the per-entry coverage verdicts and ring-member set
        out of the per-visit call is what makes the token path O(net changes)
        per visit.
        """
        events: Optional[List[MembershipEvent]] = None
        node = entity.current
        # Probe the views' string-keyed stores directly; mutations still go
        # through the view methods so versioning stays correct.  The probes
        # also gate remove() calls, so the common no-op removal (an operation
        # about a member this view never covered) costs one dict hit.  Views
        # are lazy: an unmaterialised view probes as the shared empty store
        # and is only brought into existence by an actual addition — at a
        # million proxies the visit loop would otherwise allocate three view
        # objects per entity just to discover there is nothing to do.
        local = entity.local_members if entity.local_live else None
        neighbor = entity.neighbor_members if entity.neighbor_live else None
        ring_view = entity.ring_members if entity.ring_live else None
        local_store = local._members if local is not None else _EMPTY_STORE
        neighbor_store = neighbor._members if neighbor is not None else _EMPTY_STORE
        ring_store = ring_view._members if ring_view is not None else _EMPTY_STORE
        for position, entry in enumerate(delta.entries):
            op = entry.operation
            member = op.member
            resolved = entry.resolved
            guid_value = entry.guid_value
            adding = resolved is not None
            member_ap = member.ap
            in_coverage = entry_coverage[position]

            if is_bottom:
                # Local member list: only the access proxy the member is attached to.
                if adding and member_ap == node:
                    if local is None:
                        local = entity.local_members
                    local.add(resolved)
                elif guid_value in local_store and (member_ap != node or not adding):
                    local.remove(guid_value)
                # Neighbour member list: members at the *other* proxies of this ring.
                if member_ap != node and member_ap in ring_member_set:
                    if adding:
                        if neighbor is None:
                            neighbor = entity.neighbor_members
                        neighbor.add(resolved)
                    elif guid_value in neighbor_store:
                        neighbor.remove(guid_value)
                elif guid_value in neighbor_store and member_ap not in ring_member_set:
                    neighbor.remove(guid_value)

            # Ring member list: members within the ring's coverage area.
            event: Optional[MembershipEvent] = None
            if adding:
                if in_coverage:
                    if ring_view is None:
                        ring_view = entity.ring_members
                    if ring_view.add(resolved):
                        # Refetch: the first add on a lazily allocated view
                        # swaps its store, leaving the hoisted handle stale.
                        event = self._event(op, node, now, len(ring_view._members))
                elif guid_value in ring_store:
                    # The member moved out of this ring's coverage area.
                    ring_view.remove(guid_value)
                    event = self._event(op, node, now, len(ring_store))
            elif guid_value in ring_store:
                ring_view.remove(guid_value)
                event = self._event(op, node, now, len(ring_store))
            if event is not None:
                if events is None:
                    events = [event]
                else:
                    events.append(event)
        # Most visits change nothing; avoid allocating an empty list each.
        return events if events is not None else ()

    @staticmethod
    def _event(
        op: TokenOperation, observer: NodeId, now: float, view_size: int
    ) -> MembershipEvent:
        return MembershipEvent(
            event_type=event_type_for(op.op_type),
            time=now,
            observer=observer,
            member=op.member,
            previous_ap=op.previous_ap,
            view_size=view_size,
        )

    # ------------------------------------------------------------------
    # entity failure and repair (hierarchy surgery shared by every driver)
    # ------------------------------------------------------------------

    def fail_entity(self, node: "NodeId | str", now: float = 0.0) -> None:
        """Mark a network entity as crashed.

        Detection and repair happen lazily, when a token round next tries to
        visit the failed entity (Section 5.2: detection by token
        retransmission, local repair by exclusion).  Use
        :meth:`detect_and_repair` to force immediate handling.
        """
        key = coerce_node(node)
        if key not in self.entities:
            raise ProtocolError(f"unknown network entity {node}")
        self.failed.add(key)
        self.metrics.counter("faults.entity").increment()
        self.trace.record(now, "fault", str(key), "entity crashed")

    def exclude_entity(self, failed: NodeId) -> LogicalRing:
        """Exclude ``failed`` from its ring and patch the hierarchy around it.

        The surviving members' previous / next / leader pointers are
        re-installed, orphaned child rings re-attach to the ring's (new)
        leader, and the failed node's slot in its parent's child list moves
        to that leader.
        """
        ring = self.hierarchy.ring_of(failed)
        was_leader = ring.remove_member(failed)
        if was_leader:
            ring.elect_leader()
        self.hierarchy.ring_of_node.pop(failed, None)
        self.invalidate_coverage()

        if ring.leader is not None:
            for member in ring.members:
                self.entity(member).set_ring_pointers(
                    ring_id=ring.ring_id,
                    leader=ring.leader,
                    previous=ring.predecessor(member),
                    next_node=ring.successor(member),
                )

        # Child rings of the failed node re-attach to the ring's (new) leader.
        orphan_rings = self.hierarchy.child_rings.pop(failed, [])
        new_parent = ring.leader
        if orphan_rings and new_parent is not None:
            for ring_id in orphan_rings:
                self.hierarchy.parent_node[ring_id] = new_parent
                self.hierarchy.child_rings.setdefault(new_parent, []).append(ring_id)
                child_leader = self.hierarchy.ring(ring_id).leader
                if child_leader is not None and new_parent in self.entities:
                    self.entities[new_parent].add_child(child_leader)
                    if child_leader in self.entities:
                        self.entities[child_leader].set_parent(new_parent)

        # The failed entity's parent loses a child pointer; the ring's (new)
        # leader takes over as that parent's child so the upward path survives.
        parent = self.hierarchy.parent_node.get(ring.ring_id)
        if parent is not None and parent in self.entities:
            self.entities[parent].remove_child(failed)
            if ring.leader is not None:
                self.entities[parent].add_child(ring.leader)
                self.entities[ring.leader].set_parent(parent)
        return ring

    def repair_ring(
        self,
        ring: LogicalRing,
        failed: NodeId,
        detector: Optional[NodeId],
        now: float,
    ) -> List[TokenOperation]:
        """Local repair: exclude ``failed`` and report the losses."""
        self.exclude_entity(failed)
        failure_source = detector if detector is not None else ring.leader
        ops = self.failure_operations(failed, failure_source)
        self.metrics.counter("repairs.ring").increment()
        self.trace.record(now, "repair", str(failed), f"excluded from ring {ring.ring_id}")
        self._salvage_queue(ring, failed, detector, now)
        return ops

    def _salvage_queue(
        self, ring: LogicalRing, failed: NodeId, detector: Optional[NodeId], now: float
    ) -> None:
        """Move the excised entity's undrained MQ to a surviving ring member.

        Operations delivered to an entity are marked in the ring's seen-set
        at send time, so the sender will never retransmit them — if they die
        with the entity's queue they are lost *silently* (any resend would be
        filtered as a duplicate).  The surviving member inherits them; the
        seen-marking stays valid because heir and victim share the ring.
        """
        victim = self.entities.get(failed)
        if victim is None:
            return
        salvaged = victim.mq.drain_entries()
        if not salvaged:
            return
        heir = detector if detector is not None else ring.leader
        if heir is None or heir in self.failed or heir not in self.entities:
            # Whole ring died: nothing in this ring can carry the operations.
            self.metrics.counter("repairs.mq_orphaned").increment(len(salvaged))
            self.trace.record(
                now, "repair", str(failed), f"{len(salvaged)} queued ops orphaned"
            )
            return
        heir_entity = self.entity(heir)
        for entry in salvaged:
            heir_entity.mq.insert(entry.operation, sender=entry.sender, now=now)
        self.metrics.counter("repairs.mq_salvaged").increment(len(salvaged))
        self.trace.record(
            now, "repair", str(failed), f"{len(salvaged)} queued ops salvaged to {heir}"
        )

    def detect_and_repair(self, node: "NodeId | str", now: float = 0.0) -> List[TokenOperation]:
        """Immediately detect a failed entity and repair its ring."""
        key = coerce_node(node)
        if key not in self.failed:
            raise ProtocolError(f"entity {node} has not failed")
        if not self.hierarchy.has_node(key):
            return []  # already repaired away
        ring = self.hierarchy.ring_of(key)
        detector = None
        for candidate in ring.members:
            if candidate != key and candidate not in self.failed:
                detector = candidate
                break
        ops = self.repair_ring(ring, key, detector, now)
        if detector is not None:
            for op in ops:
                self.entity(detector).mq.insert(op, sender=detector, now=now)
                self.ring_seen[ring.ring_id].add(op.sequence)
        return ops

    # ------------------------------------------------------------------
    # the one-round algorithm (structural stepping)
    # ------------------------------------------------------------------

    def run_round(
        self,
        ring_id: str,
        holder: Optional["NodeId | str"] = None,
        now: float = 0.0,
    ) -> RoundResult:
        """Run one token round in ``ring_id`` (Figure 3)."""
        ring = self.hierarchy.ring(ring_id)
        if ring.is_empty:
            raise ProtocolError(f"ring {ring_id!r} has no members")
        holder_id = coerce_node(holder) if holder is not None else self.pick_holder(ring)
        if holder_id not in ring.members:
            raise ProtocolError(f"holder {holder_id} is not a member of ring {ring_id!r}")
        if holder_id in self.failed:
            raise ProtocolError(f"holder {holder_id} has failed")

        holder_entity = self.entity(holder_id)
        # Drain the holder's queue into the token; out-of-ring senders are the
        # Holder-Acknowledgement targets (Figure 3 lines 17-20).  Peek the
        # lazy queue: a pure repair round has no queue to drain.
        holder_mq = holder_entity._mq_if_materialized()
        entries = holder_mq.drain_entries() if holder_mq is not None else ()
        operations = tuple(e.operation for e in entries)
        ring_members_now = self._ring_members_set(ring)
        child_senders = [
            e.sender
            for e in entries
            if e.sender != holder_id and e.sender not in ring_members_now
        ]
        # One pass marks the batch seen and records the ring's per-member
        # sequence high-water marks (what ``stale_for`` reads).
        seen = self.ring_seen[ring_id]
        applied = self.ring_applied_seq.setdefault(ring_id, {})
        for op in operations:
            seen.add(op.sequence)
            member = op.member
            if member is not None:
                guid = member.guid.value
                if op.sequence > applied.get(guid, 0):
                    applied[guid] = op.sequence

        token_id = next(self._token_ids)
        track_token = self.trace.enabled  # the token object itself is trace-only
        token: Optional[Token] = None
        if track_token:
            token = Token(
                group=self.hierarchy.group,
                holder=holder_id,
                ring_id=ring_id,
                operations=operations,
                token_id=token_id,
            )
        result = RoundResult(ring_id=ring_id, holder=holder_id, operations=operations)
        self._c_rounds_started._value += 1
        if track_token:
            self.trace.record(now, "round", str(holder_id), f"start {token.describe()}")

        # One compile per round: every visited member applies the same delta.
        batch = self.compile_delta(operations)
        publish = self.event_bus.publish
        entities = self.entities
        failed = self.failed
        has_entries = bool(batch.entries)
        is_bottom = ring.tier == self._bottom_tier

        order = ring.members_from(holder_id)
        order_len = len(order)
        forwarded_up = False
        prev_node = holder_id
        # Hot-loop accumulators and cache handles: coverage and the
        # ring-member set are re-validated per visit through their caches
        # (dict probes) so a repair triggered mid-round — by this ring's own
        # token or by a notification re-route — is visible to later visits,
        # exactly as in the uncached path.
        token_hops = 0
        notify_hops = 0
        retransmissions = 0
        visited = result.visited
        visited_append = visited.append
        ring_set_cache = self._ring_set_cache
        # Per-entry coverage verdicts, derived once per round and re-derived
        # only when hierarchy surgery (a repair, here or via a notification
        # re-route) bumps the coverage epoch — the equivalent of the old
        # coverage-set cache plus invalidation, without materialising sets.
        entry_coverage: Optional[List[bool]] = None
        coverage_epoch = -1
        index = 0
        while index < order_len:
            node = order[index]
            if node != holder_id:
                token_hops += 1
            if node in failed:
                # Detection by token retransmission, then local repair.  The
                # detector is the last *surviving* node the token visited
                # (``order[index - 1]`` may itself be failed when failures
                # are adjacent in ring order — handing it the salvaged MQ
                # would orphan the queued operations).
                retransmissions += TOKEN_RETRY_LIMIT + 1
                detector = prev_node
                repair_ops = self.repair_ring(ring, node, detector, now)
                result.repaired.append(node)
                for op in repair_ops:
                    self.entity(detector).mq.insert(op, sender=detector, now=now)
                    self.ring_seen[ring_id].add(op.sequence)
                index += 1
                continue

            if track_token:
                token = token.record_visit(node)
            visited_append(node)
            entity = entities[node]
            if has_entries:
                if coverage_epoch != self._coverage_epoch:
                    coverage_epoch = self._coverage_epoch
                    entry_coverage = self._entry_coverage(ring_id, batch)
                if is_bottom:
                    cached_set = ring_set_cache.get(ring_id)
                    if cached_set is not None and cached_set[0] == ring.version:
                        member_set = cached_set[1]
                    else:
                        member_set = self._ring_members_set(ring)
                else:
                    member_set = None
                events = self._apply_delta_ctx(
                    entity, batch, now, entry_coverage, is_bottom, member_set
                )
            else:
                events = ()
            if events:
                for event in events:
                    publish(event)
                result.events.extend(events)
            entity.ring_ok = True  # Figure 3 line 09
            prev_node = node

            if operations:
                # Figure 3 lines 10-13: leader forwards to its parent
                # (inlined upward_target; ring.leader can change mid-round).
                if (
                    node == ring.leader
                    and entity.parent_ok
                    and entity.parent is not None
                ):
                    notify_hops += self.forward_notification(
                        node, entity.parent, operations, now
                    )
                    forwarded_up = True

                # Figure 3 lines 14-16: notify child rings.  Iterate a copy:
                # a notification to a crashed child repairs that child's ring
                # and may rewire this entity's child list mid-loop.
                if entity.children:
                    for child in list(entity.children):
                        if child in failed:
                            continue
                        notify_hops += self.forward_notification(
                            node, child, operations, now
                        )
            index += 1

        # Closing hop: the token travels from the last visited node back to the holder.
        if len(visited) >= 2:
            token_hops += 1
        result.token_hops = token_hops
        result.notify_hops = notify_hops
        result.retransmissions = retransmissions

        # If the ring leader failed mid-round (before its turn), the repaired
        # ring's new leader still has to report the operations to the parent.
        if operations and not forwarded_up and ring.leader is not None:
            leader_entity = self.entity(ring.leader)
            if ring.leader not in self.failed:
                parent_target = self.upward_target(leader_entity, ring.leader)
                if parent_target is not None:
                    result.notify_hops += self.forward_notification(
                        ring.leader, parent_target, operations, now
                    )

        # Figure 3 lines 17-20: Holder-Acknowledgement to originating children.
        if operations:
            for sender in self.ack_targets(child_senders):
                if sender in self.failed:
                    continue
                result.ack_hops += 1
                self._c_holder_ack.increment()
                if self.trace.enabled:
                    self.trace.record(now, "ack", str(holder_id), f"holder-ack to {sender}")

        # Figure 3 lines 21-23: control of a fresh token moves to the next node.
        members = ring.members
        if members:
            idx = ring._index.get(holder_id)
            if idx is not None:
                nxt = idx + 1
                self._ring_holder[ring_id] = members[nxt if nxt < len(members) else 0]
            else:  # holder repaired away mid-round
                self._ring_holder[ring_id] = (
                    ring.leader if ring.leader is not None else members[0]
                )

        self._c_rounds_completed._value += 1
        self._c_hops_token._value += result.token_hops
        self._c_hops_notify._value += result.notify_hops
        self._c_hops_ack._value += result.ack_hops
        return result

    def pick_holder(self, ring: LogicalRing) -> NodeId:
        """The member that should hold the next round: current holder pointer,
        advanced to the first operational member with pending work (or the
        first operational member if none has work)."""
        start = self._ring_holder.get(ring.ring_id)
        candidates = (
            ring.members_from(start)
            if start is not None and start in ring.members
            else ring.members_in_order()
        )
        failed = self.failed
        entities = self.entities
        first_operational: Optional[NodeId] = None
        for node in candidates:
            if node in failed:
                continue
            if first_operational is None:
                first_operational = node
            if entities[node].has_queued_work():
                return node
        if first_operational is None:
            raise ProtocolError(f"ring {ring.ring_id!r} has no operational members")
        return first_operational

    def forward_notification(
        self, sender: NodeId, target: NodeId, operations: Sequence[TokenOperation], now: float
    ) -> int:
        """Insert operations into ``target``'s queue; returns 1 if a message was sent."""
        if target not in self.entities:
            return 0
        if target in self.failed:
            # The notification to a crashed parent/child times out (ParentOK /
            # ChildOK turns false): repair that entity's ring, re-attach, and
            # retry towards the surviving counterpart.
            if not self.hierarchy.has_node(target):
                return 0
            sender_entity = self.entity(sender)
            was_parent = sender_entity.parent == target
            target_ring = self.hierarchy.ring_of(target)
            self.detect_and_repair(target, now)
            if was_parent:
                new_target = self.entity(sender).parent
            else:
                new_target = target_ring.leader
            if new_target is None or new_target == target:
                return 0
            return self.forward_notification(sender, new_target, operations, now)
        target_ring_id = self.hierarchy.ring_of_node.get(target)
        if target_ring_id is None:  # no longer in any ring (repaired away)
            return 0
        fresh = self.fresh_for_ring(target_ring_id, operations)
        if not fresh:
            return 0
        # Mark seen at send time: the seen-set is the "at most one propagation
        # per ring" dedup, and a transport-backed dispatch keeps retrying a
        # lost notification until it lands, so marking early never strands ops.
        self.mark_seen(target_ring_id, fresh)
        self.dispatch.deliver_notification(self, sender, target, fresh, now)
        self._c_notifications.increment()
        if self.trace.enabled:
            self.trace.record(
                now,
                "notify",
                str(sender),
                f"{len(fresh)} op(s) to {target} (ring {target_ring_id})",
            )
        return 1

    # ------------------------------------------------------------------
    # propagation to quiescence
    # ------------------------------------------------------------------

    def _ring_has_work(self, ring: LogicalRing) -> bool:
        """True when some operational member of ``ring`` has queued work."""
        failed = self.failed
        entities = self.entities
        for node in ring.members:
            if node not in failed and entities[node].has_queued_work():
                return True
        return False

    def pending_rings(self) -> List[str]:
        """Rings that currently have at least one queued operation.

        Candidates come from the dirty-ring set the per-queue ``on_enqueue``
        hooks maintain; each is verified against the actual queues (an insert
        may have aggregated away, or the only work may sit at a failed
        member) and cleaned candidates are unmarked.  Semantics match the
        original exhaustive scan exactly — only the cost differs.
        """
        dirty = self._dirty_rings
        if not dirty:
            return []
        pending: List[str] = []
        clean: List[str] = []
        rings = self.hierarchy.rings
        for ring_id in dirty:
            ring = rings.get(ring_id)
            if ring is not None and self._ring_has_work(ring):
                pending.append(ring_id)
            else:
                clean.append(ring_id)
        for ring_id in clean:
            dirty.discard(ring_id)
        # Bottom-up, then lexicographic: deterministic and matches the paper's
        # bottom-to-top propagation narrative.
        pending.sort(key=lambda rid: (rings[rid].tier, rid))
        return pending

    def propagate(self, now: float = 0.0, max_iterations: int = 10_000) -> PropagationReport:
        """Run token rounds until every message queue is empty."""
        report = PropagationReport()
        for _ in range(max_iterations):
            pending = self.pending_rings()
            if not pending:
                return report
            for ring_id in pending:
                # Skip if the work was consumed by an earlier round this sweep.
                if self._ring_has_work(self.hierarchy.ring(ring_id)):
                    report.rounds.append(self.run_round(ring_id, now=now))
        raise ProtocolError(
            f"propagation did not converge within {max_iterations} iterations"
        )


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------

#: Available kernel implementations.  ``object`` is the reference kernel in
#: this module; ``columnar`` is the struct-of-arrays backend in
#: :mod:`repro.core.columnar` (bit-identical protocol state, with a
#: proven-no-op fast path for rounds that cannot change any view).
KERNEL_BACKENDS: Tuple[str, ...] = ("object", "columnar")


def create_kernel(
    hierarchy: RingHierarchy,
    *,
    backend: str = "object",
    **kwargs,
) -> TokenRoundKernel:
    """Construct a kernel for ``hierarchy`` with the selected backend.

    Keyword arguments pass straight through to the kernel constructor.
    """
    if backend not in KERNEL_BACKENDS:
        raise ProtocolError(
            f"unknown kernel backend {backend!r}; expected one of {KERNEL_BACKENDS}"
        )
    if backend == "columnar":
        # Imported lazily: repro.core.columnar imports this module.
        from repro.core.columnar import ColumnarKernel

        return ColumnarKernel(hierarchy, **kwargs)
    return TokenRoundKernel(hierarchy, **kwargs)
