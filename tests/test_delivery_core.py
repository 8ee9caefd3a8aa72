"""The reliable-delivery core on its own: no engine, no sockets, unit speed.

``ReliableNotifier`` is driven through ``delivery_rigs.CoreRig`` — a fake
clock and a ``send`` that parks every attempt on a list.  A hypothesis state
machine plays the network (deliver, duplicate, drop, reorder, let the
unacked checks fire) and the failure detector (crash and repair entities on
both ends of in-flight notifications), and after every step holds the core
to its one promise: **no operation it was handed is ever nowhere**.  Each
(operation, target ring) pair is pending, queued at the ring, circulated
there (or superseded: dropped by the staleness watermark), dead-lettered, or
abandoned with its counter — and the counters add up entry by entry.

The deterministic cases pin the sender-side mechanics the simulator never
exercises one at a time: the stable id, duplicate and reordered arrivals,
the resend budget, and sender succession.
"""

from __future__ import annotations

from delivery_rigs import CoreRig, upward_join
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
from hypothesis_profiles import examples

from repro.core.kernel import stale_for

# ---------------------------------------------------------------------------
# deterministic cases
# ---------------------------------------------------------------------------


def _upward(rig):
    """One upward notification, submitted through the kernel."""
    sender, target, op = upward_join(rig.kernel, "core-member")
    rig.kernel.forward_notification(sender, target, (op,), 0.0)
    return sender, target, op


def test_one_id_per_notification_and_late_duplicates_are_ignored():
    rig = CoreRig(resend_limit=5)
    _sender, target, op = _upward(rig)
    rig.loop.advance(rig.backoff)  # unacked: re-sent under the same id
    rig.loop.advance(rig.backoff)
    assert [notify_id for notify_id, _ in rig.wire] == [1, 1, 1]

    rig.deliver(2)  # the newest attempt overtakes the older two
    assert rig.notifier.pending_count() == 0 and rig.loop.timers_pending() == 0
    rig.settle()  # the stragglers find nothing pending
    assert rig.kernel.entity(target).mq.peek() == (op,)
    counters = rig.counters()
    assert counters["harness.notifications_delivered"] == 1
    assert counters["harness.notify_resends"] == 2
    assert rig.rounds_requested == [rig.hierarchy.ring_of(target).ring_id]


def test_stale_operations_are_dropped_at_accept_with_their_counter():
    rig = CoreRig()
    _sender, target, op = _upward(rig)
    ring_id = rig.hierarchy.ring_of(target).ring_id
    # A newer operation about the member circulated here while this one was
    # in flight (loss + resend reordered them).
    rig.kernel.ring_applied_seq[ring_id] = {op.member.guid.value: op.sequence + 1}
    rig.settle()
    assert rig.kernel.entity(target).mq.peek() == ()
    assert rig.counters()["harness.stale_ops_dropped"] == 1
    assert rig.rounds_requested == []  # nothing inserted, no round asked for


def test_a_dead_senders_notification_is_taken_over_by_its_ring():
    rig = CoreRig(ring_size=3)
    sender, target, op = _upward(rig)
    rig.wire.clear()  # the attempt is lost ...
    rig.kernel.fail_entity(sender, now=0.0)  # ... and the messenger dies
    rig.loop.advance(rig.backoff)

    assert rig.counters()["harness.notify_rerouted"] == 1
    ((_, entry),) = rig.wire
    successor = entry.sender
    assert successor != sender and successor in rig.hierarchy.ring_of(sender).members
    assert (entry.target, entry.operations) == (target, (op,))
    rig.settle()
    assert rig.kernel.entity(target).mq.peek() == (op,)


# ---------------------------------------------------------------------------
# model: the network and the failure detector against the core
# ---------------------------------------------------------------------------


class DeliveryMachine(RuleBasedStateMachine):
    """r=2, h=4: 16 access proxies under three tiers (8 + 4 + 2) of interior
    entities — tall enough that a downward notification has a sender with a
    parent of its own and a target that may crash.

    Only interior entities crash: an access-proxy crash makes the repair
    emit member-failure operations that *legitimately* annihilate queued
    joins, which would blur "lost" and "aggregated away".  Whole interior
    rings may die, which is what produces dead letters.
    """

    def __init__(self) -> None:
        super().__init__()
        self.rig = CoreRig(ring_size=2, height=4, resend_limit=2)
        hierarchy = self.rig.hierarchy
        bottom = hierarchy.bottom_tier()
        self.aps = sorted(hierarchy.access_proxies())
        self.upper = sorted(
            n for r in hierarchy.rings.values() if r.tier != bottom for n in r.members
        )
        self.joined = 0
        #: (op, target ring) pairs the core was handed; those it abandoned;
        #: those the kernel orphaned *after* the core had queued them (a ring
        #: died with undrained queues: ``repairs.mq_orphaned``, not a
        #: delivery loss); and those queued as of the previous step.
        self.tracked = {}
        self.abandoned = set()
        self.orphaned = set()
        self.queued = set()
        self.orphan_count = 0
        self.seen_attempts = 0

    # -- helpers -----------------------------------------------------------

    def _note_attempts(self) -> None:
        for _, entry in self.rig.attempts[self.seen_attempts :]:
            for op in entry.operations:
                if op.member is not None:
                    self.tracked[(op.sequence, entry.target_ring_id)] = op
        self.seen_attempts = len(self.rig.attempts)

    def _alive(self, node) -> bool:
        return node not in self.rig.kernel.failed and self.rig.hierarchy.has_node(node)

    def _kick(self) -> None:
        """What a driver's quiescence sweep does: a round wherever work sits."""
        for ring_id in self.rig.kernel.pending_rings():
            if ring_id not in self.rig.rounds_requested:
                self.rig.rounds_requested.append(ring_id)

    # -- workload ----------------------------------------------------------

    @rule(pick=st.integers(min_value=0, max_value=15))
    def join(self, pick):
        ap = self.aps[pick]
        kernel = self.rig.kernel
        kernel.capture(ap, kernel.make_join_op(ap, f"model-{self.joined:03d}"), self.rig.loop.now)
        self.joined += 1
        self._kick()

    @precondition(lambda self: self.rig.rounds_requested)
    @rule()
    def rounds(self):
        """Every ring that was asked for a round runs one."""
        requested, self.rig.rounds_requested[:] = list(self.rig.rounds_requested), []
        for ring_id in requested:
            self.rig.run_round(ring_id)

    # -- the network -------------------------------------------------------

    @precondition(lambda self: self.rig.wire)
    @rule(
        pick=st.integers(min_value=0),
        fate=st.sampled_from(["deliver", "deliver", "duplicate", "drop"]),
    )
    def network(self, pick, fate):
        """One parked attempt, chosen out of order, arrives, arrives and
        stays on the wire to arrive again, or is lost."""
        index = pick % len(self.rig.wire)
        if fate == "drop":
            self.rig.wire.pop(index)
        else:
            self.rig.deliver(index, keep=fate == "duplicate")

    @precondition(lambda self: self.rig.wire)
    @rule()
    def network_drains(self):
        self.rig.settle()

    @rule()
    def tick(self):
        """One backoff passes: every armed unacked check fires."""
        notifier = self.rig.notifier
        doomed = [
            entry
            for entry in notifier._pending.values()
            if entry.attempts > 2 and self._alive(entry.target) and self._alive(entry.sender)
        ]
        before = self.rig.counters().get("harness.notify_abandoned", 0)
        self.rig.loop.advance(self.rig.backoff)
        assert self.rig.counters().get("harness.notify_abandoned", 0) == before + len(doomed)
        for entry in doomed:
            self.abandoned.update((op.sequence, entry.target_ring_id) for op in entry.operations)
            # Abandoning un-marks, so another path may still carry them.
            seen = self.rig.kernel.ring_seen[entry.target_ring_id]
            assert all(op.sequence not in seen for op in entry.operations)

    # -- the failure detector ----------------------------------------------

    def _crashable(self, nodes):
        return sorted({n for n in nodes if n in self.upper and self._alive(n)})

    def _crash(self, candidates, pick) -> None:
        if candidates:
            node = candidates[pick % len(candidates)]
            self.rig.kernel.fail_entity(node, now=self.rig.loop.now)

    @rule(pick=st.integers(min_value=0))
    def crash_an_endpoint(self, pick):
        """A sender or target of a notification that is in flight right now."""
        pending = self.rig.notifier._pending.values()
        self._crash(self._crashable(n for e in pending for n in (e.sender, e.target)), pick)

    @rule(pick=st.integers(min_value=0))
    def crash_anyone(self, pick):
        self._crash(self._crashable(self.upper), pick)

    @rule(pick=st.integers(min_value=0))
    def repair(self, pick):
        kernel = self.rig.kernel
        crashed = sorted(n for n in kernel.failed if self.rig.hierarchy.has_node(n))
        if crashed:
            kernel.detect_and_repair(crashed[pick % len(crashed)], self.rig.loop.now)
            self.rig.notifier.retry_dead_letters()
            self._kick()

    # -- the promise -------------------------------------------------------

    @invariant()
    def every_entry_has_exactly_one_fate(self):
        counters = self.rig.counters()
        submitted = len({notify_id for notify_id, _ in self.rig.attempts})
        assert submitted == (
            self.rig.notifier.pending_count()
            + counters.get("harness.notifications_delivered", 0)
            + counters.get("harness.notify_rerouted", 0)
            + counters.get("harness.notify_abandoned", 0)
        )
        assert counters.get("harness.notify_dead_lettered", 0) == counters.get(
            "harness.notify_reinjected", 0
        ) + len(self.rig.notifier.dead_letters)

    @invariant()
    def no_operation_is_ever_nowhere(self):
        self._note_attempts()
        kernel, hierarchy, notifier = self.rig.kernel, self.rig.hierarchy, self.rig.notifier
        held = {
            (op.sequence, entry.target_ring_id)
            for entry in list(notifier._pending.values()) + notifier.dead_letters
            for op in entry.operations
        }
        queued = {
            (op.sequence, ring.ring_id)
            for ring in hierarchy.rings.values()
            for n in ring.members
            for op in kernel.entity(n).mq.peek()
        }
        orphan_count = self.rig.counters().get("repairs.mq_orphaned", 0)
        if orphan_count != self.orphan_count:
            self.orphaned |= self.queued - queued
            self.orphan_count = orphan_count
        self.queued = queued
        for key, op in self.tracked.items():
            fate = (
                key in held
                or key in queued
                or key in self.abandoned
                or key in self.orphaned
                # circulated in the ring, or superseded there and dropped
                or stale_for(kernel.ring_applied_seq.get(key[1]), op)
            )
            assert fate, (
                f"operation {key[0]} for {key[1]} is neither pending, dead-lettered, "
                f"abandoned, queued nor circulated: {counters_of(self.rig)}"
            )


def counters_of(rig):
    return {k: v for k, v in sorted(rig.counters().items()) if k.startswith("harness.")}


DeliveryMachine.TestCase.settings = settings(
    max_examples=examples(60),
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
test_delivery_model = DeliveryMachine.TestCase
