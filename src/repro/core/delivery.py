"""The one reliable-delivery core for Notification-to-Parent/Child messages.

The paper's reliability claim rests on one rule set: a notification is
retried until it lands, a crashed endpoint (``ParentOK``/``ChildOK`` false)
is repaired around and the message re-targeted at the surviving counterpart,
and nothing a ring has applied may die with its messenger.  That rule set
lives here, once, next to the kernel.  The drivers that move bytes — the
simulator's ``TransportDispatch``, the UDP node's ``SocketDispatch`` — supply
a clock, a ``send`` and a timer, and never see the pending table, the resend
budget, sender succession, the reroute, the dead-letter stash or the round
gate.

Counters keep the ``harness.*`` names every driver has always reported them
under, and are created on first increment so a run that never reroutes
reports no reroute key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.identifiers import NodeId
from repro.core.kernel import TokenRoundKernel, stale_for
from repro.core.token import TokenOperation
from repro.sim.stats import MetricRegistry

__all__ = ["Notification", "ReliableNotifier"]


@dataclass
class Notification:
    """A reliable notification, from submission until it is accepted.

    ``target_ring_id`` remembers which ring's seen-set the operations were
    marked against at send time — after a repair excises the target, the ring
    itself survives, and a re-route must un-mark there or the surviving
    members would filter the retried operations as duplicates.
    """

    sender: NodeId
    target: NodeId
    operations: Tuple[TokenOperation, ...]
    target_ring_id: str
    attempts: int = 1
    #: Ring the sender belonged to at send time.  What a sender forwards was
    #: applied by its whole ring in the round that produced it, so when the
    #: sender dies mid-flight any surviving ring member can (and must) take
    #: over the send — else ring-applied state dies with the messenger.
    sender_ring_id: Optional[str] = None
    #: What ``arm`` returned for the armed unacked check (see there).
    timer: Optional[object] = None


class ReliableNotifier:
    """Ack-gated retry, reroute and dead-lettering over an injected transport.

    Every argument is a required collaborator; none selects behaviour.
    ``send(notify_id, entry)`` puts one attempt on the wire and returns how
    long to wait before checking for its acknowledgement; ``arm(delay,
    callback)`` runs the check later and may return an object with
    ``cancel()`` (cancelled on acknowledgement) or ``None`` (the acknowledged
    check then fires as a no-op); ``schedule_round(ring_id)`` asks the driver
    for a token round; ``resend_limit`` bounds attempts at a live target.
    """

    def __init__(
        self,
        kernel: TokenRoundKernel,
        metrics: MetricRegistry,
        *,
        now: Callable[[], float],
        send: Callable[[int, Notification], float],
        arm: Callable[[float, Callable[[], None]], Optional[object]],
        schedule_round: Callable[[str], None],
        resend_limit: int,
    ) -> None:
        self.kernel = kernel
        self.metrics = metrics
        self._now = now
        self._send = send
        self._arm = arm
        self._schedule_round = schedule_round
        self._resend_limit = resend_limit
        self._pending: Dict[int, Notification] = {}
        self._ids = itertools.count(1)
        # Notifications whose reroute found no usable fallback target (the
        # sender's whole parent ring died).  Held — never silently dropped —
        # and re-offered whenever a repair re-shapes the hierarchy.
        self._dead_letters: List[Notification] = []
        self._dead_letter_epoch = kernel.coverage_epoch

    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def dead_letters(self) -> List[Notification]:
        """Dead-lettered notifications still awaiting a usable fallback."""
        return list(self._dead_letters)

    # -- sender side ---------------------------------------------------------

    def notification(
        self, sender: NodeId, target: NodeId, operations: Sequence[TokenOperation]
    ) -> Notification:
        """The record for a kernel ``deliver_notification`` call."""
        hierarchy = self.kernel.hierarchy
        return Notification(
            sender,
            target,
            tuple(operations),
            hierarchy.ring_of(target).ring_id,
            sender_ring_id=hierarchy.ring_of_node.get(sender),
        )

    def submit(self, entry: Notification) -> None:
        """Send ``entry`` and keep re-sending until it is acknowledged.  The
        id lives as long as the notification: a receiver can only dedup a
        resend after a lost acknowledgement by a stable id."""
        self._transmit(next(self._ids), entry)

    def _transmit(self, notify_id: int, entry: Notification) -> None:
        self._pending[notify_id] = entry
        delay = self._send(notify_id, entry)
        entry.timer = self._arm(delay, lambda: self._check(notify_id))

    def acknowledge(self, notify_id: int) -> Optional[Notification]:
        """The receiver confirmed ``notify_id``; returns the entry, or
        ``None`` for a duplicate or unknown id (already handled)."""
        entry = self._pending.pop(notify_id, None)
        if entry is not None and entry.timer is not None:
            entry.timer.cancel()
        return entry

    def _check(self, notify_id: int) -> None:
        entry = self._pending.pop(notify_id, None)
        if entry is None:
            return  # acknowledged
        if not (self._alive(entry.target) and self._alive(entry.sender)):
            # An endpoint crashed while the message was in flight; resending
            # as-is is pointless (a dead sender is succeeded by a survivor of
            # its ring, a dead target by its repaired counterpart).
            self.reroute(entry)
        elif entry.attempts > self._resend_limit:
            # Alive but unreachable for the whole resend budget (e.g. an
            # unhealed disconnection): genuinely give up.  Un-mark the
            # seen-set so another path may still carry the operations.
            self.metrics.counter("harness.notify_abandoned").increment()
            self._unmark_seen(entry)
        else:
            self.metrics.counter("harness.notify_resends").increment()
            entry.attempts += 1
            self._transmit(notify_id, entry)

    def _unmark_seen(self, entry: Notification) -> None:
        seen = self.kernel.ring_seen.get(entry.target_ring_id)
        if seen is not None:
            seen.difference_update(op.sequence for op in entry.operations)

    # -- receiver side -------------------------------------------------------

    def accept(self, entry: Notification) -> None:
        """``entry`` reached its destination: insert and ask for a round."""
        kernel = self.kernel
        target = entry.target
        if target in kernel.failed or not kernel.hierarchy.has_node(target):
            self.reroute(entry)
            return
        entity = kernel.entity(target)
        ring_id = kernel.hierarchy.ring_of(target).ring_id
        now = self._now()
        inserted = False
        applied = kernel.ring_applied_seq.get(ring_id)
        for op in entry.operations:
            # A lost-and-resent notification can arrive after a newer
            # operation about the same member already circulated here; such
            # stale operations must not resurrect outdated state.
            if stale_for(applied, op):
                self.metrics.counter("harness.stale_ops_dropped").increment()
                continue
            entity.mq.insert(op, sender=entry.sender, now=now)
            inserted = True
        self.metrics.counter("harness.notifications_delivered").increment()
        if inserted:
            self._schedule_round(ring_id)

    # -- reroute + dead letters ----------------------------------------------

    def reroute(self, entry: Notification) -> None:
        """An endpoint died (or vanished) with the notification in flight:
        re-target it at the surviving counterpart, or stash it."""
        kernel = self.kernel
        target = entry.target
        sender = self._live_sender(entry)
        self.metrics.counter("harness.notify_rerouted").increment()
        # The operations never arrived: un-mark them from the ring they were
        # marked seen against, or the retry would be filtered as a duplicate.
        self._unmark_seen(entry)
        fallback = None
        if sender is not None:
            if target in kernel.failed and kernel.hierarchy.has_node(target):
                # Crashed but not yet excised: repair its ring here, not
                # inside ``forward_notification``, which returns 0 without a
                # trace when the repair leaves nobody to re-target — the
                # un-marked operations would be gone with no counter.
                kernel.detect_and_repair(target, self._now())
            if kernel.hierarchy.has_node(target) and target != sender:
                fallback = target  # alive: the sender was the casualty
            else:
                fallback = self._fallback(sender, target, entry.target_ring_id)
        if fallback is not None:
            kernel.forward_notification(sender, fallback, entry.operations, self._now())
            return
        # Nobody to send from (the sender's whole ring died) or nobody to
        # send to (the whole parent ring died, so the re-attachment surgery
        # left the sender's parent slot dangling at the excised target).
        # Dropping here would lose un-marked operations forever with no
        # signal: account them and stash the entry for `retry_dead_letters`.
        self.metrics.counter("harness.notify_dead_lettered").increment()
        self._dead_letters.append(entry)

    def _alive(self, node: Optional[NodeId]) -> bool:
        kernel = self.kernel
        return (
            node is not None
            and node not in kernel.failed
            and kernel.hierarchy.has_node(node)
        )

    def _live_sender(self, entry: Notification) -> Optional[NodeId]:
        """The entry's sender if it still lives, else a surviving member of
        the sender's ring (the operations are ring-applied state — any
        survivor legitimately re-sends them), else None."""
        hierarchy = self.kernel.hierarchy
        sender = entry.sender
        if self._alive(sender):
            return sender
        ring_id = entry.sender_ring_id or hierarchy.ring_of_node.get(sender)
        ring = hierarchy.rings.get(ring_id) if ring_id else None
        if ring is None:
            return None
        for candidate in itertools.chain((ring.leader,), ring.members):
            if self._alive(candidate):
                return candidate
        return None

    def _fallback(self, sender: NodeId, target: NodeId, target_ring_id: str) -> Optional[NodeId]:
        """The surviving counterpart for a notification whose target was
        repaired away, or None when there is none (yet)."""
        hierarchy = self.kernel.hierarchy
        ring = hierarchy.rings.get(target_ring_id)
        sender_ring = hierarchy.ring_of(sender)
        candidates: List[Optional[NodeId]] = []
        if ring is None or ring.tier >= sender_ring.tier:
            # Upward path: the sender's parent slot, as re-attached by repair.
            # Never offered to a downward notification — the parent ring has
            # already seen its operations and would filter them out unsent.
            candidates.append(self.kernel.entities[sender].parent)
            candidates.append(hierarchy.parent_node.get(sender_ring.ring_id))
        # Downward path (and the upward last resort): the target ring's
        # post-repair leader.
        candidates.append(ring.leader if ring is not None else None)
        for candidate in candidates:
            if candidate != target and self._alive(candidate):
                return candidate
        return None

    def retry_dead_letters(self) -> bool:
        """Re-inject dead letters once repair surgery (tracked via the
        kernel's coverage epoch) may have re-attached the sender's subtree
        under a live parent.  Entries whose fallback is still unusable stay
        stashed (and accounted) rather than being dropped."""
        kernel = self.kernel
        epoch = kernel.coverage_epoch
        if not self._dead_letters or epoch == self._dead_letter_epoch:
            return False
        self._dead_letter_epoch = epoch
        kept: List[Notification] = []
        for entry in self._dead_letters:
            sender = self._live_sender(entry)
            fallback = None
            if sender is not None:
                fallback = self._fallback(sender, entry.target, entry.target_ring_id)
            if fallback is None or fallback == sender:
                kept.append(entry)
                continue
            self.metrics.counter("harness.notify_reinjected").increment()
            kernel.forward_notification(sender, fallback, entry.operations, self._now())
        reinjected = len(kept) != len(self._dead_letters)
        self._dead_letters = kept
        return reinjected

    # -- round gate ----------------------------------------------------------

    def round_due(self, ring_id: str) -> bool:
        """Whether a scheduled round in ``ring_id`` has anything to do: a
        live member to run it, and a dead one to repair around or queued
        work."""
        ring = self.kernel.hierarchy.rings.get(ring_id)
        if ring is None:
            return False
        failed = self.kernel.failed
        dead = len(failed.intersection(ring.members)) if failed else 0
        return dead < len(ring.members) and (dead > 0 or self.kernel._ring_has_work(ring))

    def after_round(self, ring_id: str) -> None:
        """Follow-ups of a round the driver just ran in ``ring_id``."""
        # The round may have run repair surgery; give dead-lettered
        # notifications a chance to find their re-attached fallback.
        self.retry_dead_letters()
        # Repair ops (or work queued at other members) trigger a follow-up
        # round — control of a fresh token passes along the ring.
        kernel = self.kernel
        if kernel._ring_has_work(kernel.hierarchy.rings[ring_id]):
            self._schedule_round(ring_id)
