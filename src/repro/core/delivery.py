"""The one reliable-delivery core for Notification-to-Parent/Child messages.

The paper's reliability claim rests on one rule set: a notification is
retried until it lands, a crashed endpoint (``ParentOK``/``ChildOK`` false)
is repaired around and the message re-targeted at the surviving counterpart,
and nothing a ring has applied may die with its messenger.  That rule set
lives here, once, next to the kernel; the drivers that move bytes — the
simulator's ``TransportDispatch`` and the UDP node's ``SocketDispatch`` —
are adapters that supply a clock, a ``send`` and a timer, and never see the
retry, succession, reroute or dead-letter logic (the shape of a
``comm.on(type, handler)`` / ``comm.send(next, msg)`` seam, where the ring
logic never sees the socket).

:class:`ReliableNotifier` holds

* the **pending table** and the unacked check: every submitted notification
  is tracked under one id for its whole life, re-sent until acknowledged,
  re-routed when an endpoint died in flight, abandoned (with a counter,
  un-marking the seen-set) only after ``resend_limit`` attempts at a
  live-but-unreachable target;
* **accept**, the receiver side: the staleness filter in front of the
  target's message queue, then a round for the target's ring;
* **reroute**: sender succession, the fallback chain, and the dead-letter
  stash with its coverage-epoch-gated retry;
* the **round gate**: whether a scheduled ring round has anything to do, and
  the follow-up round when work remains.

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
    #: Ring the sender belonged to at send time.  The operations a sender
    #: forwards were applied by its whole ring in the round that produced
    #: them, so when the sender dies mid-flight any surviving ring member
    #: can (and must) take over the send — without this, ring-applied state
    #: dies with the messenger.
    sender_ring_id: Optional[str] = None
    #: Whatever ``arm`` returned for the armed unacked check (a cancellable,
    #: or ``None`` when the driver lets an acknowledged check fire as a no-op).
    timer: Optional[object] = None


class ReliableNotifier:
    """Ack-gated retry, reroute and dead-lettering over an injected transport.

    Collaborators (all required; none selects behaviour):

    ``kernel``, ``metrics``
        The kernel whose queues, seen-sets and repair logic the rules act
        on, and the registry the ``harness.*`` counters go to.
    ``now()``
        The driver's protocol clock.
    ``send(notify_id, entry) -> float``
        Put one attempt on the wire; returns how long to wait before checking
        whether it was acknowledged.
    ``arm(delay, callback)``
        Run ``callback()`` after ``delay``; may return an object with
        ``cancel()`` (cancelled on acknowledgement) or ``None``.
    ``schedule_round(ring_id)``
        Ask the driver for a token round in ``ring_id``.
    ``resend_limit``
        Attempts at a live target before the notification is abandoned.
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

    # -- read surface --------------------------------------------------------

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
        """Send ``entry`` and keep re-sending until it is acknowledged.

        The id is minted once and survives every resend: a receiver can only
        dedup a resend after a lost acknowledgement by a stable id.
        """
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
            # An endpoint crashed while the message was in flight;
            # resending as-is is pointless — re-route through the repair
            # logic now (a dead sender is succeeded by a surviving member
            # of its ring, a dead target by its repaired counterpart).
            self.reroute(entry)
            return
        if entry.attempts > self._resend_limit:
            # The target is alive but has been unreachable for the whole
            # resend budget (e.g. an unhealed disconnection): genuinely
            # give up.  Un-mark the seen-set so a later notification from
            # another path may still carry the operations.
            self.metrics.counter("harness.notify_abandoned").increment()
            self._unmark_seen(entry)
            return
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
        """The target died (or vanished) while the notification was in flight.

        Un-mark the operations from the target ring's seen-set — they never
        arrived — and push them back through the kernel's forwarding logic,
        which repairs the failed target's ring and re-targets the surviving
        counterpart (new leader or new parent).
        """
        kernel = self.kernel
        target = entry.target
        sender = self._live_sender(entry)
        self.metrics.counter("harness.notify_rerouted").increment()
        # The operations never arrived: un-mark them from the ring they were
        # marked seen against, or the retry would be filtered as a duplicate.
        self._unmark_seen(entry)
        if sender is None:
            # The sender and its whole ring died with the operations in
            # flight; stash them — nothing on that side can re-send today,
            # but a later repair may re-shape a path.
            self._dead_letter(entry)
            return
        if target in kernel.failed and kernel.hierarchy.has_node(target):
            # Crashed but not yet excised: repair its ring here rather than
            # inside ``forward_notification``, which returns 0 without a
            # trace when the repair leaves nobody to re-target — the
            # operations, already un-marked, would be gone with no counter.
            kernel.detect_and_repair(target, self._now())
        if kernel.hierarchy.has_node(target) and target != sender:
            kernel.forward_notification(sender, target, entry.operations, self._now())
            return
        # Repaired away: fall back to the surviving counterpart —
        # the sender's current parent for upward notifications (the repair
        # surgery re-attached orphaned rings there), or the target ring's
        # post-repair leader for downward dissemination (mirroring what
        # ``forward_notification`` does when it runs the repair itself).
        fallback = self._fallback(sender, target, entry.target_ring_id)
        if fallback is not None:
            kernel.forward_notification(sender, fallback, entry.operations, self._now())
            return
        # No usable fallback: the sender's whole parent ring died, so the
        # re-attachment surgery had nowhere to point the orphaned subtree
        # and the sender's parent slot still dangles at the excised target.
        # These operations were already un-marked from the seen-set; dropping
        # them here would lose them forever with no signal.  Dead-letter
        # them instead: account the loss and stash the entry so the next
        # repair that gives the sender a live parent re-injects them.
        self._dead_letter(entry)

    def _dead_letter(self, entry: Notification) -> None:
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
        """Re-inject dead-lettered notifications once repair re-shapes things.

        A notification is dead-lettered when its reroute found no usable
        fallback — the sender's parent slot dangled at the excised target
        because the whole parent ring died.  Any later repair surgery
        (tracked via the kernel's coverage epoch) may have re-attached the
        sender's subtree under a live parent; re-offer the stashed
        operations then.  Entries whose fallback is still unusable stay
        stashed (and accounted) rather than being dropped.
        """
        if not self._dead_letters:
            return False
        kernel = self.kernel
        epoch = kernel.coverage_epoch
        if epoch == self._dead_letter_epoch:
            return False
        self._dead_letter_epoch = epoch
        kept: List[Notification] = []
        reinjected = False
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
            reinjected = True
        self._dead_letters = kept
        return reinjected

    # -- round gate ----------------------------------------------------------

    def round_due(self, ring_id: str) -> bool:
        """Whether a scheduled round in ``ring_id`` has anything to do: a
        live member to run it, and queued work or a dead member to repair
        around."""
        kernel = self.kernel
        ring = kernel.hierarchy.rings.get(ring_id)
        if ring is None or ring.is_empty:
            return False
        failed = kernel.failed
        entities = kernel.entities
        has_work = False
        operational = 0
        for n in ring.members:
            if n in failed:
                continue
            operational += 1
            if not has_work and entities[n].has_queued_work():
                has_work = True
        return operational > 0 and (has_work or operational != len(ring.members))

    def after_round(self, ring_id: str) -> None:
        """Follow-ups of a round the driver just ran in ``ring_id``."""
        # The round may have run repair surgery; give dead-lettered
        # notifications a chance to find their re-attached fallback.
        self.retry_dead_letters()
        # Repair ops (or work queued at other members) trigger a follow-up
        # round — control of a fresh token passes along the ring.
        kernel = self.kernel
        failed = kernel.failed
        entities = kernel.entities
        for n in kernel.hierarchy.rings[ring_id].members:
            if n not in failed and entities[n].has_queued_work():
                self._schedule_round(ring_id)
                break
