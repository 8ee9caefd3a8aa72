"""``SocketDispatch``: the kernel's message seam over real UDP datagrams.

Third driver of the :class:`repro.core.kernel.MessageDispatch` seam (after
``DirectDispatch`` and the sim's ``TransportDispatch``).  A node process
owns whole rings; its kernel replica runs rounds only for those rings, and
this dispatch routes the round's notifications.  Token hops and
Holder-Acknowledgements change no receiver's state, so, as in
``DirectDispatch``, they never leave the kernel, whose ``hops.token`` and
``messages.holder_ack`` counters are the shard's account of them.

Notifications are reliable within a budget; the rules (resend until
acknowledged, reroute when an endpoint crashed, abandon after
``resend_limit`` attempts at a live target, dead-letter when no fallback
exists) are the shared :class:`repro.core.delivery.ReliableNotifier`,
``notifier`` — the object the simulator drives too.  Here is only what is
the socket's: the owner-shard lookup, handing a same-shard target straight
to ``accept``, the NOTIFY/NOTIFY_ACK datagrams, and on receive the
always-ack plus ``(sender_shard, id)`` dedup (a resend after a lost ack
must not double-insert).  A NOTIFY is taken only for a ring this shard
owns, from a sender whose ring its claimed shard owns; anything else is a
wire error, dropped unacked.  Each NOTIFY carries its sender's low-water
mark (``ReliableNotifier.low_water``), so the dedup state per sender is
only the ids at or above the mark.  An id below it is a duplicate: a late
copy of a notification its sender has since abandoned or rerouted (the
reroute sent the operations under a new id) is acked and dropped.

Payloads carry :class:`~repro.core.identifiers.NodeId` values; the wire
codec writes their strings and rebuilds them on receipt.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set, Tuple

from repro.core.delivery import Notification, ReliableNotifier
from repro.core.identifiers import NodeId
from repro.core.kernel import MessageDispatch, TokenRoundKernel
from repro.core.token import TokenOperation
from repro.runtime import wire

__all__ = ["SocketDispatch"]


class SocketDispatch(MessageDispatch):
    """Routes kernel messages between shard processes over UDP.

    ``node`` is the owning :class:`repro.runtime.node.NodeRuntime` (or any
    duck-type with its routing surface: ``kernel``, ``loop``, ``plan``,
    ``shard_id``, ``metrics``, ``config``, ``send_to_shard``, ``vnow`` and
    ``schedule_round``).
    """

    def __init__(self, node) -> None:
        self.node = node
        #: Per sender shard, its latest low-water mark and the notify ids at
        #: or above it already inserted (resend dedup).
        self._delivered: Dict[int, Tuple[int, Set[int]]] = {}

    def bind(self, kernel: TokenRoundKernel) -> None:
        """Create the delivery core (the kernel it acts on is itself
        constructed with this dispatch, so it arrives second)."""
        node = self.node
        self.notifier = ReliableNotifier(
            kernel,
            node.metrics,
            now=node.vnow,
            send=self._send,
            arm=node.loop.call_later,
            schedule_round=node.schedule_round,
            resend_limit=node.config.resend_limit,
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
        if self.node.plan.owner_of_ring(entry.target_ring_id) == self.node.shard_id:
            self.notifier.accept(entry)  # same shard: never touches the socket
        else:
            self.notifier.submit(entry)

    # -- read surface (the node's idle() and result()) ----------------------

    def pending_count(self) -> int:
        return self.notifier.pending_count()

    def dead_letter_count(self) -> int:
        return len(self.notifier.dead_letters)

    # -- the notifier's transport -------------------------------------------

    def _send(self, notify_id: int, entry: Notification) -> float:
        node = self.node
        ring_id = entry.target_ring_id
        node.send_to_shard(
            node.plan.owner_of_ring(ring_id),
            wire.MSG_NOTIFY,
            {
                "id": notify_id,
                "sender": entry.sender,
                "target": entry.target,
                "ring": ring_id,
                "ops": entry.operations,
                "low": self.notifier.low_water(),
            },
        )
        return node.config.resend_backoff

    # -- receiver side (wired from the node's datagram handlers) ------------

    def on_notify(self, message: wire.WireMessage) -> None:
        node = self.node
        payload = message.payload
        owner = node.plan.ring_owner.get
        sender_ring = node.kernel.hierarchy.ring_of_node.get(payload["sender"])
        if (
            owner(payload["ring"]) != node.shard_id
            or sender_ring is None
            or owner(sender_ring) != message.sender_shard
        ):
            # Schema-valid but not a notification any peer could have sent
            # here: a ring another shard owns, or a sender its shard does not
            # host.  No ack, so an honest sender's retry logic takes over.
            node.metrics.counter("runtime.wire_errors").increment()
            return
        notify_id = payload["id"]
        # Always ack: the sender retries until it hears us, and a duplicate
        # means exactly that a previous ack was lost (or is still in flight).
        node.send_to_shard(message.sender_shard, wire.MSG_NOTIFY_ACK, {"id": notify_id})
        low, seen = self._delivered.get(message.sender_shard, (0, set()))
        mark = payload["low"]
        if mark > low:  # marks only advance; a reordered datagram's may lag
            low, seen = mark, {i for i in seen if i >= mark}
        self._delivered[message.sender_shard] = (low, seen)
        if notify_id < low or notify_id in seen:
            node.metrics.counter("runtime.notify_duplicates").increment()
            return
        seen.add(notify_id)
        self.notifier.accept(
            Notification(
                sender=payload["sender"],
                target=payload["target"],
                operations=payload["ops"],
                target_ring_id=payload["ring"],
            )
        )

    def on_notify_ack(self, message: wire.WireMessage) -> None:
        self.notifier.acknowledge(message.payload["id"])
