"""``SocketDispatch``: the kernel's message seam over real UDP datagrams.

Third driver of the :class:`repro.core.kernel.MessageDispatch` seam (after
``DirectDispatch`` and the sim's ``TransportDispatch``).  A node process
owns whole rings; its kernel replica runs rounds only for those rings, and
this dispatch routes the round's outbound messages:

* **Notifications** are reliable within a budget; the rules (resend until
  acknowledged, reroute when an endpoint crashed, abandon after
  ``resend_limit`` attempts at a live target, dead-letter when no fallback
  exists) are the shared :class:`repro.core.delivery.ReliableNotifier`,
  ``notifier`` — the object the simulator drives too.  Here is only what is
  the socket's: the owner-shard lookup, handing a same-shard target straight
  to ``accept``, the NOTIFY/NOTIFY_ACK datagrams, and on receive the
  always-ack plus ``(sender_shard, id)`` dedup (a resend after a lost ack
  must not double-insert).  Each NOTIFY carries its sender's low-water
  mark (``ReliableNotifier.low_water``), so the dedup state per sender is
  only the ids at or above the mark.  An id below it is a duplicate: a late
  copy of a notification its sender has since abandoned or rerouted (the
  reroute sent the operations under a new id) is acked and dropped.
* **Holder-acks** are fire-and-forget datagrams when the acked child sender
  lives on another shard (no receiver-side state, as in the sim).
* **Token hops** circulate between members of one ring — always one shard —
  so each hop is a self-addressed ``MSG_TOKEN`` message: it still crosses
  the wire codec and the socket (the sim's fire-and-forget token lane, made
  physical) without inventing a phantom remote receiver.  The node's outbox
  packs a round's hops into one self-addressed datagram at the loop's turn
  end, and the receiver counts the messages (``runtime.token_datagrams``).

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
    ``shard_id``, ``metrics``, ``config``, ``send_to_shard``,
    ``send_to_self``, ``vnow`` and ``schedule_round``).
    """

    emits_token_messages = True

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

    def deliver_holder_ack(
        self, kernel: TokenRoundKernel, holder: NodeId, target: NodeId, now: float
    ) -> None:
        ring_id = kernel.hierarchy.ring_of_node.get(target)
        owner = self.node.plan.owner_of_ring(ring_id) if ring_id is not None else None
        if owner is not None and owner != self.node.shard_id:
            self.node.send_to_shard(
                owner,
                wire.MSG_HOLDER_ACK,
                {"holder": holder, "target": target},
            )

    def token_hop(
        self, kernel: TokenRoundKernel, sender: NodeId, receiver: NodeId, now: float
    ) -> None:
        # Ring-local by construction (one owner per ring): a physical
        # loopback self-send keeps the token lane on the wire.
        self.node.send_to_self(wire.MSG_TOKEN, {"sender": sender, "receiver": receiver})

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
