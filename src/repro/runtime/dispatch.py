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
  must not double-insert).
* **Holder-acks** are fire-and-forget datagrams when the acked child sender
  lives on another shard (no receiver-side state, as in the sim).
* **Token hops** circulate between members of one ring — always one shard —
  so the datagram is a self-addressed loopback send: the hop still crosses
  the wire codec and socket (the sim's fire-and-forget ``MSG_TOKEN`` lane,
  made physical) without inventing a phantom remote receiver.
"""

from __future__ import annotations

from typing import Sequence, Set, Tuple

from repro.core.delivery import Notification, ReliableNotifier
from repro.core.identifiers import NodeId, coerce_node
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
        #: (sender_shard, notify_id) pairs already inserted (resend dedup).
        self._delivered: Set[Tuple[int, int]] = set()

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
                {"holder": holder.value, "target": target.value},
            )

    def token_hop(
        self, kernel: TokenRoundKernel, sender: NodeId, receiver: NodeId, now: float
    ) -> None:
        # Ring-local by construction (one owner per ring): a physical
        # loopback self-send keeps the token lane on the wire.
        self.node.send_to_self(
            wire.MSG_TOKEN, {"sender": sender.value, "receiver": receiver.value}
        )

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
                "sender": entry.sender.value,
                "target": entry.target.value,
                "ring": ring_id,
                "ops": entry.operations,
            },
        )
        return node.config.resend_backoff

    # -- receiver side (wired from the node's datagram handlers) ------------

    def on_notify(self, message: wire.WireMessage) -> None:
        node = self.node
        payload = message.payload
        notify_id = int(payload["id"])
        # Always ack: the sender retries until it hears us, and a duplicate
        # means exactly that a previous ack was lost (or is still in flight).
        node.send_to_shard(message.sender_shard, wire.MSG_NOTIFY_ACK, {"id": notify_id})
        key = (message.sender_shard, notify_id)
        if key in self._delivered:
            node.metrics.counter("runtime.notify_duplicates").increment()
            return
        self._delivered.add(key)
        self.notifier.accept(
            Notification(
                sender=coerce_node(payload["sender"]),
                target=coerce_node(payload["target"]),
                operations=tuple(payload["ops"]),
                target_ring_id=payload["ring"],
            )
        )

    def on_notify_ack(self, message: wire.WireMessage) -> None:
        self.notifier.acknowledge(int(message.payload["id"]))
