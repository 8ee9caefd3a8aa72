"""The self-optimising message queue of a network entity (paper Section 4.2).

Each network entity owns an ``MQ`` — a message queue "which is self-optimized
for aggregating some successive messages into one for further processing".
Membership change messages from attached mobile hosts, notifications from
child ring leaders and locally detected faults all land here; when the entity
starts a token round it drains the queue and the drained operations become the
token's aggregated ``OP``.

Aggregation rules
-----------------
Successive operations about the *same member* collapse:

* join followed by leave (before propagation) cancels to nothing;
* join followed by handoff collapses to a join at the new access proxy;
* handoff followed by handoff keeps only the latest attachment;
* leave/failure after any earlier operation supersedes it;
* duplicate identical operations collapse to one.

Operations about different members (or about network entities) never
interfere with each other and preserve arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.identifiers import NodeId
from repro.core.token import TokenOperation, TokenOperationType


@dataclass(frozen=True, slots=True)
class QueuedMessage:
    """One entry in a message queue."""

    operation: TokenOperation
    sender: NodeId
    enqueued_at: float


class MessageQueue:
    """Aggregating FIFO of membership change operations.

    Entries are kept in an insertion-ordered dict indexed by member GUID
    (network-entity operations and non-aggregated entries get synthetic keys),
    so every insert — including the aggregation merge — is O(1).  The seed
    implementation rescanned the whole queue per insert, which made large
    notification batches quadratic and dominated 100k-proxy propagations.

    Aggregation moves the merged entry to the back of the queue, exactly as
    the seed's rebuild did.

    The instance is ``__slots__``-compact and the entry dict is allocated on
    first insert: a million-proxy hierarchy creates one queue per entity at
    build time, and the overwhelming majority never hold a message.

    Parameters
    ----------
    owner:
        The network entity that owns this queue (for diagnostics).
    aggregate:
        When False the queue degrades to a plain FIFO with no collapsing; the
        ablation benchmark compares both modes.
    """

    __slots__ = (
        "owner",
        "aggregate",
        "_entries",
        "_unkeyed",
        "total_enqueued",
        "total_aggregated_away",
        "on_enqueue",
    )

    def __init__(self, owner: NodeId, aggregate: bool = True) -> None:
        self.owner = owner
        self.aggregate = aggregate
        self._entries: Optional[Dict[object, QueuedMessage]] = None
        self._unkeyed = 0
        self.total_enqueued = 0
        self.total_aggregated_away = 0
        #: Optional zero-argument callback invoked on every insert().  The
        #: kernel binds it to mark the owning ring as having pending work, so
        #: ``pending_rings`` never has to scan every queue of every ring —
        #: and the hook fires no matter which layer performed the insert.
        self.on_enqueue = None

    def __len__(self) -> int:
        entries = self._entries
        return len(entries) if entries is not None else 0

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def _store(self) -> Dict[object, QueuedMessage]:
        entries = self._entries
        if entries is None:
            entries = {}
            self._entries = entries
        return entries

    def insert(self, operation: TokenOperation, sender: NodeId, now: float) -> None:
        """Insert one operation (``MQ.Insert`` in the paper's pseudocode)."""
        self.total_enqueued += 1
        if self.on_enqueue is not None:
            self.on_enqueue()
        entries = self._store()
        entry = QueuedMessage(operation=operation, sender=sender, enqueued_at=now)
        if not self.aggregate:
            entries[self._unkeyed] = entry
            self._unkeyed += 1
            return
        if operation.member is None:
            # Network-entity operations: only collapse exact duplicates (the
            # earlier entry keeps its queue position).
            key = ("ne", operation.op_type, operation.entity)
            if key in entries:
                self.total_aggregated_away += 1
                return
            entries[key] = entry
            return
        key = operation.member.guid.value
        pending_for_member = entries.pop(key, None)
        merged = self._merge_member_ops(pending_for_member, entry)
        if merged is None:
            # The pair cancelled out entirely (join then leave).
            self.total_aggregated_away += 2 if pending_for_member is not None else 1
            return
        if pending_for_member is not None:
            self.total_aggregated_away += 1
        entries[key] = merged

    @staticmethod
    def _merge_member_ops(
        earlier: Optional[QueuedMessage], later: QueuedMessage
    ) -> Optional[QueuedMessage]:
        """Collapse two queued operations about the same member.

        "Earlier"/"later" follow the operations' capture *sequence*, not their
        arrival order: a lossy transport can deliver an older operation after
        a newer one, and the newer state must win the aggregation either way.
        """
        if earlier is None:
            return later
        if earlier.operation.sequence > later.operation.sequence:
            earlier, later = later, earlier
        e, l = earlier.operation, later.operation
        # Identical repeated operation: keep the earlier one.
        if e.op_type is l.op_type and e.member == l.member:
            return earlier
        if e.op_type is TokenOperationType.MEMBER_JOIN:
            if l.op_type in (TokenOperationType.MEMBER_LEAVE, TokenOperationType.MEMBER_FAILURE):
                return None  # never propagated: join cancelled by departure
            if l.op_type is TokenOperationType.MEMBER_HANDOFF:
                # Propagate a single join at the member's latest location.
                collapsed = replace(l, op_type=TokenOperationType.MEMBER_JOIN, previous_ap=None)
                return QueuedMessage(
                    operation=collapsed, sender=later.sender, enqueued_at=earlier.enqueued_at
                )
        if e.op_type is TokenOperationType.MEMBER_HANDOFF:
            if l.op_type is TokenOperationType.MEMBER_HANDOFF:
                # Keep the original previous_ap, latest destination.
                collapsed = replace(l, previous_ap=e.previous_ap)
                return QueuedMessage(
                    operation=collapsed, sender=later.sender, enqueued_at=earlier.enqueued_at
                )
        # Default: the later operation supersedes the earlier one.
        return later

    def drain(self) -> Tuple[TokenOperation, ...]:
        """Remove and return all queued operations in order."""
        store = self._entries
        if not store:
            return ()
        operations = tuple(entry.operation for entry in store.values())
        store.clear()
        return operations

    def drain_entries(self) -> Tuple[QueuedMessage, ...]:
        """Remove and return all queued entries (with sender metadata)."""
        store = self._entries
        if not store:
            return ()
        entries = tuple(store.values())
        store.clear()
        return entries

    def peek(self) -> Tuple[TokenOperation, ...]:
        """Queued operations without removing them."""
        store = self._entries
        if not store:
            return ()
        return tuple(entry.operation for entry in store.values())

    def senders(self) -> List[NodeId]:
        """Distinct senders of the currently queued entries."""
        seen: Dict[NodeId, None] = {}
        for entry in self._entries.values() if self._entries else ():
            seen.setdefault(entry.sender, None)
        return list(seen)
