"""Batched membership deltas (the kernel's bulk-application currency).

The seed implementation applied every :class:`repro.core.token.TokenOperation`
to every member list one record at a time, re-deriving sorted GUID lists per
operation — an ``O(ops × view × log view)`` pattern that capped the Table I
scalability study far below the "millions of users" target.

A :class:`MembershipDelta` compiles an aggregated operation batch *once per
token round* into set-based form:

* per-GUID **net effect** — when a batch carries several operations about the
  same member (possible with MQ aggregation disabled), only the last one
  determines the final view state, so earlier ones are dropped up front;
* **pre-resolved records** — the ``with_status(...)`` record rewrite that
  :meth:`repro.core.membership.MembershipView.apply` performed per view is
  done once at compile time and shared by every view the delta is applied to
  (every member of every ring the token visits);
* **single-pass application** — :meth:`repro.core.membership.MembershipView.apply_delta`
  consumes the delta with one dict operation per net change and O(1)
  membership probes instead of sorted-list scans.

Compiling is O(batch); applying is O(net changes) per view.  Applying a delta
to a :class:`repro.core.membership.MembershipView` leaves member lists
identical to sequential per-operation application (property-tested in
``tests/test_deltas_property.py``); only *intermediate* events for superseded
operations are elided.  Engine-level bottom-tier local/neighbour bookkeeping
likewise sees the net batch — the same outcome the aggregating message queue
produces on the default path, where a token never carries two operations
about one member in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.identifiers import GloballyUniqueId
from repro.core.member import MemberInfo, MemberStatus
from repro.core.token import TokenOperation, TokenOperationType

_ADD_OPS = frozenset(
    (TokenOperationType.MEMBER_JOIN, TokenOperationType.MEMBER_HANDOFF)
)


@dataclass(frozen=True)
class DeltaEntry:
    """One net membership change: the operation plus its resolved record.

    ``resolved`` is the exact record a view stores when the entry is an
    addition (join/handoff with status already forced to OPERATIONAL), or
    ``None`` when the entry removes the member (leave/failure).
    ``guid_value`` is the member's GUID as a plain string, precomputed once so
    every view the delta visits probes its string-keyed store directly.
    """

    operation: TokenOperation
    resolved: Optional[MemberInfo]
    guid_value: str = ""

    @property
    def guid(self) -> GloballyUniqueId:
        assert self.operation.member is not None
        return self.operation.member.guid


class MembershipDelta:
    """The net, pre-resolved view change of one aggregated operation batch.

    Build one with :meth:`from_operations` (or incrementally through
    :class:`DeltaBuilder`) and hand it to
    :meth:`repro.core.membership.MembershipView.apply_delta`.
    :meth:`repro.core.kernel.TokenRoundKernel.run_round` compiles one per
    round and applies it at every visited entity, which also maintains the
    local/neighbour lists of bottom-tier entities.
    """

    __slots__ = ("entries", "ne_operations", "source_count")

    def __init__(
        self,
        entries: Sequence[DeltaEntry],
        ne_operations: Sequence[TokenOperation] = (),
        source_count: int = 0,
    ) -> None:
        self.entries: Tuple[DeltaEntry, ...] = tuple(entries)
        self.ne_operations: Tuple[TokenOperation, ...] = tuple(ne_operations)
        self.source_count = source_count or (len(self.entries) + len(self.ne_operations))

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_operations(cls, operations: Iterable[TokenOperation]) -> "MembershipDelta":
        """Compile an operation sequence into its net, pre-resolved delta."""
        builder = DeltaBuilder()
        for op in operations:
            builder.add(op)
        return builder.build()

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries) + len(self.ne_operations)

    @property
    def is_empty(self) -> bool:
        return not self.entries and not self.ne_operations

    def guids(self) -> List[str]:
        """GUIDs touched by the member entries, in net-application order."""
        return [str(entry.guid) for entry in self.entries]

    def describe(self) -> str:
        parts = [entry.operation.describe() for entry in self.entries]
        parts.extend(op.describe() for op in self.ne_operations)
        return f"MembershipDelta[{', '.join(parts) or 'empty'}]"


class DeltaBuilder:
    """Accumulates token operations into a :class:`MembershipDelta`.

    Later operations about the same member supersede earlier ones (the same
    last-write-wins rule sequential view application follows), while the
    relative order of distinct members tracks the last occurrence of each, so
    event emission order matches the per-operation path for the common case of
    one operation per member per batch.
    """

    def __init__(self) -> None:
        self._member_entries: Dict[GloballyUniqueId, DeltaEntry] = {}
        self._ne_ops: List[TokenOperation] = []
        self._count = 0

    def add(self, operation: TokenOperation) -> "DeltaBuilder":
        self._count += 1
        if not operation.op_type.concerns_member or operation.member is None:
            self._ne_ops.append(operation)
            return self
        member = operation.member
        if operation.op_type in _ADD_OPS:
            resolved = (
                member
                if member.status is MemberStatus.OPERATIONAL
                else member.with_status(MemberStatus.OPERATIONAL)
            )
        else:
            resolved = None
        # Re-inserting moves the guid to the end: last occurrence order.
        self._member_entries.pop(member.guid, None)
        self._member_entries[member.guid] = DeltaEntry(
            operation=operation, resolved=resolved, guid_value=member.guid.value
        )
        return self

    def extend(self, operations: Iterable[TokenOperation]) -> "DeltaBuilder":
        for operation in operations:
            self.add(operation)
        return self

    def build(self) -> MembershipDelta:
        return MembershipDelta(
            entries=list(self._member_entries.values()),
            ne_operations=self._ne_ops,
            source_count=self._count,
        )
