"""Membership views and membership change events.

A :class:`MembershipView` is the list of currently operational members a
network entity believes are in the group — the paper's
``ListOfLocalMembers`` / ``ListOfRingMembers`` / ``ListOfNeighborMembers`` are
all instances with different scopes.  Views are updated by applying
:class:`repro.core.token.TokenOperation` records (what tokens carry) and emit
:class:`MembershipEvent` records describing the change for applications.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.deltas import MembershipDelta
from repro.core.identifiers import GloballyUniqueId, GroupId, NodeId
from repro.core.member import MemberInfo, MemberStatus
from repro.core.token import TokenOperation, TokenOperationType


class MembershipEventType(enum.Enum):
    """Kinds of membership change events exposed to applications."""

    JOIN = "join"
    LEAVE = "leave"
    HANDOFF = "handoff"
    FAILURE = "failure"
    VIEW_CHANGE = "view-change"


@dataclass(frozen=True)
class MembershipEvent:
    """One membership change as observed at a network entity."""

    event_type: MembershipEventType
    time: float
    observer: NodeId
    member: Optional[MemberInfo] = None
    previous_ap: Optional[NodeId] = None
    view_size: int = 0


_EVENT_FOR_OP = {
    TokenOperationType.MEMBER_JOIN: MembershipEventType.JOIN,
    TokenOperationType.MEMBER_LEAVE: MembershipEventType.LEAVE,
    TokenOperationType.MEMBER_HANDOFF: MembershipEventType.HANDOFF,
    TokenOperationType.MEMBER_FAILURE: MembershipEventType.FAILURE,
}


def event_type_for(op_type: TokenOperationType) -> MembershipEventType:
    """The membership event type a member operation produces when it changes a view."""
    return _EVENT_FOR_OP[op_type]


#: Shared store of every empty view.  A million-proxy hierarchy creates three
#: views per entity and most never hold a member; pointing them all at one
#: immutable-by-convention dict keeps them read-probe-compatible (``in``,
#: ``len``, ``.get``) at zero per-view cost.  All mutation paths swap in a
#: private dict first (see ``_store``); nothing may ever write through this
#: reference.
_EMPTY_STORE: Dict[str, MemberInfo] = {}


#: Entries the change log keeps.  A reader more than this many bumps behind
#: has fallen off the log and must assume everything moved.
LOG_SIZE = 1 << 16
_LOG_MASK = LOG_SIZE - 1


class _Generation:
    """A generation counter with a bounded log of what each bump moved.

    Importers share the object, so they see every bump.  Bump ``n`` stores
    the object that moved at slot ``n % LOG_SIZE``: generation to log
    position is arithmetic, and the last ``LOG_SIZE`` bumps can be read back.
    """

    __slots__ = ("value", "log")

    def __init__(self) -> None:
        self.value = 0
        self.log: List[object] = [None] * LOG_SIZE

    def bump(self, moved: object) -> None:
        value = self.value + 1
        self.value = value
        self.log[value & _LOG_MASK] = moved

    def since(self, generation: int) -> Optional[List[object]]:
        """The objects bumped after ``generation`` (one per bump), or None
        when that generation has fallen off the log."""
        count = self.value - generation
        if count > LOG_SIZE:
            return None
        start = (generation + 1) & _LOG_MASK
        stop = start + count
        if stop <= LOG_SIZE:
            return self.log[start:stop]
        return self.log[start:] + self.log[: stop - LOG_SIZE]


#: Process-wide membership generation: bumped by every write that actually
#: changes a :class:`MembershipView` and by every :class:`LogicalRing` shape
#: change, at the mutation site — so it moves on every driver, inside or
#: outside a round, with nothing to wire.  Each bump logs the view or ring
#: that moved.  An unchanged value proves nothing moved since an earlier
#: reading; otherwise :meth:`_Generation.since` names what did.  It is
#: monotonic and shared by every kernel in the process, so a write to an
#: unrelated view costs a reader one log scan, never a stale answer.  The log
#: holds the objects themselves, so an identity in it cannot be reused by a
#: new object while the entry is still readable.
GENERATION = _Generation()


class MembershipView:
    """A set of operational member records with change application.

    The view is keyed by member GUID.  Applying an operation is idempotent:
    re-applying the same join or removal leaves the view unchanged and reports
    ``changed=False``, which is what makes the one-round algorithm safe to
    deliver the same aggregated operation to a node more than once (e.g. when
    a token is retransmitted).
    """

    __slots__ = ("scope", "owner", "group", "_members", "version")

    def __init__(self, scope: str, owner: NodeId, group: GroupId) -> None:
        self.scope = scope
        self.owner = owner
        self.group = group
        # Keyed by the GUID's plain string value: str hashing is C-level and
        # cached, which matters because the kernel probes these dicts once per
        # delta entry per visited entity.
        self._members: Dict[str, MemberInfo] = _EMPTY_STORE
        self.version = 0

    def _store(self) -> Dict[str, MemberInfo]:
        """The private, writable member store (allocated on first write)."""
        members = self._members
        if members is _EMPTY_STORE:
            members = {}
            self._members = members
        return members

    def __getstate__(self):
        members = self._members
        return (
            self.scope,
            self.owner,
            self.group,
            None if members is _EMPTY_STORE else members,
            self.version,
        )

    def __setstate__(self, state) -> None:
        self.scope, self.owner, self.group, members, self.version = state
        self._members = _EMPTY_STORE if members is None else members

    @staticmethod
    def _key(guid: object) -> str:
        if isinstance(guid, str):
            return guid
        if isinstance(guid, GloballyUniqueId):
            return guid.value
        if isinstance(guid, MemberInfo):
            return guid.guid.value
        return str(guid)

    # -- read side -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, guid: object) -> bool:
        return self._key(guid) in self._members

    def get(self, guid: "GloballyUniqueId | str") -> Optional[MemberInfo]:
        return self._members.get(self._key(guid))

    def members(self) -> List[MemberInfo]:
        """Current members sorted by GUID (deterministic)."""
        return [self._members[k] for k in sorted(self._members)]

    def guids(self) -> List[str]:
        return sorted(self._members)

    def members_at(self, ap: "NodeId | str") -> List[MemberInfo]:
        """Members currently attached to access proxy ``ap``."""
        ap_value = ap.value if isinstance(ap, NodeId) else str(ap)
        return [m for m in self.members() if m.ap.value == ap_value]

    def raw_records(self) -> Dict[str, MemberInfo]:
        """The internal GUID-keyed record map — treat as read-only.

        The serving layer's capture hook: a snapshot frame merges leader
        views with one C-level ``dict.update`` per view instead of sorting
        each view through :meth:`members`.  Callers must copy before
        mutating; records themselves are immutable.
        """
        return self._members

    # -- write side -------------------------------------------------------------

    def add(self, member: MemberInfo) -> bool:
        """Add or refresh a member record.  Returns True if the view changed."""
        key = member.guid.value
        members = self._members
        existing = members.get(key)
        if existing == member:
            return False
        if members is _EMPTY_STORE:
            members = self._store()
        members[key] = member
        self.version += 1
        GENERATION.bump(self)
        return True

    def remove(self, guid: "GloballyUniqueId | str") -> bool:
        """Remove a member.  Returns True if it was present."""
        if self._members.pop(self._key(guid), None) is None:
            return False
        self.version += 1
        GENERATION.bump(self)
        return True

    def apply(self, operation: TokenOperation, time: float) -> Optional[MembershipEvent]:
        """Apply one token operation; returns the event if the view changed.

        Network-entity operations (NE-Join/Leave/Failure) do not change the
        member view directly — they matter for the hierarchy layer — so they
        return ``None`` here.
        """
        if not operation.op_type.concerns_member or operation.member is None:
            return None
        member = operation.member
        changed: bool
        if operation.op_type is TokenOperationType.MEMBER_JOIN:
            changed = self.add(member.with_status(MemberStatus.OPERATIONAL))
        elif operation.op_type is TokenOperationType.MEMBER_HANDOFF:
            changed = self.add(member.with_status(MemberStatus.OPERATIONAL))
        elif operation.op_type is TokenOperationType.MEMBER_LEAVE:
            changed = self.remove(member.guid)
        elif operation.op_type is TokenOperationType.MEMBER_FAILURE:
            changed = self.remove(member.guid)
        else:  # pragma: no cover - exhaustive over member ops
            return None
        if not changed:
            return None
        return MembershipEvent(
            event_type=_EVENT_FOR_OP[operation.op_type],
            time=time,
            observer=self.owner,
            member=member,
            previous_ap=operation.previous_ap,
            view_size=len(self),
        )

    def apply_delta(self, delta: MembershipDelta, time: float) -> List[MembershipEvent]:
        """Single-pass application of a compiled delta (the batched hot path).

        One dict operation per net change; the per-member status rewrite was
        already done when the delta was compiled, so applying the same delta
        at every member of a ring shares that work instead of repeating it.
        """
        events: List[MembershipEvent] = []
        members = self._members
        changed = 0
        for entry in delta.entries:
            operation = entry.operation
            resolved = entry.resolved
            key = entry.guid_value
            if resolved is not None:
                if members.get(key) == resolved:
                    continue
                if members is _EMPTY_STORE:
                    members = self._store()
                members[key] = resolved
            else:
                if members.pop(key, None) is None:
                    continue
            changed += 1
            events.append(
                MembershipEvent(
                    event_type=_EVENT_FOR_OP[operation.op_type],
                    time=time,
                    observer=self.owner,
                    member=operation.member,
                    previous_ap=operation.previous_ap,
                    view_size=len(members),
                )
            )
        if changed:
            self.version += changed
            GENERATION.bump(self)
        return events

    def bulk_add(self, members: Iterable[MemberInfo]) -> int:
        """Add many records in one pass; returns how many changed the view."""
        added = 0
        store = self._members
        for member in members:
            key = member.guid.value
            if store.get(key) != member:
                if store is _EMPTY_STORE:
                    store = self._store()
                store[key] = member
                added += 1
        if added:
            self.version += added
            GENERATION.bump(self)
        return added

    # -- comparison ---------------------------------------------------------------

    def snapshot(self) -> Tuple[Tuple[str, str, str], ...]:
        """Hashable snapshot (guid, ap, status) used for agreement checks."""
        return tuple(
            (str(m.guid), str(m.ap), m.status.value) for m in self.members()
        )

    def agrees_with(self, other: "MembershipView") -> bool:
        """True when both views contain exactly the same member records."""
        return self.snapshot() == other.snapshot()

    def merge_from(self, other: "MembershipView") -> int:
        """Union-merge ``other`` into this view; returns the number of additions.

        Used by the partition/merge extension and by the query service when
        assembling a global view from per-ring views under the BMS scheme.
        """
        return self.bulk_add(other.members())

    def copy(self, scope: Optional[str] = None) -> "MembershipView":
        """Deep-enough copy of this view (records are immutable)."""
        clone = MembershipView(scope or self.scope, self.owner, self.group)
        for member in self.members():
            clone.add(member)
        clone.version = self.version
        return clone
