"""Network entity data structures (paper Section 4.2).

A network entity (NE) is an access proxy, access gateway or border router
configured to run the protocol.  Each NE maintains only *local* information:
its own identity, the identities of its leader, previous and next neighbours
in its logical ring, its parent node (the entity in the next tier up whose
ring its leader reports to) and child node(s), the ring/parent/child health
flags, three member lists with different scopes and an aggregating message
queue.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, dataclass, field, fields as dataclass_fields
from typing import Callable, Dict, List, Optional

from repro.core.identifiers import GroupId, NodeId
from repro.core.membership import MembershipView
from repro.core.message_queue import MessageQueue


#: Defaults served by ``NetworkEntityState.__getattr__`` for slots the raw
#: bulk builder leaves unset.  Derived from the dataclass fields at import
#: time (see the module bottom), so a future default-valued field is picked
#: up automatically instead of raising on first read of a bulk-built entity.
_LAZY_FIELD_DEFAULTS: Dict[str, object] = {}


class EntityRole(enum.Enum):
    """Which tier of Figure 2 an entity belongs to."""

    ACCESS_PROXY = "AP"
    ACCESS_GATEWAY = "AG"
    BORDER_ROUTER = "BR"

    @property
    def tier(self) -> int:
        """Tier index used by the hierarchy (AP=1, AG=2, BR=3)."""
        return {"AP": 1, "AG": 2, "BR": 3}[self.value]


@dataclass(slots=True)
class NetworkEntityState:
    """The complete local state of one network entity.

    Mirrors the paper's NE data structure field for field:

    ``group``      → GID
    ``current``    → Current (this entity's own NodeID)
    ``leader``     → Leader
    ``previous`` / ``next_node`` → Previous / Next
    ``parent`` / ``child``       → Parent / Child
    ``ring_ok`` / ``parent_ok`` / ``child_ok`` → RingOK / ParentOK / ChildOK
    ``local_members``    → ListOfLocalMembers
    ``ring_members``     → ListOfRingMembers
    ``neighbor_members`` → ListOfNeighborMembers
    ``mq``               → MQ

    The three member views and the message queue are **materialised on first
    access** (their slots start unset; ``__getattr__`` fills them in).  A
    bulk-built million-proxy hierarchy creates none of them up front, and the
    vast majority of entities never hold a member or queue a message, so the
    per-entity footprint stays a single slotted object.  Once touched, the
    attribute is an ordinary slot — the laziness costs nothing on hot paths.
    ``mq_hook`` carries the kernel's dirty-ring ``on_enqueue`` callback so it
    can be wired without forcing the queue into existence.
    """

    current: NodeId
    role: EntityRole
    group: GroupId
    ring_id: str = ""
    leader: Optional[NodeId] = None
    previous: Optional[NodeId] = None
    next_node: Optional[NodeId] = None
    parent: Optional[NodeId] = None
    children: List[NodeId] = field(default_factory=list)
    ring_ok: bool = False
    parent_ok: bool = False
    child_ok: bool = False
    local_members: MembershipView = field(init=False, repr=False, compare=False)
    ring_members: MembershipView = field(init=False, repr=False, compare=False)
    neighbor_members: MembershipView = field(init=False, repr=False, compare=False)
    mq: MessageQueue = field(init=False, repr=False, compare=False)
    aggregate_mq: bool = True
    mq_hook: Optional[Callable[[], None]] = field(
        default=None, repr=False, compare=False
    )
    #: Liveness flags for the lazy slots above — plain bool reads let hot
    #: paths ask "does this entity have a queue/view at all?" without
    #: descriptor exceptions and without materialising anything.
    mq_live: bool = field(default=False, repr=False, compare=False)
    local_live: bool = field(default=False, repr=False, compare=False)
    ring_live: bool = field(default=False, repr=False, compare=False)
    neighbor_live: bool = field(default=False, repr=False, compare=False)

    def __getattr__(self, name: str):
        # Only ever reached for *unset* slots: materialise the lazy ones.
        # The raw-slot bulk builder (``RingHierarchy.build_entity_states``)
        # leaves every default-valued field unset; the defaults are served —
        # and cached into the slot — here on first read.
        if name == "mq":
            mq = MessageQueue(self.current, aggregate=self.aggregate_mq)
            mq.on_enqueue = self.mq_hook
            self.mq = mq
            self.mq_live = True
            return mq
        if name == "local_members":
            view = MembershipView("local", self.current, self.group)
            self.local_members = view
            self.local_live = True
            return view
        if name == "ring_members":
            view = MembershipView("ring", self.current, self.group)
            self.ring_members = view
            self.ring_live = True
            return view
        if name == "neighbor_members":
            view = MembershipView("neighbor", self.current, self.group)
            self.neighbor_members = view
            self.neighbor_live = True
            return view
        if name == "children":
            children: List[NodeId] = []
            self.children = children
            return children
        try:
            value = _LAZY_FIELD_DEFAULTS[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            ) from None
        setattr(self, name, value)
        return value

    def _mq_if_materialized(self) -> Optional[MessageQueue]:
        """The message queue if it exists, without creating it."""
        return self.mq if self.mq_live else None

    def has_queued_work(self) -> bool:
        """True when the (materialised) queue holds at least one entry."""
        return self.mq_live and bool(self.mq._entries)

    def set_mq_wiring(
        self, aggregate: bool, hook: Optional[Callable[[], None]]
    ) -> None:
        """Install queue aggregation/hook settings, lazily when possible."""
        self.aggregate_mq = aggregate
        self.mq_hook = hook
        mq = self._mq_if_materialized()
        if mq is not None:
            mq.aggregate = aggregate
            mq.on_enqueue = hook

    # -- pickling (skip unset lazy slots without materialising them) -----------

    def __getstate__(self):
        cls = type(self)
        state = {}
        for name in cls.__slots__:
            try:
                state[name] = getattr(cls, name).__get__(self)
            except AttributeError:
                continue
        return state

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    # -- ring role ----------------------------------------------------------------

    @property
    def child(self) -> Optional[NodeId]:
        """First child, mirroring the paper's singular ``Child`` field.

        The hierarchy allows an entity to bridge several child rings; the
        paper's data structure names a single ``Child`` and its pseudocode
        sends Notification-to-Child to it.  The protocol engine iterates
        :attr:`children`; this property exists for parity with the paper.
        """
        return self.children[0] if self.children else None

    def set_ring_pointers(
        self,
        ring_id: str,
        leader: NodeId,
        previous: NodeId,
        next_node: NodeId,
    ) -> None:
        """Install the local ring view (called by the hierarchy builder)."""
        self.ring_id = ring_id
        self.leader = leader
        self.previous = previous
        self.next_node = next_node
        self.ring_ok = True

    def set_parent(self, parent: Optional[NodeId]) -> None:
        self.parent = parent
        self.parent_ok = parent is not None

    def add_child(self, child: NodeId) -> None:
        if child not in self.children:
            self.children.append(child)
        self.child_ok = True

    def remove_child(self, child: NodeId) -> None:
        if child in self.children:
            self.children.remove(child)
        self.child_ok = bool(self.children)

    # -- member bookkeeping ----------------------------------------------------------

    def unregister_local_member(self, guid: str) -> bool:
        changed = self.local_members.remove(guid)
        self.ring_members.remove(guid)
        return changed

    def summary(self) -> Dict[str, object]:
        """Diagnostic snapshot used by tests and the examples.

        Reads the lazy views/queue without materialising them (an unset view
        is empty by definition).
        """
        cls = type(self)

        def _len(name: str) -> int:
            try:
                return len(getattr(cls, name).__get__(self))
            except AttributeError:
                return 0

        return {
            "current": str(self.current),
            "role": self.role.value,
            "ring_id": self.ring_id,
            "leader": str(self.leader) if self.leader else None,
            "previous": str(self.previous) if self.previous else None,
            "next": str(self.next_node) if self.next_node else None,
            "parent": str(self.parent) if self.parent else None,
            "children": [str(c) for c in self.children],
            "ring_ok": self.ring_ok,
            "parent_ok": self.parent_ok,
            "child_ok": self.child_ok,
            "local_members": _len("local_members"),
            "ring_members": _len("ring_members"),
            "neighbor_members": _len("neighbor_members"),
            "mq_pending": _len("mq"),
        }

# Populate the lazy defaults from the dataclass definition itself (plain
# defaults only — ``children`` has a factory and its own ``__getattr__``
# case; the view/queue slots are init=False and materialise structurally).
_LAZY_FIELD_DEFAULTS.update(
    {
        f.name: f.default
        for f in dataclass_fields(NetworkEntityState)
        if f.default is not MISSING
    }
)
