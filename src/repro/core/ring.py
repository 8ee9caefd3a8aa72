"""Logical rings (paper Section 4.1).

A logical ring is an ordered cycle of network entities of the same tier.  The
ring knows its members in ring order, its leader and the tier it belongs to.
Local repair (Section 5.2: "any single node fault in a logical ring can be
detected quickly ... and be locally repaired by excluding the faulty node from
the ring") is a :meth:`LogicalRing.remove_member` that splices the previous
and next neighbours of the excluded node together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.core.identifiers import NodeId
from repro.core.membership import GENERATION


class RingError(RuntimeError):
    """Raised for invalid ring operations (unknown member, empty ring, ...)."""


@dataclass(slots=True)
class LogicalRing:
    """An ordered ring of network entities.

    Parameters
    ----------
    ring_id:
        Unique identity of the ring within its hierarchy.
    tier:
        Tier index (larger is higher; the topmost ring of Figure 2 is the
        border-router tier).
    members:
        Initial members in ring order.  Token circulation follows this order:
        ``members[i]`` hands the token to ``members[(i+1) % len(members)]``.
    leader:
        The ring leader.  Defaults to the first member; the deterministic
        re-election rule after a leader fault is "smallest node id", which
        every surviving member can compute locally from its ring view.
    """

    ring_id: str
    tier: int
    members: List[NodeId] = field(default_factory=list)
    leader: Optional[NodeId] = None
    #: Mutation counter: lets callers (e.g. the kernel's per-round member
    #: set cache) cheaply detect that a ring changed shape.  Every bump also
    #: moves the process-wide membership ``GENERATION`` and logs this ring.
    version: int = field(default=0, repr=False, compare=False)
    _index: Dict[NodeId, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Position index: member -> slot in circulation order.  Successor /
        # predecessor / members_from were O(ring) ``list.index`` scans per
        # token hop; the index makes them O(1) lookups, which matters both in
        # the kernel's round loop and for the large flat-ring baseline.
        self._reindex()
        if len(self._index) != len(self.members):
            raise RingError(f"ring {self.ring_id!r} has duplicate members")
        if self.members and self.leader is None:
            self.leader = self.members[0]
        if self.leader is not None and self.leader not in self._index:
            raise RingError(
                f"leader {self.leader} of ring {self.ring_id!r} is not a ring member"
            )

    def _reindex(self) -> None:
        # dict(zip(...)) runs the insert loop in C; the dict-comprehension
        # equivalent pays Python bytecode per member, which at a million
        # proxies (111k rings) is a measurable slice of hierarchy builds.
        self._index = dict(zip(self.members, range(len(self.members))))
        self.version += 1
        GENERATION.bump(self)

    @classmethod
    def bulk(cls, ring_id: str, tier: int, members: List[NodeId]) -> "LogicalRing":
        """Trusted bulk constructor for builder-generated rings.

        Skips the constructor's duplicate/leader checks (the caller generates
        unique, sorted member ids) and defers the position index — it
        materialises through ``__getattr__`` on first successor/predecessor
        use, so a million-proxy build never pays for the 111k ring indexes it
        has not touched yet.  The leader is the first member, which for
        sorted ids equals deterministic minimal-id election.
        """
        self = object.__new__(cls)
        self.ring_id = ring_id
        self.tier = tier
        self.members = members
        self.leader = members[0] if members else None
        # Mirror the checked constructor's post-_reindex counter so cached
        # derivations (kernel ring-set cache) behave identically.
        self.version = 1
        return self

    def __getattr__(self, name: str):
        if name == "_index":
            # Deferred position index (see :meth:`bulk`): build without
            # bumping ``version`` — materialisation is not a mutation.
            index = dict(zip(self.members, range(len(self.members))))
            self._index = index
            return index
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __getstate__(self):
        # The position index is derived state: dropping it keeps topology
        # snapshots lean and lets every rehydrated ring defer it, exactly
        # like a freshly bulk-built one.
        return {
            "ring_id": self.ring_id,
            "tier": self.tier,
            "members": self.members,
            "leader": self.leader,
            "version": self.version,
        }

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    # -- basic accessors ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, node: object) -> bool:
        try:
            return node in self._index
        except TypeError:  # unhashable probe: fall back to the list semantics
            return node in self.members

    @property
    def is_empty(self) -> bool:
        return not self.members

    def members_in_order(self) -> List[NodeId]:
        """Members in token-circulation order starting from the stored order."""
        return list(self.members)

    def members_from(self, start: NodeId) -> List[NodeId]:
        """Members in circulation order beginning at ``start``."""
        idx = self._index_of(start)
        return self.members[idx:] + self.members[:idx]

    def _index_of(self, node: NodeId) -> int:
        idx = self._index.get(node)
        if idx is None:
            raise RingError(f"node {node} is not a member of ring {self.ring_id!r}")
        return idx

    def successor(self, node: NodeId) -> NodeId:
        """The next node after ``node`` in circulation order."""
        members = self.members
        if not members:
            raise RingError(f"ring {self.ring_id!r} is empty")
        idx = self._index_of(node) + 1
        return members[idx if idx < len(members) else 0]

    def predecessor(self, node: NodeId) -> NodeId:
        """The node before ``node`` in circulation order."""
        if not self.members:
            raise RingError(f"ring {self.ring_id!r} is empty")
        return self.members[self._index_of(node) - 1]

    # -- membership changes ---------------------------------------------------------

    def insert_member(self, node: NodeId, after: Optional[NodeId] = None) -> None:
        """Insert ``node`` into the ring (NE-Join).

        With ``after`` the node is spliced immediately after that member,
        which is what happens when a new access proxy joins the ring of a
        nearby proxy; otherwise it is appended at the end of the order.
        """
        if node in self._index:
            raise RingError(f"node {node} is already a member of ring {self.ring_id!r}")
        if after is None:
            self.members.append(node)
            self._index[node] = len(self.members) - 1
            self.version += 1
            GENERATION.bump(self)
        else:
            idx = self._index_of(after)
            self.members.insert(idx + 1, node)
            self._reindex()
        if self.leader is None:
            self.leader = node

    def remove_member(self, node: NodeId) -> bool:
        """Exclude ``node`` from the ring (local repair / NE-Leave).

        Returns True when the removed node was the leader, in which case the
        caller must trigger leader re-election (:meth:`elect_leader`).
        """
        idx = self._index_of(node)
        was_leader = self.leader == node
        del self.members[idx]
        self._reindex()
        if was_leader:
            self.leader = None
        return was_leader

    def elect_leader(self) -> Optional[NodeId]:
        """Deterministic leader election: the smallest surviving node id."""
        if not self.members:
            self.leader = None
            return None
        self.leader = min(self.members, key=lambda n: n.value)
        return self.leader

    # -- health / structure -------------------------------------------------------------

    def edge_count(self) -> int:
        """Number of logical edges a full token round traverses.

        A ring of one node has zero edges (the token never leaves the node);
        otherwise a round crosses exactly ``len(members)`` edges.
        """
        return 0 if len(self.members) <= 1 else len(self.members)

    @staticmethod
    def _live_values(operational: Iterable["NodeId | str"]) -> set:
        return {n.value if isinstance(n, NodeId) else str(n) for n in operational}

    def functions_well(self, operational: Iterable["NodeId | str"]) -> bool:
        """Paper Section 5.2 ring-level Function-Well predicate.

        A ring functions well when at most one of its members is faulty —
        a single fault is detected by token retransmission and locally
        repaired; two or more simultaneous faults partition the ring.
        """
        live = self._live_values(operational)
        faulty = sum(1 for member in self.members if member.value not in live)
        return faulty <= 1

    def partition_count(self, operational: Iterable["NodeId | str"]) -> int:
        """Number of contiguous alive segments the ring splits into.

        With zero or one faulty member the ring stays one segment (one
        partition).  With ``k >= 2`` faulty members the alive members split
        into at most ``k`` contiguous arcs; empty arcs (adjacent faults) do
        not count.
        """
        live = self._live_values(operational)
        flags = [member.value in live for member in self.members]
        if not flags:
            return 0
        if all(flags):
            return 1
        if not any(flags):
            return 0
        faulty_count = sum(1 for f in flags if not f)
        if faulty_count == 1:
            return 1
        # Count alive segments in the circular order.
        segments = 0
        n = len(flags)
        for i in range(n):
            if flags[i] and not flags[(i - 1) % n]:
                segments += 1
        return segments

    def validate(self) -> None:
        """Internal consistency checks used by property tests."""
        if len(set(self.members)) != len(self.members):
            raise RingError(f"ring {self.ring_id!r} has duplicate members")
        if self.leader is not None and self.leader not in self.members:
            raise RingError(f"ring {self.ring_id!r} leader is not a member")
        if self._index != {node: i for i, node in enumerate(self.members)}:
            raise RingError(f"ring {self.ring_id!r} position index is out of sync")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"LogicalRing({self.ring_id!r}, tier={self.tier}, "
            f"size={len(self.members)}, leader={self.leader})"
        )
