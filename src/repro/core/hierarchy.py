"""The ring-based hierarchy (paper Section 4.1, Figure 2).

The hierarchy stacks logical rings: the topmost tier holds a single ring of
border routers; each node of a ring in tier *t* may be the *parent* of one
ring in tier *t-1*; the leader of a child ring reports membership changes to
its parent node.  Only a portion of the network entities configured to run
the protocol participate.

Two constructions are provided:

* :meth:`HierarchyBuilder.from_topology` — builds the three-tier hierarchy of
  Figure 2 (AP rings per access gateway, AG rings per border router, one BR
  ring) from a generated 4-tier topology.
* :meth:`HierarchyBuilder.regular` — builds the *regular full hierarchy* used
  by the paper's analysis: height ``h``, every ring exactly ``r`` nodes, so
  ``n = r**h`` access proxies and ``tn = sum_{i=0}^{h-1} r**i`` rings.  For
  ``h > 3`` the extra levels model the paper's "sub-tiers" within a tier.
"""

from __future__ import annotations

import contextlib
import gc
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional

from repro.core.entity import EntityRole, NetworkEntityState
from repro.core.identifiers import GroupId, NodeId, coerce_group
from repro.core.ring import LogicalRing

if TYPE_CHECKING:
    from repro.topology.generator import GeneratedTopology


class HierarchyError(RuntimeError):
    """Raised for malformed hierarchies."""


@contextlib.contextmanager
def paused_gc() -> Iterator[None]:
    """Suspend the cyclic collector across a bulk construction burst.

    Building a million-proxy hierarchy allocates millions of long-lived,
    cycle-free objects; the generational collector re-traverses the growing
    heap every few thousand allocations, which roughly doubles construction
    time.  Unlike the cell runners' pause (``repro.workloads.matrix``), no
    ``gc.collect()`` runs on exit — the freshly built structures are all
    live, so a forced full scan would just re-pay the cost being avoided.
    Reentrant and a no-op when the collector is already disabled.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


_TIER_NAMES = {
    1: "Access Proxy Tier (APT)",
    2: "Access Gateway Tier (AGT)",
    3: "Border Router Tier (BRT)",
}


@dataclass
class RingHierarchy:
    """The assembled ring-based hierarchy.

    Structural queries only — protocol execution lives in
    :mod:`repro.core.kernel`, which operates on the per-entity local state
    this class helps initialise.
    """

    group: GroupId
    rings: Dict[str, LogicalRing] = field(default_factory=dict)
    ring_of_node: Dict[NodeId, str] = field(default_factory=dict)
    parent_node: Dict[str, NodeId] = field(default_factory=dict)
    child_rings: Dict[NodeId, List[str]] = field(default_factory=dict)
    tier_labels: Dict[int, str] = field(default_factory=dict)

    # -- construction helpers ------------------------------------------------------

    def add_ring(self, ring: LogicalRing, parent: Optional[NodeId] = None) -> None:
        """Register ``ring``; ``parent`` is the node its leader reports to."""
        ring_id = ring.ring_id
        if ring_id in self.rings:
            raise HierarchyError(f"duplicate ring id {ring_id!r}")
        # One identifier-keyed probe per node (setdefault) instead of a
        # check pass plus an insert pass; conflicts roll back so a failed
        # add leaves the hierarchy untouched, as before.
        ring_of_node = self.ring_of_node
        members = ring.members
        for position, node in enumerate(members):
            existing = ring_of_node.setdefault(node, ring_id)
            if existing != ring_id:
                for added in members[:position]:
                    del ring_of_node[added]
                raise HierarchyError(
                    f"node {node} already belongs to ring {existing!r}"
                )
        self.rings[ring_id] = ring
        if parent is not None:
            self.parent_node[ring_id] = parent
            self.child_rings.setdefault(parent, []).append(ring_id)

    # -- structural queries ------------------------------------------------------------

    def ring(self, ring_id: str) -> LogicalRing:
        try:
            return self.rings[ring_id]
        except KeyError:
            raise HierarchyError(f"unknown ring {ring_id!r}") from None

    def ring_of(self, node: "NodeId | str") -> LogicalRing:
        key = node if isinstance(node, NodeId) else NodeId(str(node))
        try:
            return self.rings[self.ring_of_node[key]]
        except KeyError:
            raise HierarchyError(f"node {node} is not in any ring") from None

    def has_node(self, node: "NodeId | str") -> bool:
        key = node if isinstance(node, NodeId) else NodeId(str(node))
        return key in self.ring_of_node

    def parent_of_ring(self, ring_id: str) -> Optional[NodeId]:
        return self.parent_node.get(ring_id)

    def tiers(self) -> List[int]:
        """Distinct tier indices present, ascending."""
        return sorted({ring.tier for ring in self.rings.values()})

    def tier_name(self, tier: int) -> str:
        return self.tier_labels.get(tier, _TIER_NAMES.get(tier, f"Tier {tier}"))

    def rings_in_tier(self, tier: int) -> List[LogicalRing]:
        return sorted(
            (ring for ring in self.rings.values() if ring.tier == tier),
            key=lambda r: r.ring_id,
        )

    def bottom_tier(self) -> int:
        tiers = self.tiers()
        if not tiers:
            raise HierarchyError("hierarchy has no rings")
        return tiers[0]

    def top_tier(self) -> int:
        tiers = self.tiers()
        if not tiers:
            raise HierarchyError("hierarchy has no rings")
        return tiers[-1]

    def topmost_ring(self) -> LogicalRing:
        rings = self.rings_in_tier(self.top_tier())
        if len(rings) != 1:
            raise HierarchyError(
                f"expected exactly one topmost ring, found {len(rings)}"
            )
        return rings[0]

    def bottom_rings(self) -> List[LogicalRing]:
        return self.rings_in_tier(self.bottom_tier())

    def access_proxies(self) -> List[NodeId]:
        """All nodes in the bottommost rings (the paper's scalability ``n``)."""
        nodes: List[NodeId] = []
        for ring in self.bottom_rings():
            nodes.extend(ring.members)
        return nodes

    @property
    def height(self) -> int:
        """Number of ring tiers (the paper's ``h``)."""
        return len(self.tiers())

    @property
    def total_rings(self) -> int:
        """The paper's ``tn``."""
        return len(self.rings)

    def total_nodes(self) -> int:
        return len(self.ring_of_node)

    def ancestry(self, node: "NodeId | str") -> List[NodeId]:
        """Chain of parent nodes from ``node``'s ring up to the topmost ring.

        After repair surgery the chain can be *severed*: when a whole ring
        dies there is no surviving leader to re-attach its child rings to, so
        a child ring's parent link may point at an already-excised node.  The
        walk returns the chain as far as it can be resolved — the dangling
        parent is included (callers can still identify and e.g. crash-check
        it) but the walk stops there instead of raising.
        """
        chain: List[NodeId] = []
        current = node if isinstance(node, NodeId) else NodeId(str(node))
        while self.has_node(current):
            parent = self.parent_of_ring(self.ring_of(current).ring_id)
            if parent is None:
                break
            chain.append(parent)
            current = parent
        return chain

    def validate(self, deep: bool = True) -> None:
        """Structural invariants used by property tests.

        * every ring has a leader and at least one member;
        * every non-topmost ring has a parent node that itself belongs to a
          ring exactly one tier above;
        * parent links are acyclic and reach the topmost ring.

        ``deep=False`` skips the per-ring internal consistency re-derivation
        (:meth:`LogicalRing.validate` rebuilds each ring's position index to
        compare — pure overhead for rings the builders just constructed from
        scratch); all hierarchy-level invariants above are still enforced.
        """
        if not self.rings:
            raise HierarchyError("hierarchy has no rings")
        top = self.top_tier()
        for ring in self.rings.values():
            if deep:
                ring.validate()
            if ring.is_empty:
                raise HierarchyError(f"ring {ring.ring_id!r} is empty")
            if ring.leader is None:
                raise HierarchyError(f"ring {ring.ring_id!r} has no leader")
            parent = self.parent_node.get(ring.ring_id)
            if ring.tier == top:
                if parent is not None:
                    raise HierarchyError("topmost ring must not have a parent")
                continue
            if parent is None:
                raise HierarchyError(f"non-topmost ring {ring.ring_id!r} has no parent")
            parent_ring = self.ring_of(parent)
            if parent_ring.tier != ring.tier + 1:
                raise HierarchyError(
                    f"ring {ring.ring_id!r} (tier {ring.tier}) has parent in tier "
                    f"{parent_ring.tier}, expected {ring.tier + 1}"
                )
        # Every node's ancestry must terminate at the topmost ring.  A node's
        # chain is its ring's chain, so walk each *ring* once with memoisation
        # instead of walking all n nodes — the per-node walk alone dominated
        # million-proxy builds (O(n·h) identifier-keyed dict probes).
        top_ring = self.topmost_ring()
        reaches: Dict[str, bool] = {top_ring.ring_id: True}
        ring_of_node = self.ring_of_node
        ring_count = len(self.rings)
        for start_ring_id in self.rings:
            chain: List[str] = []
            current = start_ring_id
            known: Optional[bool] = None
            while True:
                known = reaches.get(current)
                if known is not None:
                    break
                chain.append(current)
                if len(chain) > ring_count:  # cycle guard
                    known = False
                    break
                parent = self.parent_node.get(current)
                if parent is None:
                    known = False
                    break
                parent_ring_id = ring_of_node.get(parent)
                if parent_ring_id is None:
                    known = False
                    break
                current = parent_ring_id
            for ring_id in chain:
                reaches[ring_id] = known
            if not known:
                node = self.rings[start_ring_id].members[0]
                raise HierarchyError(f"ancestry of {node} does not reach the topmost ring")

    # -- entity state wiring --------------------------------------------------------------

    def build_entity_states(
        self, roles: Optional[Dict[str, EntityRole]] = None
    ) -> Dict[NodeId, NetworkEntityState]:
        """Create per-entity local state with ring/parent/child pointers set.

        ``roles`` maps node-id strings to :class:`EntityRole`; nodes not listed
        get a role derived from their tier (bottom tier → AP, top → BR,
        everything in between → AG), which is also how the regular analytical
        hierarchies with sub-tiers are labelled.

        Ring pointers are assembled positionally from each ring's whole member
        list (no per-node successor/predecessor index probes) and child
        pointers come from one pass over the child-ring map.  The state equals
        the seed's per-node construction, which ``tests/reference/
        incremental_build.py`` keeps as the reference (property-tested in
        ``tests/test_bulk_build.py``).
        """
        roles = roles or {}
        bottom, top = self.bottom_tier(), self.top_tier()
        group = self.group
        parent_node = self.parent_node
        states: Dict[NodeId, NetworkEntityState] = {}
        # Raw-slot construction: every field of NetworkEntityState is written
        # directly (one allocation, no __init__/__post_init__ dispatch), which
        # at a million entities is the difference between seconds and tens of
        # seconds.  Keep the write list in sync with the dataclass fields —
        # the bulk-vs-incremental property test pins the equivalence.
        alloc = object.__new__
        state_cls = NetworkEntityState
        with paused_gc():
            for ring in self.rings.values():
                leader = ring.leader
                if leader is None:
                    raise HierarchyError(f"ring {ring.ring_id!r} has no leader")
                tier = ring.tier
                if tier == bottom:
                    default_role = EntityRole.ACCESS_PROXY
                elif tier == top:
                    default_role = EntityRole.BORDER_ROUTER
                else:
                    default_role = EntityRole.ACCESS_GATEWAY
                ring_id = ring.ring_id
                parent = parent_node.get(ring_id)
                parent_ok = parent is not None
                members = ring.members
                last = len(members) - 1
                # Only genuinely per-entity data is written; every
                # default-valued field (children, child_ok, queue wiring,
                # liveness flags) is left unset and served lazily by
                # ``NetworkEntityState.__getattr__`` on first read.
                for position, node in enumerate(members):
                    state = alloc(state_cls)
                    state.current = node
                    state.role = (
                        roles.get(node.value, default_role) if roles else default_role
                    )
                    state.group = group
                    state.ring_id = ring_id
                    state.leader = leader
                    state.previous = members[position - 1]
                    state.next_node = members[position + 1] if position < last else members[0]
                    state.parent = parent
                    state.ring_ok = True
                    state.parent_ok = parent_ok
                    states[node] = state
            # Child pointers: a node's children are the leaders of its child
            # rings — one pass over the child-ring map instead of a per-node
            # probe-and-copy.
            rings = self.rings
            for parent, ring_ids in self.child_rings.items():
                state = states.get(parent)
                if state is None:
                    continue
                for ring_id in ring_ids:
                    leader = rings[ring_id].leader
                    if leader is not None:
                        state.add_child(leader)
                state.child_ok = bool(state.children)
        return states


class HierarchyBuilder:
    """Constructs :class:`RingHierarchy` instances."""

    def __init__(self, group: "GroupId | str" = "group-0") -> None:
        self.group = coerce_group(group)

    # -- from a generated 4-tier topology --------------------------------------------

    def from_topology(
        self, topology: GeneratedTopology, access_proxies: Optional[Iterable[str]] = None
    ) -> RingHierarchy:
        """Three-tier hierarchy: AP rings per AG, AG rings per BR, one BR ring.

        ``access_proxies`` restricts the hierarchy to those participating
        proxies (the paper notes only a portion of the network entities need
        run the protocol); gateways and border routers with no participating
        proxy below them are left out too.
        """
        arch = topology.architecture
        hierarchy = RingHierarchy(group=self.group)
        hierarchy.tier_labels.update(_TIER_NAMES)
        aps_of_ag = {ag: sorted(arch.aps_of_ag(ag)) for ag in arch.access_gateways}
        ags_of_br = {br: sorted(arch.ags_of_br(br)) for br in arch.border_routers}
        border_routers = list(arch.border_routers)
        if access_proxies is not None:
            keep = set(access_proxies)
            aps_of_ag = {ag: [ap for ap in aps if ap in keep] for ag, aps in aps_of_ag.items()}
            ags_of_br = {
                br: [ag for ag in ags if aps_of_ag[ag]] for br, ags in ags_of_br.items()
            }
            border_routers = [br for br in border_routers if ags_of_br[br]]

        # Topmost: one ring of all border routers.
        br_nodes = [NodeId(br) for br in border_routers]
        br_ring = LogicalRing(ring_id="brt-ring", tier=3, members=br_nodes)
        br_ring.elect_leader()
        hierarchy.add_ring(br_ring)

        # Access gateway rings: one per border router.
        for br in border_routers:
            ags = [NodeId(ag) for ag in ags_of_br[br]]
            if not ags:
                continue
            ring = LogicalRing(ring_id=f"agt-ring-{br}", tier=2, members=ags)
            ring.elect_leader()
            hierarchy.add_ring(ring, parent=NodeId(br))

        # Access proxy rings: one per access gateway.
        for ag in arch.access_gateways:
            aps = [NodeId(ap) for ap in aps_of_ag[ag]]
            if not aps:
                continue
            ring = LogicalRing(ring_id=f"apt-ring-{ag}", tier=1, members=aps)
            ring.elect_leader()
            hierarchy.add_ring(ring, parent=NodeId(ag))

        hierarchy.validate()
        return hierarchy

    # -- regular analytical hierarchy ---------------------------------------------------

    def regular(self, ring_size: int, height: int) -> RingHierarchy:
        """The full regular hierarchy of the paper's analysis.

        ``height`` tiers of rings; every ring has exactly ``ring_size`` nodes;
        tier indices run from 1 (bottommost, access proxies) to ``height``
        (topmost).  Node ids encode their position: ``L{tier}-{path}``.

        Identifiers are created through the vectorised intern table, whole
        member lists register via trusted bulk inserts, the
        (sorted-by-construction) first member is the leader and validation is
        skipped.  The result equals the seed's per-ring insert/elect/validate
        construction, which ``tests/reference/incremental_build.py`` keeps as
        the reference (property-tested in ``tests/test_bulk_build.py``).
        """
        if ring_size < 2:
            raise ValueError(f"ring_size must be >= 2, got {ring_size}")
        if height < 2:
            raise ValueError(f"height must be >= 2, got {height}")
        hierarchy = RingHierarchy(group=self.group)
        # Human-readable tier labels: bottom = APT, top = BRT, middle = AGT sub-tiers.
        for tier in range(1, height + 1):
            if tier == 1:
                hierarchy.tier_labels[tier] = "Access Proxy Tier (APT)"
            elif tier == height:
                hierarchy.tier_labels[tier] = "Border Router Tier (BRT)"
            else:
                hierarchy.tier_labels[tier] = f"Access Gateway Tier (AGT sub-tier {height - tier})"

        # Build top-down.  ``parents`` lists the nodes of the previous tier in
        # order.  Generated ids are zero-padded, so within every ring the
        # members are lexicographically ascending: the first member *is* the
        # minimal id, which makes the constructor's default leader identical
        # to deterministic election.
        top_tier = height
        suffixes = [f"{i:04d}" for i in range(ring_size)]
        with paused_gc():
            # Rings register without add_ring's per-node duplicate probes (ids
            # are generated unique), each member list through one C-level
            # ``dict.update``.
            rings_map = hierarchy.rings
            ring_of_node = hierarchy.ring_of_node
            parent_node_map = hierarchy.parent_node
            child_rings_map = hierarchy.child_rings
            top_ring_id = f"ring-T{top_tier}-0000"
            top_members = NodeId.make_interned(f"L{top_tier}-{s}" for s in suffixes)
            rings_map[top_ring_id] = LogicalRing.bulk(top_ring_id, top_tier, top_members)
            ring_of_node.update(zip(top_members, repeat(top_ring_id)))
            parents = list(top_members)

            make_bulk_ring = LogicalRing.bulk
            make_interned = NodeId.make_interned
            for tier in range(top_tier - 1, 0, -1):
                next_parents: List[NodeId] = []
                extend = next_parents.extend
                for parent_index, parent in enumerate(parents):
                    prefix = f"L{tier}-{parent_index:04d}-"
                    ring_id = f"ring-T{tier}-{parent_index:04d}"
                    members = make_interned(suffixes, prefix)
                    ring = make_bulk_ring(ring_id, tier, members)
                    rings_map[ring_id] = ring
                    ring_of_node.update(zip(members, repeat(ring_id)))
                    parent_node_map[ring_id] = parent
                    child_rings_map.setdefault(parent, []).append(ring_id)
                    extend(members)
                parents = next_parents

        # No validate(): the output is correct by construction (deterministic
        # id generation, one ring per parent, tiers descending by one) and is
        # pinned against the validated reference construction by the
        # bulk-vs-incremental property suite; re-walking 111k rings per
        # million-proxy build would cost more than the check is worth.
        # External/mutating construction still validates.
        return hierarchy
