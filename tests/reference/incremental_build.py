"""The seed's incremental hierarchy and entity-state construction.

:meth:`repro.core.hierarchy.HierarchyBuilder.regular` and
:meth:`repro.core.hierarchy.RingHierarchy.build_entity_states` build in bulk:
interned identifiers, trusted ring registration without validation, raw-slot
entity states.  The functions here build the same structures one ring and one
node at a time through the public, validating API (``add_ring``,
``elect_leader``, ``validate``, the entity pointer setters).  They are the
reference ``tests/test_bulk_build.py`` compares the bulk paths with.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.entity import EntityRole, NetworkEntityState
from repro.core.hierarchy import HierarchyError, RingHierarchy
from repro.core.identifiers import NodeId, coerce_group
from repro.core.ring import LogicalRing


def regular_incremental(group: str, ring_size: int, height: int) -> RingHierarchy:
    """``HierarchyBuilder(group).regular(ring_size, height)``, ring by ring."""
    hierarchy = RingHierarchy(group=coerce_group(group))
    for tier in range(1, height + 1):
        if tier == 1:
            hierarchy.tier_labels[tier] = "Access Proxy Tier (APT)"
        elif tier == height:
            hierarchy.tier_labels[tier] = "Border Router Tier (BRT)"
        else:
            hierarchy.tier_labels[tier] = f"Access Gateway Tier (AGT sub-tier {height - tier})"

    suffixes = [f"{i:04d}" for i in range(ring_size)]
    top_members = [NodeId(f"L{height}-{s}") for s in suffixes]
    top_ring = LogicalRing(ring_id=f"ring-T{height}-0000", tier=height, members=top_members)
    top_ring.elect_leader()
    hierarchy.add_ring(top_ring)
    parents = list(top_members)
    for tier in range(height - 1, 0, -1):
        next_parents = []
        for parent_index, parent in enumerate(parents):
            prefix = f"L{tier}-{parent_index:04d}-"
            members = [NodeId(prefix + s) for s in suffixes]
            ring_id = f"ring-T{tier}-{parent_index:04d}"
            ring = LogicalRing(ring_id=ring_id, tier=tier, members=members)
            ring.elect_leader()
            hierarchy.add_ring(ring, parent=parent)
            next_parents.extend(members)
        parents = next_parents
    hierarchy.validate()
    return hierarchy


def build_entity_states_incremental(
    hierarchy: RingHierarchy, roles: Optional[Dict[str, EntityRole]] = None
) -> Dict[NodeId, NetworkEntityState]:
    """``hierarchy.build_entity_states(roles)``, one node at a time."""
    roles = roles or {}
    bottom, top = hierarchy.bottom_tier(), hierarchy.top_tier()
    states: Dict[NodeId, NetworkEntityState] = {}
    for ring in hierarchy.rings.values():
        for node in ring.members:
            role = roles.get(str(node))
            if role is None:
                if ring.tier == bottom:
                    role = EntityRole.ACCESS_PROXY
                elif ring.tier == top:
                    role = EntityRole.BORDER_ROUTER
                else:
                    role = EntityRole.ACCESS_GATEWAY
            state = NetworkEntityState(current=node, role=role, group=hierarchy.group)
            if ring.leader is None:
                raise HierarchyError(f"ring {ring.ring_id!r} has no leader")
            state.set_ring_pointers(
                ring_id=ring.ring_id,
                leader=ring.leader,
                previous=ring.predecessor(node),
                next_node=ring.successor(node),
            )
            state.set_parent(hierarchy.parent_of_ring(ring.ring_id))
            states[node] = state
    # Child pointers: a node's children are the leaders of its child rings.
    for node, state in states.items():
        for ring_id in hierarchy.child_rings.get(node, ()):
            leader = hierarchy.rings[ring_id].leader
            if leader is not None:
                state.add_child(leader)
        state.child_ok = bool(state.children)
    return states
