"""Fan-out routing over the columnar store's structural columns.

The object query path (:mod:`repro.core.query`) derives a tier's fan-out
set by scanning the full rings dict, filtering by tier and sorting by ring
id — at 100k proxies that is a 10k-ring scan *per query*.  When the kernel
is columnar and no hierarchy surgery has happened, the same set falls out of
one pass over the store's columns: ``ring_tier == tier`` selects the rings,
``ring_leader_pos`` names each leader, and each leader entity is gathered
positionally (:meth:`ColumnarKernel.tier_leader_views`).  Store order is hierarchy build order, which for the
regular builds every benchmark uses matches the object path's ring-id sort —
the gather re-sorts by ring id anyway, so the fan-out order (and therefore
the last-writer-wins merge result and hop accounting) is identical by
construction, not by coincidence.

Every helper returns the object-path derivation whenever the columns cannot
be trusted (object backend, misaligned entity rows, or ``structure_dirty``
after surgery — only until the kernel's next round re-syncs the store, since
a read never pays that rebuild) — the columnar pass is an accelerator for
the pinned reference semantics, never a second source of truth.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.hierarchy import RingHierarchy
from repro.core.identifiers import NodeId
from repro.core.membership import MembershipView

__all__ = ["tier_leader_fanout", "topmost_leader"]

Fanout = Tuple[List[NodeId], List[object], List[MembershipView]]


def tier_leader_fanout(kernel, hierarchy: RingHierarchy, tier: int) -> Fanout:
    """(leaders, rings, views) of ``tier`` in the object path's fan-out order.

    Columnar pass when the kernel supports it and its structural columns
    are clean; hierarchy walk otherwise.  Both produce the same triple.
    """
    gather = getattr(kernel, "tier_leader_views", None)
    if gather is not None:
        pairs = gather(tier)
        if pairs is not None:
            leaders: List[NodeId] = []
            rings: List[object] = []
            views: List[MembershipView] = []
            for ring, entity in pairs:
                leader = ring.leader
                if leader is None:
                    continue
                leaders.append(leader)
                rings.append(ring)
                views.append(entity.ring_members)
            return leaders, rings, views
    return _object_fanout(kernel, hierarchy, tier)


def _object_fanout(kernel, hierarchy: RingHierarchy, tier: int) -> Fanout:
    """The pinned reference derivation: rings_in_tier walk + entity probes."""
    leaders: List[NodeId] = []
    rings: List[object] = []
    views: List[MembershipView] = []
    entity = kernel.entity
    for ring in hierarchy.rings_in_tier(tier):
        leader = ring.leader
        if leader is None:
            continue
        leaders.append(leader)
        rings.append(ring)
        views.append(entity(leader).ring_members)
    return leaders, rings, views


def topmost_leader(kernel, hierarchy: RingHierarchy) -> Optional[Fanout]:
    """The TMS fan-out: the topmost ring's leader alone (None if leaderless)."""
    top_ring = hierarchy.topmost_ring()
    leader = top_ring.leader
    if leader is None:
        return None
    return [leader], [top_ring], [kernel.entity(leader).ring_members]
