"""The Membership-Query algorithm (paper Section 4.4).

The paper distinguishes three membership maintenance schemes:

* **TMS** (Topmost Membership Scheme) — only the topmost tier maintains the
  global membership; a query finds any network entity, which forwards it to
  the topmost ring, and the answer comes back in a handful of messages but
  the topmost entities pay the storage and update cost.
* **BMS** (Bottommost Membership Scheme) — only the bottommost tier (the
  access-proxy ring leaders) maintains local membership; a query fans out to
  every bottommost ring leader and the answers are merged, which is cheap to
  maintain but expensive to query.
* **IMS** (Intermediate Membership Schemes) — membership is maintained at an
  intermediate tier; queries fan out only to that tier's ring leaders.

The query service works against any kernel or driver through the small
:class:`MembershipStore` protocol: it only needs per-entity ring member views
and the hierarchy structure.  Query cost is
reported in logical message hops so the ablation benchmark can compare the
schemes the way the paper discusses them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

from repro.core.hierarchy import RingHierarchy
from repro.core.identifiers import NodeId, coerce_node
from repro.core.member import MemberInfo
from repro.core.membership import MembershipView


class MembershipScheme(enum.Enum):
    """Where membership is maintained / queried from."""

    TMS = "topmost"
    BMS = "bottommost"
    IMS = "intermediate"


class MembershipStore(Protocol):
    """What the query service needs from a protocol engine."""

    hierarchy: RingHierarchy

    def entity(self, node: "NodeId | str"):  # pragma: no cover - protocol signature
        ...


@dataclass
class QueryResult:
    """Answer to one membership query."""

    scheme: MembershipScheme
    members: List[MemberInfo]
    message_hops: int
    entities_contacted: List[NodeId] = field(default_factory=list)
    answered_by_tier: Optional[int] = None
    _guids: Optional[List[str]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def guids(self) -> List[str]:
        """Sorted member GUID strings, computed once and cached.

        The member list is never mutated after the result is assembled, so
        the sort/stringify pass only needs to run on first access — a load
        harness draining thousands of results per batch must not pay it per
        touch (use :attr:`member_count` when only the size matters).
        """
        if self._guids is None:
            self._guids = sorted(str(m.guid) for m in self.members)
        return self._guids

    @property
    def member_count(self) -> int:
        """Size of the answer without materialising :attr:`guids`."""
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)


class MembershipQueryService:
    """Answers membership queries against a protocol engine's state.

    Parameters
    ----------
    store:
        Anything exposing ``hierarchy`` and ``entity(node)`` with a
        ``ring_members`` view per entity — a :class:`TokenRoundKernel` or a
        :class:`OneRoundEngine`.
    entry_point:
        The network entity the requesting application first contacts
        ("the requesting application tries to find some NE with GID").
        Defaults to a bottom-tier entity, the worst case for TMS.
    """

    def __init__(self, store: MembershipStore, entry_point: Optional["NodeId | str"] = None) -> None:
        self.store = store
        self.hierarchy = store.hierarchy
        if entry_point is None:
            self.entry_point = self.hierarchy.access_proxies()[0]
        else:
            self.entry_point = coerce_node(entry_point)
            if not self.hierarchy.has_node(self.entry_point):
                raise ValueError(f"entry point {entry_point} is not part of the hierarchy")
        # Routing memo, keyed per topology epoch: deriving the per-tier leader
        # fan-out set walks (and sorts) every ring of the tier, and the entry
        # point's tier costs a ring probe — pure re-derivation on every query
        # until a repair actually changes the hierarchy.  ``coverage_epoch``
        # (bumped by every repair/surgery) is the invalidation signal; stores
        # without one (no kernel underneath) keep the uncached behaviour.
        self._routing_epoch: Optional[int] = None
        self._tier_leaders_cache: Dict[int, List[NodeId]] = {}
        self._entry_tier_cache: Optional[int] = None
        self._top_cache: Optional[Tuple[NodeId, int]] = None

    # -- helpers -----------------------------------------------------------------

    def _view_of(self, node: NodeId) -> MembershipView:
        return self.store.entity(node).ring_members

    def _coverage_epoch(self) -> Optional[int]:
        """The store's repair/surgery epoch, or None when it has none."""
        epoch = getattr(self.store, "coverage_epoch", None)
        if epoch is None:
            epoch = getattr(getattr(self.store, "kernel", None), "coverage_epoch", None)
        return epoch

    def _routing_generation(self) -> Optional[int]:
        """Validate (and roll) the memo against the current topology epoch."""
        epoch = self._coverage_epoch()
        if epoch is None or epoch != self._routing_epoch:
            self._tier_leaders_cache.clear()
            self._entry_tier_cache = None
            self._top_cache = None
            self._routing_epoch = epoch
        return epoch

    def tier_leaders(self, tier: int) -> List[NodeId]:
        """Ring leaders of ``tier`` in ring-id order (the fan-out targets).

        Memoised per topology epoch: a repaired ring re-elects its leader
        through hierarchy surgery, which bumps the store's coverage epoch and
        drops the memo — the next query re-routes to the new leader.
        """
        epoch = self._routing_generation()
        leaders = self._tier_leaders_cache.get(tier)
        if leaders is None:
            leaders = [
                ring.leader
                for ring in self.hierarchy.rings_in_tier(tier)
                if ring.leader is not None
            ]
            if epoch is not None:
                self._tier_leaders_cache[tier] = leaders
        return leaders

    def _entry_tier(self) -> int:
        self._routing_generation()
        if self._entry_tier_cache is None:
            self._entry_tier_cache = self.hierarchy.ring_of(self.entry_point).tier
        return self._entry_tier_cache

    def _hops_to_tier(self, tier: int) -> int:
        """Message hops from the entry point up (or down) to ``tier``."""
        return abs(tier - self._entry_tier())

    # -- the three schemes -------------------------------------------------------------

    def query(self, scheme: MembershipScheme, intermediate_tier: Optional[int] = None) -> QueryResult:
        """Run one global membership query under ``scheme``."""
        if scheme is MembershipScheme.TMS:
            return self.query_topmost()
        if scheme is MembershipScheme.BMS:
            return self.query_bottommost()
        return self.query_intermediate(intermediate_tier)

    def query_topmost(self) -> QueryResult:
        """TMS: ask the topmost ring leader for the global view."""
        epoch = self._routing_generation()
        if self._top_cache is None:
            top_ring = self.hierarchy.topmost_ring()
            if top_ring.leader is None:
                raise RuntimeError("topmost ring has no leader")
            if epoch is not None:
                self._top_cache = (top_ring.leader, top_ring.tier)
            leader, top_tier = top_ring.leader, top_ring.tier
        else:
            leader, top_tier = self._top_cache
        # Request travels up the hierarchy to the topmost tier, answer comes back.
        hops = 2 * self._hops_to_tier(top_tier)
        members = list(self._view_of(leader).members())
        return QueryResult(
            scheme=MembershipScheme.TMS,
            members=members,
            message_hops=hops if hops > 0 else 2,
            entities_contacted=[leader],
            answered_by_tier=top_tier,
        )

    def query_bottommost(self) -> QueryResult:
        """BMS: fan out to every bottommost ring leader and merge the answers."""
        bottom = self.hierarchy.bottom_tier()
        leaders = self.tier_leaders(bottom)
        merged = MembershipView("query", self.entry_point, self.hierarchy.group)
        contacted: List[NodeId] = []
        hops = 0
        for leader in leaders:
            contacted.append(leader)
            # Request out to the leader and the local answer back.
            hops += 2 * max(1, self._hops_to_tier(bottom) + 1)
            merged.merge_from(self._view_of(leader))
        return QueryResult(
            scheme=MembershipScheme.BMS,
            members=merged.members(),
            message_hops=hops,
            entities_contacted=contacted,
            answered_by_tier=bottom,
        )

    def query_intermediate(self, tier: Optional[int] = None) -> QueryResult:
        """IMS: fan out to the ring leaders of an intermediate tier."""
        tiers = self.hierarchy.tiers()
        if len(tiers) < 3 and tier is None:
            # No strict intermediate tier exists; fall back to the tier below the top.
            tier = tiers[-1] if len(tiers) == 1 else tiers[-2]
        if tier is None:
            tier = tiers[len(tiers) // 2]
        if tier not in tiers:
            raise ValueError(f"tier {tier} does not exist in this hierarchy (tiers: {tiers})")
        leaders = self.tier_leaders(tier)
        merged = MembershipView("query", self.entry_point, self.hierarchy.group)
        contacted: List[NodeId] = []
        hops = 0
        for leader in leaders:
            contacted.append(leader)
            hops += 2 * max(1, self._hops_to_tier(tier))
            merged.merge_from(self._view_of(leader))
        return QueryResult(
            scheme=MembershipScheme.IMS,
            members=merged.members(),
            message_hops=hops,
            entities_contacted=contacted,
            answered_by_tier=tier,
        )

    # -- targeted lookups -----------------------------------------------------------------

    def maintenance_cost(self, scheme: MembershipScheme) -> Dict[str, int]:
        """Storage cost of a scheme: entities holding views and total records.

        TMS stores the global view at every topmost-ring entity; BMS stores
        local views at every bottommost entity; IMS at the chosen tier.  This
        is the space side of the trade-off Section 4.4 describes.
        """
        if scheme is MembershipScheme.TMS:
            tier = self.hierarchy.top_tier()
        elif scheme is MembershipScheme.BMS:
            tier = self.hierarchy.bottom_tier()
        else:
            tiers = self.hierarchy.tiers()
            tier = tiers[len(tiers) // 2]
        entities = [n for ring in self.hierarchy.rings_in_tier(tier) for n in ring.members]
        records = sum(len(self._view_of(n)) for n in entities)
        return {"tier": tier, "entities": len(entities), "records": records}
