"""Batched membership query front-end.

The serving API: callers :meth:`~ServingFrontend.submit` queries (scheme +
optional entry point) and :meth:`~ServingFrontend.drain` answers the whole
batch against **one** coherent membership frame per fan-out — acquired
through the :class:`~repro.serving.snapshots.SnapshotCache`, derived through
the columnar sweeps of :mod:`repro.serving.columnar_query`, and reused
across batches until a write actually changes the answer.

Answers are :class:`repro.core.query.QueryResult` records that match the
object path (:class:`~repro.core.query.MembershipQueryService`) bit for bit
— same member lists, same hop accounting, same contacted-entity order, same
intermediate-tier fallback — which is what lets the hypothesis suite pin
snapshot reads against stop-the-world object reads at the same epoch.

Every result served from one frame shares the frame's ``members`` and
``entities_contacted`` lists (immutable after capture; treat as read-only).
Nothing is wired to the engine: a warm TMS or IMS query costs the membership
generation and coverage-epoch compares of :meth:`SnapshotCache.acquire` plus
result assembly, on a :class:`~repro.sim.harness.ScenarioHarness` and a bare
:class:`~repro.core.one_round.OneRoundEngine` alike.  A read after a write
costs what moved: the change-log slice since the frame's generation,
intersected with the fan-out's identity index (built here once per fan-out
per coverage epoch, next to the fan-out itself), and a re-merge of the
leader views that hold records.  A BMS query still asks
``RingHierarchy.bottom_tier()``, a scan over every ring (docs/PERF.md,
"Serving reads": the one O(hierarchy) sweep left on a read, and why).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.identifiers import NodeId, coerce_node
from repro.core.query import MembershipScheme, QueryResult
from repro.serving.columnar_query import tier_leader_fanout, topmost_leader
from repro.serving.snapshots import SnapshotCache, fanout_index

__all__ = ["ServingFrontend"]


class ServingFrontend:
    """Epoch-consistent batched query service over a protocol engine.

    Parameters
    ----------
    engine:
        Anything exposing ``kernel`` and ``hierarchy`` (a
        :class:`ScenarioHarness` or :class:`OneRoundEngine`).
    intermediate_tier:
        Default tier for IMS queries (same fallback rules as the object
        path when omitted).
    """

    def __init__(self, engine, intermediate_tier: Optional[int] = None) -> None:
        self.engine = engine
        self.kernel = engine.kernel
        self.hierarchy = engine.hierarchy
        self.intermediate_tier = intermediate_tier
        self.cache = SnapshotCache()
        self.default_entry = self.hierarchy.access_proxies()[0]
        self.queries = 0
        self.batches = 0
        self._pending: List[Tuple[MembershipScheme, NodeId]] = []
        # Per-epoch routing caches (tiers list, entry tiers, fan-outs with
        # their identity indexes): all of it is pure re-derivation until a
        # repair bumps the epoch.
        self._routing_epoch: Optional[int] = None
        self._tiers: Optional[List[int]] = None
        self._entry_tiers: Dict[NodeId, int] = {}
        self._fanouts: Dict[int, object] = {}
        self._top: Optional[object] = None

    # -- routing (per topology epoch) ---------------------------------------

    def _epoch(self) -> int:
        epoch = getattr(self.kernel, "coverage_epoch", None)
        return -1 if epoch is None else epoch

    def _check_epoch(self) -> int:
        epoch = self._epoch()
        if epoch != self._routing_epoch:
            self._tiers = None
            self._entry_tiers.clear()
            self._fanouts.clear()
            self._top = None
            self._routing_epoch = epoch
        return epoch

    def _tiers_list(self) -> List[int]:
        if self._tiers is None:
            self._tiers = self.hierarchy.tiers()
        return self._tiers

    def _entry_tier(self, entry: NodeId) -> int:
        tier = self._entry_tiers.get(entry)
        if tier is None:
            tier = self.hierarchy.ring_of(entry).tier
            self._entry_tiers[entry] = tier
        return tier

    def _fanout_for(self, tier: int):
        resolved = self._fanouts.get(tier)
        if resolved is None:
            fanout = tier_leader_fanout(self.kernel, self.hierarchy, tier)
            resolved = self._fanouts[tier] = (fanout, fanout_index(fanout))
        return resolved

    def _top_fanout(self):
        if self._top is None:
            fanout = topmost_leader(self.kernel, self.hierarchy)
            if fanout is None:
                raise RuntimeError("topmost ring has no leader")
            self._top = (fanout, fanout_index(fanout))
        return self._top

    def _ims_tier(self) -> int:
        tiers = self._tiers_list()
        tier = self.intermediate_tier
        if len(tiers) < 3 and tier is None:
            tier = tiers[-1] if len(tiers) == 1 else tiers[-2]
        if tier is None:
            tier = tiers[len(tiers) // 2]
        if tier not in tiers:
            raise ValueError(f"tier {tier} does not exist in this hierarchy (tiers: {tiers})")
        return tier

    # -- the batched API ----------------------------------------------------

    def submit(self, scheme: MembershipScheme, entry_point: "NodeId | str | None" = None) -> None:
        """Queue one query for the next :meth:`drain`."""
        entry = self.default_entry if entry_point is None else coerce_node(entry_point)
        self._pending.append((scheme, entry))

    def drain(self, timings: Optional[List[float]] = None) -> List[QueryResult]:
        """Answer every pending query, in submit order, from coherent frames.

        ``timings`` (optional) receives one wall-clock duration per query;
        the query that triggers a frame capture pays for it, so tail
        latencies honestly include snapshot (re)builds.
        """
        pending, self._pending = self._pending, []
        results: List[QueryResult] = []
        for scheme, entry in pending:
            if timings is None:
                results.append(self._answer(scheme, entry))
            else:
                started = perf_counter()
                results.append(self._answer(scheme, entry))
                timings.append(perf_counter() - started)
        self.queries += len(pending)
        self.batches += 1
        return results

    def query(self, scheme: MembershipScheme, entry_point: "NodeId | str | None" = None) -> QueryResult:
        """One-off convenience: a batch of a single query."""
        self.submit(scheme, entry_point)
        return self.drain()[0]

    # -- per-scheme answers -------------------------------------------------

    def _answer(self, scheme: MembershipScheme, entry: NodeId) -> QueryResult:
        epoch = self._check_epoch()
        if scheme is MembershipScheme.TMS:
            return self._answer_topmost(entry, epoch)
        if scheme is MembershipScheme.BMS:
            tier = self.hierarchy.bottom_tier()
            return self._answer_fanout(scheme, tier, entry, epoch, up_bias=1)
        return self._answer_fanout(scheme, self._ims_tier(), entry, epoch, up_bias=0)

    def _answer_topmost(self, entry: NodeId, epoch: int) -> QueryResult:
        frame = self.cache.acquire("tms", -1, epoch, self._top_fanout)
        top_tier = frame.rings[0].tier
        hops = 2 * abs(top_tier - self._entry_tier(entry))
        return QueryResult(
            scheme=MembershipScheme.TMS,
            members=frame.members(),
            message_hops=hops if hops > 0 else 2,
            entities_contacted=frame.leaders,
            answered_by_tier=top_tier,
        )

    def _answer_fanout(
        self, scheme: MembershipScheme, tier: int, entry: NodeId, epoch: int, up_bias: int
    ) -> QueryResult:
        frame = self.cache.acquire(("tier", tier), tier, epoch, lambda: self._fanout_for(tier))
        # All fan-out targets sit in one tier, so the object path's
        # per-leader hop loop collapses to one multiply (BMS adds the extra
        # leader-to-local hop the paper charges: ``up_bias``).
        per_leader = 2 * max(1, abs(tier - self._entry_tier(entry)) + up_bias)
        return QueryResult(
            scheme=scheme,
            members=frame.members(),
            message_hops=per_leader * len(frame.leaders),
            entities_contacted=frame.leaders,
            answered_by_tier=tier,
        )

    # -- stats --------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Serving counters: query/batch totals and snapshot cache health."""
        out = {"queries": self.queries, "batches": self.batches}
        out.update(self.cache.stats())
        return out
