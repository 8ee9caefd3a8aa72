"""Member handoff classification (fast handoff via neighbour member lists).

The paper motivates ``ListOfNeighborMembers`` — the list of operational
members at neighbouring nodes of the hierarchy — as the ingredient for *fast
handoff*: when a mobile host moves to an adjacent cell, the new access proxy
very likely already has the member's record in its neighbour list, so it can
re-admit the member immediately and only propagate the attachment-point change
asynchronously, instead of treating the arrival as a brand-new join that must
climb the hierarchy before the member is served.

:class:`HandoffManager` classifies each handoff from the kernel's state just
before the caller captures it — did the destination proxy's neighbour list
already hold the member, and does the move stay within one ring — and
aggregates the fast-path hit ratio the handoff-storm benchmark reports.
Capturing the handoff is the kernel's ``handoff`` verb
(:meth:`repro.core.kernel.TokenRoundKernel.handoff`); propagating it is the
driver's round scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.identifiers import NodeId, coerce_guid, coerce_node


@dataclass
class HandoffRecord:
    """Outcome of one handoff request."""

    guid: str
    from_ap: str
    to_ap: str
    fast_path: bool
    same_ring: bool
    time: float = 0.0


@dataclass
class HandoffStats:
    """Aggregate statistics over a sequence of handoffs."""

    records: List[HandoffRecord] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def fast_path_hits(self) -> int:
        return sum(1 for r in self.records if r.fast_path)

    @property
    def fast_path_ratio(self) -> float:
        return self.fast_path_hits / self.total if self.total else 0.0

    @property
    def intra_ring_ratio(self) -> float:
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.same_ring) / self.total


class HandoffManager:
    """Records, per handoff, whether the fast path applies.

    ``kernel`` is anything exposing ``hierarchy`` and ``entity(node)`` — a
    :class:`repro.core.kernel.TokenRoundKernel` or a
    :class:`repro.core.one_round.OneRoundEngine`.
    """

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.stats = HandoffStats()

    def classify(
        self,
        guid: str,
        from_ap: "NodeId | str",
        to_ap: "NodeId | str",
        now: float = 0.0,
    ) -> HandoffRecord:
        """Record one handoff; call it before the handoff is captured."""
        key = str(coerce_guid(guid))
        old_ap = coerce_node(from_ap)
        new_ap = coerce_node(to_ap)
        hierarchy = self.kernel.hierarchy
        same_ring = (
            hierarchy.has_node(old_ap)
            and hierarchy.has_node(new_ap)
            and hierarchy.ring_of(old_ap) is hierarchy.ring_of(new_ap)
        )
        record = HandoffRecord(
            guid=key,
            from_ap=str(old_ap),
            to_ap=str(new_ap),
            fast_path=self.kernel.entity(new_ap).neighbor_members.get(key) is not None,
            same_ring=same_ring,
            time=now,
        )
        self.stats.records.append(record)
        return record

    def fast_path_ratio(self) -> float:
        return self.stats.fast_path_ratio

    def summary(self) -> Dict[str, float]:
        return {
            "handoffs": float(self.stats.total),
            "fast_path_hits": float(self.stats.fast_path_hits),
            "fast_path_ratio": self.stats.fast_path_ratio,
            "intra_ring_ratio": self.stats.intra_ring_ratio,
        }
