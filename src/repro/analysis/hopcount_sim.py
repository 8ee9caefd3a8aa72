"""Measured hop counts from the implemented protocol.

The closed-form ``HCN_Ring`` of :mod:`repro.analysis.scalability` counts, per
membership change, one full token round in every logical ring plus one
notification message per ring-to-parent link.  This module measures the same
quantity by actually running the One-Round Token Passing engine on a regular
hierarchy and counting the hops the implementation generates, which validates
that the formula describes the code (and therefore that Table I describes the
protocol, not just the algebra).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.scalability import hcn_ring, ring_access_proxy_count
from repro.core.config import ProtocolConfig
from repro.core.hierarchy import HierarchyBuilder
from repro.core.one_round import OneRoundEngine


@dataclass(frozen=True)
class HopCountMeasurement:
    """Measured vs analytical hop count for one configuration."""

    height: int
    ring_size: int
    n: int
    changes: int
    measured_hops_per_change: float
    analytical_hcn: int
    token_hops: int
    notify_hops: int
    ack_hops: int


def measure_ring_hopcount(
    height: int,
    ring_size: int,
    changes: int = 1,
    config: Optional[ProtocolConfig] = None,
    distinct_origins: bool = True,
) -> HopCountMeasurement:
    """Measure hops per membership change on a regular ring hierarchy.

    ``changes`` membership joins are injected one at a time (each propagated
    to quiescence before the next, matching the paper's "one membership change
    message per ring at a time" regime) and the average hop count per change
    is reported.  ``distinct_origins`` spreads the joins over different access
    proxies; the hop count is origin-independent, which the tests assert.
    """
    if changes < 1:
        raise ValueError(f"changes must be >= 1, got {changes}")
    hierarchy = HierarchyBuilder("hopcount-group").regular(ring_size=ring_size, height=height)
    engine = OneRoundEngine(hierarchy, config=config)
    aps = hierarchy.access_proxies()

    total_token = 0
    total_notify = 0
    total_ack = 0
    for index in range(changes):
        ap = aps[index % len(aps)] if distinct_origins else aps[0]
        engine.member_join(ap, f"probe-{index:05d}", now=float(index))
        report = engine.propagate(now=float(index))
        total_token += report.token_hops
        total_notify += report.notify_hops
        total_ack += report.ack_hops

    measured = (total_token + total_notify) / changes
    return HopCountMeasurement(
        height=height,
        ring_size=ring_size,
        n=ring_access_proxy_count(height, ring_size),
        changes=changes,
        measured_hops_per_change=measured,
        analytical_hcn=hcn_ring(height, ring_size),
        token_hops=total_token,
        notify_hops=total_notify,
        ack_hops=total_ack,
    )
