"""The packaged large-scale propagation scenario (the 100k-proxy scale path)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict

from repro.core.hierarchy import HierarchyBuilder
from repro.core.one_round import OneRoundEngine


@dataclass
class ScenarioResult:
    """Outcome summary of a packaged scenario run."""

    name: str
    final_membership: int
    events_processed: int
    details: Dict[str, object] = field(default_factory=dict)


def run_large_scale_scenario(
    ring_size: int = 10,
    height: int = 5,
    joins: int = 16,
    verify_rings: int = 25,
) -> ScenarioResult:
    """One full propagation over a regular hierarchy with ``ring_size**height``
    access proxies (100 000 at the defaults) — the ROADMAP's scale direction.

    The scenario builds the paper's regular analytical hierarchy directly
    (skipping the 4-tier topology generator, which is not needed for protocol
    scaling), captures ``joins`` membership joins spread across the proxies in
    one batch, and drives a single :meth:`OneRoundEngine.propagate` so the
    kernel aggregates them into shared token rounds and applies each ring's
    operations as one compiled delta.

    Returns wall-clock build/propagation timings, the round and hop counts,
    and an agreement check over ``verify_rings`` sampled rings.
    """
    if joins < 1:
        raise ValueError(f"joins must be >= 1, got {joins}")
    build_start = time.perf_counter()
    hierarchy = HierarchyBuilder("large-scale").regular(ring_size=ring_size, height=height)
    engine = OneRoundEngine(hierarchy)
    build_seconds = time.perf_counter() - build_start
    aps = hierarchy.access_proxies()
    stride = max(1, len(aps) // joins)
    for index in range(joins):
        engine.member_join(aps[(index * stride) % len(aps)], f"big-{index:06d}")

    propagate_start = time.perf_counter()
    report = engine.propagate()
    propagate_seconds = time.perf_counter() - propagate_start

    ring_ids = sorted(hierarchy.rings)
    sample_stride = max(1, len(ring_ids) // max(1, verify_rings))
    sampled = ring_ids[::sample_stride][:verify_rings]
    agreement = all(engine.ring_agreement(ring_id) for ring_id in sampled)

    membership = len(engine.global_membership())
    return ScenarioResult(
        name="large_scale",
        final_membership=membership,
        events_processed=joins,
        details={
            "access_proxies": len(aps),
            "rings": hierarchy.total_rings,
            "entities": hierarchy.total_nodes(),
            "build_seconds": build_seconds,
            "propagate_seconds": propagate_seconds,
            "rounds": report.round_count,
            "hop_count": report.hop_count,
            "joins_per_second": joins / propagate_seconds if propagate_seconds > 0 else 0.0,
            "sampled_ring_agreement": agreement,
        },
    )
