"""Ablation A2 — message-queue aggregation vs one round per change.

The paper's MQ is "self-optimized for aggregating some successive messages
into one".  This ablation drives an identical burst of membership changes
through the protocol with aggregation on and off and compares hop counts and
round counts.
"""

from __future__ import annotations

from repro.core.config import ProtocolConfig
from repro.core.hierarchy import HierarchyBuilder
from repro.core.one_round import OneRoundEngine


BURST = 12


def run_burst(aggregate: bool):
    hierarchy = HierarchyBuilder("a2").regular(ring_size=5, height=2)
    engine = OneRoundEngine(
        hierarchy, config=ProtocolConfig(aggregate_mq=aggregate)
    )
    ring = hierarchy.bottom_rings()[0]
    # A burst of joins and churny join+leave pairs landing at the same proxies.
    for i in range(BURST):
        ap = ring.members[i % len(ring.members)]
        engine.member_join(ap, f"burst-{i:03d}")
    for i in range(0, BURST, 3):
        ap = ring.members[i % len(ring.members)]
        engine.member_leave(ap, f"burst-{i:03d}")
    propagation = engine.propagate()
    return engine, propagation


def test_ablation_mq_aggregation(benchmark, report):
    def run_both():
        return run_burst(aggregate=True), run_burst(aggregate=False)

    (agg_engine, agg_report), (plain_engine, plain_report) = benchmark(run_both)

    # Both variants converge to the same membership.
    assert agg_engine.global_guids() == plain_engine.global_guids()
    expected = {f"burst-{i:03d}" for i in range(BURST)} - {f"burst-{i:03d}" for i in range(0, BURST, 3)}
    assert set(agg_engine.global_guids()) == expected

    # Aggregation never costs more hops or rounds, and cancels join+leave pairs.
    assert agg_report.hop_count <= plain_report.hop_count
    assert agg_report.round_count <= plain_report.round_count

    report(
        "Ablation A2 — MQ aggregation (burst of 12 joins + 4 leaves)",
        [
            f"{'variant':<16} {'rounds':>7} {'hop count':>10}",
            f"{'aggregated':<16} {agg_report.round_count:>7} {agg_report.hop_count:>10}",
            f"{'one-per-change':<16} {plain_report.round_count:>7} {plain_report.hop_count:>10}",
            f"hops saved by aggregation: "
            f"{100.0 * (1 - agg_report.hop_count / plain_report.hop_count):.1f}%",
        ],
    )
