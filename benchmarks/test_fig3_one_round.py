"""Figure 3 — the One-Round Token Passing Membership algorithm.

Exercises the algorithm end-to-end on both drivers — the structural engine
and the event-driven harness behind the facade: a single membership change
is captured at an access proxy, circulates each involved ring exactly once,
climbs to the topmost ring and leaves every ring in agreement.
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.hierarchy import HierarchyBuilder
from repro.core.one_round import OneRoundEngine
from repro.core.simulation import RGBSimulation


def run_structural_round():
    hierarchy = HierarchyBuilder("fig3").regular(ring_size=5, height=2)
    engine = OneRoundEngine(hierarchy)
    engine.member_join(hierarchy.access_proxies()[7], "figure3-member")
    report = engine.propagate()
    return engine, report


def test_fig3_structural_one_round(benchmark, report):
    engine, propagation = benchmark(run_structural_round)
    hierarchy = engine.hierarchy
    # One round per ring, agreement everywhere, change visible at the top.
    assert propagation.round_count == hierarchy.total_rings
    assert all(engine.ring_agreement(ring_id) for ring_id in hierarchy.rings)
    assert engine.global_guids() == ["figure3-member"]
    per_ring = {}
    for round_result in propagation.rounds:
        per_ring.setdefault(round_result.ring_id, 0)
        per_ring[round_result.ring_id] += 1
    assert set(per_ring.values()) == {1}
    report(
        "Figure 3 — one-round token passing (structural engine)",
        [
            f"rings involved        = {propagation.round_count} (= total rings {hierarchy.total_rings})",
            f"token hops            = {propagation.token_hops}",
            f"notification messages = {propagation.notify_hops}",
            f"holder acknowledgements = {propagation.ack_hops}",
            "every ring reached agreement within a single round",
        ],
    )


def run_event_round():
    sim = RGBSimulation(
        SimulationConfig(num_aps=25, ring_size=5, hosts_per_ap=0, seed=42)
    ).build()
    member = sim.join_member(ap_index=7, guid="figure3-member")
    result = sim.run_until_quiescent()
    return sim, member, result


def test_fig3_event_driven_one_round(benchmark, report):
    sim, member, result = benchmark.pedantic(run_event_round, rounds=1, iterations=1)
    assert member.guid in sim.global_membership()
    assert result.ok
    rounds = result.counters["rounds.completed"]
    hops = result.counters["hops.token"]
    latency = sim.engine.now
    # One round per ring, exactly as in the structural engine.
    assert rounds == sim.hierarchy.total_rings and hops > 0
    report(
        "Figure 3 — one-round token passing (event-driven harness)",
        [
            f"token rounds completed = {rounds}",
            f"token hops             = {hops}",
            f"propagation latency    = {latency:.1f} simulated ms",
        ],
    )
