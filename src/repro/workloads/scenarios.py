"""Packaged end-to-end scenarios used by examples and integration tests."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict

from repro.core.config import ProtocolConfig, SimulationConfig
from repro.core.hierarchy import HierarchyBuilder
from repro.core.one_round import OneRoundEngine
from repro.core.query import MembershipScheme
from repro.core.simulation import RGBSimulation
from repro.workloads.churn import ChurnKind, ChurnWorkload
from repro.workloads.handoffs import HandoffStorm


@dataclass
class ScenarioResult:
    """Outcome summary of a packaged scenario run."""

    name: str
    final_membership: int
    events_processed: int
    details: Dict[str, object] = field(default_factory=dict)


def run_churn_scenario(
    num_aps: int = 25,
    ring_size: int = 5,
    horizon: float = 200.0,
    join_rate: float = 0.5,
    seed: int = 0,
) -> ScenarioResult:
    """Members continuously join, leave and fail; RGB tracks the population.

    Returns the final global membership size, which must equal the number of
    joins minus departures the workload produced (checked by the integration
    tests).
    """
    sim = RGBSimulation(
        SimulationConfig(num_aps=num_aps, ring_size=ring_size, hosts_per_ap=0, seed=seed)
    ).build()
    workload = ChurnWorkload(
        ap_ids=sim.access_proxies(), join_rate=join_rate, horizon=horizon, seed=seed
    )
    events = workload.generate()
    joined: Dict[str, str] = {}
    processed = 0
    for event in events:
        if event.kind is ChurnKind.JOIN:
            sim.join_member(ap_id=event.ap, guid=event.member)
            joined[event.member] = event.ap
        elif event.kind is ChurnKind.LEAVE:
            if event.member not in joined:
                continue
            sim.leave_member(event.member)
            joined.pop(event.member)
        else:
            if event.member not in joined:
                continue
            sim.fail_member(event.member)
            joined.pop(event.member)
        processed += 1
        sim.run_until_quiescent()
    view = sim.global_membership()
    return ScenarioResult(
        name="churn",
        final_membership=len(view),
        events_processed=processed,
        details={
            "expected_membership": len(joined),
            "workload": ChurnWorkload.summarize(events),
        },
    )


def run_large_scale_scenario(
    ring_size: int = 10,
    height: int = 5,
    joins: int = 16,
    disseminate_downward: bool = True,
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
    config = ProtocolConfig(disseminate_downward=disseminate_downward)
    build_start = time.perf_counter()
    hierarchy = HierarchyBuilder("large-scale").regular(ring_size=ring_size, height=height)
    engine = OneRoundEngine(hierarchy, config=config)
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


def run_conferencing_scenario(
    num_aps: int = 25,
    ring_size: int = 5,
    participants: int = 30,
    handoffs: int = 60,
    locality: float = 0.8,
    seed: int = 0,
) -> ScenarioResult:
    """A mobile video-conference: members join, then move between cells.

    This is the motivating application class of the paper's introduction
    (video conferencing / distance learning with mobile participants).  The
    scenario joins ``participants`` members spread over the proxies, runs a
    handoff storm with the given locality, and reports the fast-handoff hit
    ratio alongside the query results under each maintenance scheme.
    """
    sim = RGBSimulation(
        SimulationConfig(num_aps=num_aps, ring_size=ring_size, hosts_per_ap=0, seed=seed)
    ).build()
    aps = sim.access_proxies()
    attachment: Dict[str, str] = {}
    for index in range(participants):
        ap = aps[index % len(aps)]
        member = sim.join_member(ap_id=ap, guid=f"conf-{index:04d}")
        attachment[str(member.guid)] = ap
    sim.run_until_quiescent()

    neighbor_map = {}
    for ap in aps:
        ring = sim.ring_of(ap)
        neighbor_map[ap] = [str(n) for n in ring.members if str(n) != ap]
    storm = HandoffStorm(
        attachment=attachment,
        neighbor_map=neighbor_map,
        handoffs=handoffs,
        locality=locality,
        seed=seed,
    )
    events = storm.generate()
    for event in events:
        sim.handoff_member(event.member, event.to_ap)
        sim.run_until_quiescent()

    queries = {
        scheme.value: sim.query(scheme).message_hops for scheme in MembershipScheme
    }
    view = sim.global_membership()
    return ScenarioResult(
        name="conferencing",
        final_membership=len(view),
        events_processed=participants + len(events),
        details={
            "handoff_stats": sim.handoff_statistics(),
            "storm_locality": HandoffStorm.locality_ratio(events),
            "query_hops": queries,
        },
    )
