#!/usr/bin/env python
"""Churn + entity failures on the event-driven harness.

Runs the RGB protocol as a distributed system over the discrete-event
transport: membership changes are real messages subject to latency, a crashed
access proxy is detected when a token round next visits it, and it is
excluded from its ring by local repair.

Run with::

    python examples/churn_and_failures.py
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.simulation import RGBSimulation
from repro.workloads.churn import ChurnKind, ChurnWorkload


def main() -> None:
    config = SimulationConfig(num_aps=25, ring_size=5, hosts_per_ap=0, seed=23)
    sim = RGBSimulation(config).build()
    aps = sim.access_proxies()

    # Phase 1: churn — members continuously join and leave.
    workload = ChurnWorkload(ap_ids=aps, join_rate=0.3, leave_rate=0.002, horizon=300.0, seed=23)
    events = workload.generate()
    joined = {}
    for event in events:
        if event.kind is ChurnKind.JOIN:
            sim.join_member(ap_id=event.ap, guid=event.member)
            joined[event.member] = event.ap
        elif event.member in joined:
            sim.leave_member(event.member)
            joined.pop(event.member)
    sim.run_until_quiescent()
    print(f"churn phase: {len(events)} events, "
          f"{len(sim.global_membership())} members in the global view "
          f"(expected {len(joined)})")

    # Phase 2: crash two access proxies; their members must be reported failed.
    victims = [ap for ap in aps if joined and any(v == ap for v in joined.values())][:2]
    lost = [m for m, ap in joined.items() if ap in victims]
    for victim in victims:
        sim.crash_entity(victim)
    # New traffic in the affected rings triggers detection by the next token
    # round (the harness's crash-detection probe round would also catch it).
    for index, victim in enumerate(victims):
        ring = sim.ring_of(victim)
        survivor = next(str(n) for n in ring.members if str(n) not in victims)
        sim.join_member(ap_id=survivor, guid=f"post-crash-{index}")
    sim.run_until_quiescent()

    view = sim.global_membership()
    still_listed = [m for m in lost if m in view]
    print(f"crashed {len(victims)} access proxies carrying {len(lost)} members; "
          f"{len(still_listed)} still listed after detection and repair")
    print(f"final membership size: {len(view)}")
    print(f"hierarchy partitions after repair: {sim.partition_report().count}")

    counters = sim.metrics.counters
    interesting = [
        "rounds.completed",
        "hops.token",
        "hops.notify",
        "repairs.ring",
        "transport.sent",
        "transport.dropped",
    ]
    print("\nprotocol counters:")
    for name in interesting:
        counter = counters.get(name)
        if counter is not None:
            print(f"  {name:<32} {counter.value}")


if __name__ == "__main__":
    main()
