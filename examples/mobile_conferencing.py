#!/usr/bin/env python
"""Mobile video conferencing: the paper's motivating application class.

A conference with mobile participants (laptops, PDAs, phones) spread over the
wireless access networks of the 4-tier architecture.  Participants move
between cells during the call (a handoff storm with high locality), and the
conferencing application keeps querying the membership service to render the
roster.

Run with::

    python examples/mobile_conferencing.py
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.query import MembershipScheme
from repro.core.simulation import RGBSimulation
from repro.workloads.handoffs import HandoffStorm
from repro.workloads.queries import QueryWorkload


def main() -> None:
    sim = RGBSimulation(
        SimulationConfig(num_aps=50, ring_size=5, hosts_per_ap=0, seed=11)
    ).build()
    aps = sim.access_proxies()

    # 40 participants join the conference, spread over the access proxies.
    attachment = {}
    for index in range(40):
        ap = aps[(index * 3) % len(aps)]
        member = sim.join_member(ap_id=ap, guid=f"participant-{index:03d}")
        attachment[str(member.guid)] = ap
    sim.run_until_quiescent()
    print(f"conference started with {len(sim.global_membership())} participants")

    # Participants move between cells: 80% of handoffs stay within the
    # neighbouring cells of the same access-proxy ring.
    neighbor_map = {
        ap: [str(n) for n in sim.ring_of(ap).members if str(n) != ap] for ap in aps
    }
    storm = HandoffStorm(
        attachment=attachment,
        neighbor_map=neighbor_map,
        handoffs=120,
        locality=0.8,
        duration=600.0,
        seed=11,
    )
    events = storm.generate()
    for event in events:
        sim.handoff_member(event.member, event.to_ap)
        sim.run_until_quiescent()
    stats = sim.handoff_statistics()
    print(f"handoffs processed          : {stats['handoffs']:.0f}")
    print(f"fast-handoff hit ratio      : {stats['fast_path_ratio']:.1%} "
          f"(neighbour member list already knew the participant)")
    print(f"intra-ring handoff ratio    : {stats['intra_ring_ratio']:.1%}")
    print(f"roster size after the storm : {len(sim.global_membership())}")

    # The application renders the roster with different maintenance schemes.
    workload = QueryWorkload(entry_points=aps, queries=30, duration=60.0, seed=11)
    aggregates = QueryWorkload.replay(sim.kernel, workload.generate())
    print("\nmembership query cost by scheme (mean logical message hops per query):")
    for scheme in MembershipScheme:
        bucket = aggregates.get(scheme.value)
        if bucket is None:
            continue
        print(
            f"  {scheme.value:<12} {bucket['mean_hops']:8.1f} hops  "
            f"({bucket['mean_members']:.0f} members returned)"
        )
    print("\nTMS answers from the topmost ring in a couple of hops; BMS pays a "
          "fan-out to every access-proxy ring leader — the trade-off of Section 4.4.")


if __name__ == "__main__":
    main()
