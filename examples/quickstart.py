#!/usr/bin/env python
"""Quickstart: build an RGB hierarchy, join members, watch changes propagate.

Run with::

    python examples/quickstart.py

The script builds a 25-access-proxy hierarchy (rings of 5), joins a handful of
mobile hosts, performs a handoff and a voluntary leave, and prints the global
membership view maintained at the topmost ring leader after each step — the
end-to-end path of the One-Round Token Passing Membership algorithm
(paper Section 4.3, Figure 3).
"""

from __future__ import annotations

from repro import RGBSimulation, SimulationConfig
from repro.core.query import MembershipScheme
from repro.topology.rendering import render_hierarchy


def main() -> None:
    config = SimulationConfig(num_aps=25, ring_size=5, hosts_per_ap=0, seed=7, trace_enabled=True)
    sim = RGBSimulation(config).build()

    print("=== The ring-based hierarchy (Figure 2) ===")
    assert sim.hierarchy is not None
    print(render_hierarchy(sim.hierarchy, max_rings_per_tier=3))
    print()

    aps = sim.access_proxies()
    print(f"Participating access proxies: {len(aps)} (rings of {config.ring_size})")
    print()

    print("=== Members join at three different proxies ===")
    alice = sim.join_member(ap_id=aps[0], guid="alice")
    bob = sim.join_member(ap_id=aps[7], guid="bob")
    carol = sim.join_member(ap_id=aps[13], guid="carol")
    counters = sim.run_until_quiescent().counters
    hops = counters["hops.token"] + counters["hops.notify"]
    print(f"propagation used {hops} message hops over {counters['rounds.completed']} token rounds")
    print(f"global membership: {sim.global_membership().guids()}")
    print()

    print("=== Alice hands off to a neighbouring cell ===")
    record = sim.handoff_member("alice", aps[1])
    sim.run_until_quiescent()
    print(f"fast handoff path used: {record.fast_path} (neighbour list hit)")
    located = sim.query(MembershipScheme.TMS)
    print(f"TMS query answered from tier {located.answered_by_tier} "
          f"in {located.message_hops} hops: {located.guids}")
    print()

    print("=== Bob leaves voluntarily ===")
    sim.leave_member("bob")
    sim.run_until_quiescent()
    print(f"global membership: {sim.global_membership().guids()}")
    print()

    print("=== An access proxy crashes ===")
    victim = aps[13]  # carol's proxy
    sim.crash_entity(victim)
    sim.join_member(ap_id=aps[14], guid="dave")  # traffic triggers detection + repair
    sim.run_until_quiescent()
    print(f"crashed {victim}; carol (attached to it) is reported failed")
    print(f"global membership: {sim.global_membership().guids()}")
    print(f"hierarchy partitions after repair: {sim.partition_report().count}")
    print()

    events = sim.membership_events()
    print(f"=== {len(events)} membership events observed at the topmost leader ===")
    for event in events:
        member = event.member.guid if event.member is not None else "?"
        print(f"  t={event.time:8.2f}  {event.event_type.value:<8} {member}")

    del alice, bob, carol


if __name__ == "__main__":
    main()
