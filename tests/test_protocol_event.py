"""The facade's event-driven run: tokens and notifications over the transport."""

from __future__ import annotations

from repro.core.config import TOKEN_RETRY_LIMIT, ProtocolConfig, SimulationConfig
from repro.core.simulation import RGBSimulation


def build_event_sim(num_aps=12, ring_size=4, seed=3, **protocol_kwargs) -> RGBSimulation:
    return RGBSimulation(
        SimulationConfig(
            num_aps=num_aps,
            ring_size=ring_size,
            hosts_per_ap=0,
            seed=seed,
            protocol=ProtocolConfig(**protocol_kwargs),
        )
    ).build()


def counter(sim: RGBSimulation, name: str) -> int:
    found = sim.metrics.counters.get(name)
    return 0 if found is None else found.value


class TestEventJoinLeave:
    def test_single_join_reaches_top_leader(self, sim):
        member = sim.join_member(ap_index=0)
        sim.run_until_quiescent()
        assert member.guid in sim.global_membership()

    def test_multiple_joins_from_different_rings(self, sim):
        members = [sim.join_member(ap_index=i) for i in (0, 5, 11)]
        sim.run_until_quiescent()
        view = sim.global_membership()
        assert all(m.guid in view for m in members)
        assert len(view) == 3

    def test_leave_removes_member(self, sim):
        sim.join_member(ap_index=0, guid="alice")
        sim.run_until_quiescent()
        sim.leave_member("alice")
        sim.run_until_quiescent()
        assert "alice" not in sim.global_membership()

    def test_join_uses_real_messages(self, sim):
        sim.join_member(ap_index=0)
        result = sim.run_until_quiescent()
        assert result.counters["transport.sent"] > 0
        assert result.counters["rounds.completed"] >= 1
        assert result.counters["hops.token"] > 0
        assert sim.engine.now > 0.0

    def test_views_consistent_across_ring_members(self, sim):
        sim.join_member(ap_index=2, guid="alice")
        sim.run_until_quiescent()
        ring = sim.ring_of(sim.access_proxies()[2])
        views = [sim.kernel.entity(node).ring_members.snapshot() for node in ring.members]
        assert len(set(views)) == 1

    def test_handoff_over_messages(self, sim):
        aps = sim.access_proxies()
        sim.join_member(ap_id=aps[0], guid="alice")
        sim.run_until_quiescent()
        sim.handoff_member("alice", aps[6])
        sim.run_until_quiescent()
        assert sim.kernel.entity(aps[6]).local_members.get("alice") is not None
        assert sim.kernel.entity(aps[0]).local_members.get("alice") is None
        assert str(sim.global_membership().get("alice").ap) == aps[6]


class TestEventFailureDetection:
    def test_crashed_ap_detected_and_members_removed(self):
        sim = build_event_sim()
        aps = sim.access_proxies()
        ring = sim.ring_of(aps[0])
        victim = str(ring.members[1])
        survivor = str(ring.members[0])
        sim.join_member(ap_id=victim, guid="victim-member")
        sim.run_until_quiescent()
        sim.crash_entity(victim)
        sim.join_member(ap_id=survivor, guid="trigger")
        sim.run_until_quiescent()
        view = sim.global_membership()
        assert "victim-member" not in view
        assert "trigger" in view
        assert victim not in [str(n) for n in sim.ring_of(survivor).members]
        assert counter(sim, "repairs.ring") == 1

    def test_crashed_leader_replaced_by_ring_repair(self):
        sim = build_event_sim()
        aps = sim.access_proxies()
        ring = sim.ring_of(aps[0])
        leader = str(ring.leader)
        survivor = next(str(n) for n in ring.members if str(n) != leader)
        sim.crash_entity(leader)
        sim.join_member(ap_id=survivor, guid="bob")
        sim.run_until_quiescent()
        assert "bob" in sim.global_membership()
        new_leader = sim.ring_of(survivor).leader
        assert new_leader is not None and str(new_leader) != leader
        # The parent re-links to the new leader, so the upward path survives.
        parent = sim.harness.hierarchy.parent_of_ring(ring.ring_id)
        assert sim.kernel.entity(new_leader).parent == parent
        assert new_leader in sim.kernel.entity(parent).children

    def test_crashed_node_stops_participating(self):
        sim = build_event_sim()
        aps = sim.access_proxies()
        sim.crash_entity(aps[0])
        sim.run_until_quiescent()
        # A join at a crashed proxy is skipped, never captured.
        assert sim.harness.capture_join(aps[0], "ghost") is None
        sim.run_until_quiescent()
        assert "ghost" not in sim.global_membership()
        assert counter(sim, "harness.captures_skipped") == 1

    def test_skipped_handoff_counts_once(self):
        sim = build_event_sim()
        aps = sim.access_proxies()
        sim.join_member(ap_id=aps[0], guid="alice")
        sim.crash_entity(aps[1])
        sim.run_until_quiescent()
        for skips in (1, 2):
            assert sim.harness.capture_handoff("alice", aps[1]) is None
            assert counter(sim, "harness.captures_skipped") == skips
        assert str(sim.kernel.location_of("alice")) == aps[0]

    def test_crash_detection_probe_repairs_idle_ring(self):
        sim = build_event_sim()
        aps = sim.access_proxies()
        sim.join_member(ap_id=aps[0], guid="alice")
        sim.run_until_quiescent()
        rounds_before = counter(sim, "rounds.completed")
        ring = sim.ring_of(aps[0])
        victim = next(str(n) for n in ring.members if n != ring.leader)
        sim.crash_entity(victim)
        # No new membership traffic: only the crash-detection probe round
        # can notice the crash.
        sim.run_until_quiescent()
        assert victim not in [str(n) for n in sim.ring_of(aps[0]).members]
        assert counter(sim, "repairs.ring") == 1
        assert counter(sim, "rounds.completed") > rounds_before
        assert "alice" in sim.global_membership()

    def test_token_retransmissions_counted_on_timeout(self):
        sim = build_event_sim()
        aps = sim.access_proxies()
        ring = sim.ring_of(aps[0])
        holder = str(ring.leader)
        victim = str(ring.successor(ring.leader))
        rounds = []
        run_round = sim.kernel.run_round
        sim.kernel.run_round = lambda *args, **kwargs: rounds.append(
            run_round(*args, **kwargs)
        )
        sim.join_member(ap_id=holder, guid="alice")
        sim.crash_entity(victim)
        sim.run_until_quiescent()
        # The token hop to the crashed successor is lost; the holder retries
        # TOKEN_RETRY_LIMIT times, then the round repairs the ring and goes on.
        assert sum(r.retransmissions for r in rounds) == TOKEN_RETRY_LIMIT + 1
        assert [str(n) for r in rounds for n in r.repaired] == [victim]
        assert "alice" in sim.global_membership()


class TestEventConfigurationVariants:
    def test_aggregation_reduces_rounds_for_bursts(self):
        aggregated = build_event_sim()
        flat = build_event_sim(aggregate_mq=False)
        for sim in (aggregated, flat):
            ap = sim.access_proxies()[0]
            for i in range(6):
                sim.join_member(ap_id=ap, guid=f"m{i}")
            sim.leave_member("m0")
            sim.run_until_quiescent()
            assert len(sim.global_membership()) == 5
        assert counter(aggregated, "rounds.completed") <= counter(flat, "rounds.completed")
        assert counter(aggregated, "hops.token") <= counter(flat, "hops.token")

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            sim = build_event_sim(seed=9)
            sim.join_member(ap_index=0, guid="alice")
            sim.join_member(ap_index=7, guid="bob")
            sim.run_until_quiescent()
            results.append(
                (
                    sim.engine.dispatched_events,
                    sim.engine.now,
                    counter(sim, "hops.token"),
                    tuple(sim.global_membership().guids()),
                )
            )
        assert results[0] == results[1]
