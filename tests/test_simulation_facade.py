"""Tests for the RGBSimulation facade and the workload generators."""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.core.query import MembershipScheme
from repro.core.simulation import RGBSimulation, SimulationNotBuilt
from repro.sim.mobility import HandoffEvent, MobilityModel
from repro.sim.rng import RandomStreams
from repro.workloads.churn import ChurnKind, ChurnWorkload
from repro.workloads.handoffs import HandoffStorm
from repro.workloads.queries import QueryWorkload


class TestFacadeConstruction:
    def test_requires_build_before_use(self):
        sim = RGBSimulation(SimulationConfig(num_aps=8, ring_size=3))
        with pytest.raises(SimulationNotBuilt):
            sim.join_member()

    def test_participating_ap_count_matches_config(self, sim):
        assert len(sim.access_proxies()) == 12

    def test_rings_respect_ring_size(self, sim):
        for ap in sim.access_proxies():
            assert len(sim.ring_of(ap)) <= 4

    def test_hierarchy_is_valid(self, sim):
        sim.hierarchy.validate()

    def test_hosts_per_ap_preattached(self):
        sim = RGBSimulation(SimulationConfig(num_aps=6, ring_size=3, hosts_per_ap=2, seed=1)).build()
        assert len(sim.global_membership()) == 12

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_aps=0)
        with pytest.raises(ValueError):
            SimulationConfig(ring_size=1)


class TestFacadeOperations:
    def test_join_leave_cycle(self, sim):
        member = sim.join_member(ap_index=0, guid="alice")
        sim.run_until_quiescent()
        assert member.guid in sim.global_membership()
        sim.leave_member("alice")
        sim.run_until_quiescent()
        assert "alice" not in sim.global_membership()

    def test_fail_member(self, sim):
        sim.join_member(ap_index=1, guid="bob")
        sim.run_until_quiescent()
        sim.fail_member("bob")
        sim.run_until_quiescent()
        assert "bob" not in sim.global_membership()

    def test_unknown_member_operations_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.leave_member("ghost")
        with pytest.raises(ValueError):
            sim.handoff_member("ghost", sim.access_proxies()[0])
        sim.join_member(ap_index=0, guid="alice")
        with pytest.raises(ValueError):
            sim.handoff_member("alice", "not-an-ap")
        with pytest.raises(ValueError):
            sim.crash_entity("not-an-entity")

    def test_handoff_updates_location(self, sim):
        aps = sim.access_proxies()
        sim.join_member(ap_id=aps[0], guid="alice")
        sim.run_until_quiescent()
        record = sim.handoff_member("alice", aps[1])
        sim.run_until_quiescent()
        assert record.to_ap == aps[1]
        stats = sim.handoff_statistics()
        assert stats["handoffs"] == 1.0

    def test_query_schemes_agree(self, sim):
        for i in range(4):
            sim.join_member(ap_index=i)
        sim.run_until_quiescent()
        tms = sim.query(MembershipScheme.TMS)
        bms = sim.query(MembershipScheme.BMS)
        assert tms.guids == bms.guids
        assert len(tms) == 4

    def test_membership_events_filtered_to_top_leader(self, sim):
        sim.join_member(ap_index=0, guid="alice")
        sim.run_until_quiescent()
        events = sim.membership_events()
        assert len(events) == 1
        assert str(events[0].member.guid) == "alice"

    def test_crash_entity_and_partition_report(self, sim):
        aps = sim.access_proxies()
        sim.join_member(ap_id=aps[0], guid="alice")
        sim.run_until_quiescent()
        sim.crash_entity(aps[1])
        sim.join_member(ap_id=aps[0], guid="bob")
        sim.run_until_quiescent()
        report = sim.partition_report()
        assert report.count == 1
        assert "alice" in sim.global_membership()

    def test_metric_snapshot_has_round_counters(self, sim):
        sim.join_member(ap_index=0)
        sim.run_until_quiescent()
        snapshot = sim.metrics.snapshot()
        assert snapshot["counter.rounds.completed"] > 0

    def test_mobility_trace_replay(self, sim):
        """A generated mobility trace over the participating proxies replays
        through the facade's join / handoff / leave verbs."""
        model = MobilityModel(
            sim.access_proxies(), RandomStreams(0), mean_residency=50.0, mean_session=150.0
        )
        trace = model.generate_population(num_hosts=5, arrival_rate=1.0, horizon=200.0)
        joins = leaves = 0
        for event in trace.all_events():
            if isinstance(event, HandoffEvent):
                sim.handoff_member(event.host_id, event.to_ap)
            elif event.attach:
                sim.join_member(ap_id=event.ap_id, guid=event.host_id)
                joins += 1
            else:
                sim.leave_member(event.host_id)
                leaves += 1
            sim.run_until_quiescent()
        assert joins == 5
        assert joins - leaves == len(sim.global_membership())

    def test_ap_index_out_of_range(self, sim):
        with pytest.raises(ValueError):
            sim.join_member(ap_index=99)
        with pytest.raises(ValueError):
            sim.join_member(ap_id="not-an-ap")


class TestWorkloads:
    def test_churn_population_consistency(self):
        workload = ChurnWorkload(ap_ids=["a", "b", "c"], join_rate=1.0, leave_rate=0.01, horizon=100.0, seed=4)
        events = workload.generate()
        population = set()
        for event in events:
            if event.kind is ChurnKind.JOIN:
                assert event.member not in population
                population.add(event.member)
            else:
                assert event.member in population
                population.remove(event.member)
        joins = sum(event.kind is ChurnKind.JOIN for event in events)
        assert joins >= len(events) - joins

    def test_churn_events_are_time_ordered(self):
        events = ChurnWorkload(ap_ids=["a"], join_rate=2.0, horizon=50.0, seed=1).generate()
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(t <= 50.0 for t in times)

    def test_churn_validation(self):
        with pytest.raises(ValueError):
            ChurnWorkload(ap_ids=[], join_rate=1.0)
        with pytest.raises(ValueError):
            ChurnWorkload(ap_ids=["a"], join_rate=0.0)

    def test_handoff_storm_locality(self):
        attachment = {f"m{i}": "ap-0" for i in range(10)}
        neighbors = {"ap-0": ["ap-1"], "ap-1": ["ap-0"], "ap-2": []}
        storm = HandoffStorm(
            attachment=attachment, neighbor_map=neighbors, handoffs=200, locality=1.0, seed=2
        )
        events = storm.generate()
        assert events
        assert sum(event.local for event in events) > 0.9 * len(events)

    def test_handoff_storm_moves_members_consistently(self):
        attachment = {"m0": "ap-0", "m1": "ap-1"}
        neighbors = {"ap-0": ["ap-1", "ap-2"], "ap-1": ["ap-0"], "ap-2": ["ap-0"]}
        storm = HandoffStorm(attachment=attachment, neighbor_map=neighbors, handoffs=50, seed=3)
        events = storm.generate()
        location = dict(attachment)
        for event in events:
            assert location[event.member] == event.from_ap
            location[event.member] = event.to_ap

    def test_handoff_storm_validation(self):
        with pytest.raises(ValueError):
            HandoffStorm(attachment={}, neighbor_map={}, handoffs=10)
        with pytest.raises(ValueError):
            HandoffStorm(attachment={"m": "a"}, neighbor_map={}, locality=2.0)

    def test_query_workload_replay(self, sim):
        for i in range(3):
            sim.join_member(ap_index=i)
        sim.run_until_quiescent()
        workload = QueryWorkload(entry_points=sim.access_proxies(), queries=12, seed=5)
        requests = workload.generate()
        assert len(requests) == 12
        aggregates = QueryWorkload.replay(sim.kernel, requests)
        assert aggregates
        for bucket in aggregates.values():
            assert bucket["mean_members"] == 3.0

    def test_query_workload_validation(self):
        with pytest.raises(ValueError):
            QueryWorkload(entry_points=[], queries=5)
        with pytest.raises(ValueError):
            QueryWorkload(entry_points=["a"], queries=0)
