"""Tests for the One-Round Token Passing Membership algorithm (Figure 3)."""

from __future__ import annotations

import pytest

from repro.analysis.scalability import hcn_ring
from repro.core.config import ProtocolConfig
from repro.core.hierarchy import HierarchyBuilder
from repro.core.identifiers import NodeId
from repro.core.one_round import OneRoundEngine, ProtocolError


def engine_for(ring_size=3, height=2, **config_kwargs) -> OneRoundEngine:
    hierarchy = HierarchyBuilder("g").regular(ring_size=ring_size, height=height)
    return OneRoundEngine(hierarchy, config=ProtocolConfig(**config_kwargs))


class TestSingleJoinPropagation:
    def test_join_reaches_global_view(self):
        engine = engine_for()
        ap = engine.hierarchy.access_proxies()[0]
        engine.member_join(ap, "alice")
        engine.propagate()
        assert engine.global_guids() == ["alice"]

    def test_join_updates_local_view_of_origin_ap(self):
        engine = engine_for()
        ap = engine.hierarchy.access_proxies()[0]
        engine.member_join(ap, "alice")
        engine.propagate()
        assert engine.entity(ap).local_members.guids() == ["alice"]

    def test_join_updates_neighbor_views_in_same_ring(self):
        engine = engine_for()
        ring = engine.hierarchy.bottom_rings()[0]
        origin = ring.members[0]
        neighbor = ring.members[1]
        engine.member_join(origin, "alice")
        engine.propagate()
        assert "alice" in engine.entity(neighbor).neighbor_members.guids()
        assert engine.entity(neighbor).local_members.guids() == []

    def test_all_rings_agree_after_propagation(self):
        engine = engine_for(ring_size=3, height=3)
        engine.member_join(engine.hierarchy.access_proxies()[5], "alice")
        engine.propagate()
        for ring_id in engine.hierarchy.rings:
            assert engine.ring_agreement(ring_id)

    def test_hop_count_matches_formula_six(self):
        for r, h in [(2, 2), (3, 2), (3, 3), (5, 2)]:
            engine = engine_for(ring_size=r, height=h)
            engine.member_join(engine.hierarchy.access_proxies()[0], "probe")
            report = engine.propagate()
            assert report.hop_count == hcn_ring(h, r)

    def test_hop_count_is_origin_independent(self):
        hops = set()
        for origin_index in range(4):
            engine = engine_for(ring_size=3, height=3)
            engine.member_join(engine.hierarchy.access_proxies()[origin_index * 5], "probe")
            hops.add(engine.propagate().hop_count)
        assert len(hops) == 1

    def test_every_ring_runs_at_least_one_round(self):
        engine = engine_for(ring_size=3, height=2)
        engine.member_join(engine.hierarchy.access_proxies()[0], "alice")
        report = engine.propagate()
        assert report.rings_involved == set(engine.hierarchy.rings)

    def test_without_downward_dissemination_only_the_upward_path_is_involved(self):
        engine = engine_for(ring_size=3, height=2, disseminate_downward=False)
        engine.member_join(engine.hierarchy.access_proxies()[0], "alice")
        report = engine.propagate()
        # Only the origin AP ring and the topmost ring circulate the change.
        assert len(report.rings_involved) == 2
        assert report.hop_count < hcn_ring(2, 3)
        assert engine.global_guids() == ["alice"]


class TestLeaveHandoffFailure:
    def test_leave_removes_member_everywhere(self):
        engine = engine_for()
        ap = engine.hierarchy.access_proxies()[0]
        engine.member_join(ap, "alice")
        engine.propagate()
        engine.member_leave(ap, "alice")
        engine.propagate()
        assert engine.global_guids() == []
        assert engine.entity(ap).local_members.guids() == []

    def test_member_failure_removes_member(self):
        engine = engine_for()
        ap = engine.hierarchy.access_proxies()[0]
        engine.member_join(ap, "alice")
        engine.propagate()
        engine.member_failure(ap, "alice")
        engine.propagate()
        assert engine.global_guids() == []

    def test_handoff_moves_member_between_rings(self):
        engine = engine_for(ring_size=3, height=2)
        aps = engine.hierarchy.access_proxies()
        old_ap, new_ap = aps[0], aps[-1]
        assert engine.hierarchy.ring_of(old_ap).ring_id != engine.hierarchy.ring_of(new_ap).ring_id
        engine.member_join(old_ap, "alice")
        engine.propagate()
        engine.member_handoff("alice", old_ap, new_ap)
        engine.propagate()
        assert engine.global_guids() == ["alice"]
        record = engine.entity(new_ap).local_members.get("alice")
        assert record is not None and record.ap == new_ap
        assert engine.entity(old_ap).local_members.guids() == []

    def test_handoff_within_ring_updates_neighbor_lists(self):
        engine = engine_for(ring_size=3, height=2)
        ring = engine.hierarchy.bottom_rings()[0]
        a, b = ring.members[0], ring.members[1]
        engine.member_join(a, "alice")
        engine.propagate()
        engine.member_handoff("alice", a, b)
        engine.propagate()
        assert "alice" in engine.entity(a).neighbor_members.guids()
        assert "alice" in engine.entity(b).local_members.guids()

    def test_handoff_changes_luid_but_not_guid(self):
        engine = engine_for()
        aps = engine.hierarchy.access_proxies()
        engine.member_join(aps[0], "alice")
        engine.propagate()
        before = engine.global_membership()[0]
        engine.member_handoff("alice", aps[0], aps[1])
        engine.propagate()
        after = engine.global_membership()[0]
        assert before.guid == after.guid
        assert before.luid != after.luid

    def test_join_at_failed_ap_rejected(self):
        engine = engine_for()
        ap = engine.hierarchy.access_proxies()[0]
        engine.fail_entity(ap)
        with pytest.raises(ProtocolError):
            engine.member_join(ap, "alice")

    def test_leave_of_unknown_member_still_propagates(self):
        engine = engine_for()
        ap = engine.hierarchy.access_proxies()[0]
        engine.member_leave(ap, "ghost")
        report = engine.propagate()
        assert report.round_count > 0
        assert engine.global_guids() == []


class TestAggregation:
    def test_burst_of_joins_shares_rounds(self):
        engine = engine_for(ring_size=3, height=2)
        ap = engine.hierarchy.access_proxies()[0]
        for i in range(5):
            engine.member_join(ap, f"m{i}")
        report = engine.propagate()
        assert sorted(engine.global_guids()) == [f"m{i}" for i in range(5)]
        # Aggregation means far fewer hops than 5 independent propagations.
        assert report.hop_count < 5 * hcn_ring(2, 3)

    def test_join_then_leave_before_propagation_is_invisible(self):
        engine = engine_for()
        ap = engine.hierarchy.access_proxies()[0]
        engine.member_join(ap, "alice")
        engine.member_leave(ap, "alice")
        report = engine.propagate()
        assert engine.global_guids() == []
        assert report.events == []


class TestEntityFailureRepair:
    def test_failed_ap_is_excluded_and_members_reported(self):
        engine = engine_for(ring_size=3, height=2)
        ring = engine.hierarchy.bottom_rings()[0]
        victim, survivor = ring.members[1], ring.members[0]
        engine.member_join(victim, "alice")
        engine.propagate()
        engine.fail_entity(victim)
        engine.member_join(survivor, "bob")
        report = engine.propagate()
        assert victim in report.repaired
        assert victim not in ring.members
        assert engine.global_guids() == ["bob"]

    def test_failed_leader_triggers_reelection(self):
        engine = engine_for(ring_size=3, height=2)
        ring = engine.hierarchy.bottom_rings()[0]
        leader = ring.leader
        survivor = next(m for m in ring.members if m != leader)
        engine.fail_entity(leader)
        engine.member_join(survivor, "bob")
        engine.propagate()
        assert ring.leader is not None and ring.leader != leader
        assert engine.global_guids() == ["bob"]

    def test_repair_reattaches_orphan_child_rings(self):
        engine = engine_for(ring_size=3, height=3)
        # Fail a middle-tier node that parents an AP ring.
        middle_ring = engine.hierarchy.rings_in_tier(2)[0]
        victim = next(
            node for node in middle_ring.members if engine.hierarchy.children_of_node(node)
        )
        orphan_rings = engine.hierarchy.children_of_node(victim)
        engine.fail_entity(victim)
        engine.detect_and_repair(victim)
        for ring_id in orphan_rings:
            new_parent = engine.hierarchy.parent_of_ring(ring_id)
            assert new_parent is not None and new_parent != victim
            assert engine.is_operational(new_parent)

    def test_detect_and_repair_requires_failed_entity(self):
        engine = engine_for()
        with pytest.raises(ProtocolError):
            engine.detect_and_repair(engine.hierarchy.access_proxies()[0])

    def test_propagation_still_converges_after_two_failures_in_a_ring(self):
        engine = engine_for(ring_size=5, height=2)
        ring = engine.hierarchy.bottom_rings()[0]
        victims = [ring.members[1], ring.members[3]]
        survivor = ring.members[0]
        for victim in victims:
            engine.fail_entity(victim)
        engine.member_join(survivor, "alice")
        engine.propagate()
        assert engine.global_guids() == ["alice"]
        assert all(v not in ring.members for v in victims)


class TestRoundMechanics:
    def test_round_visits_members_in_circulation_order(self, one_round_engine):
        hierarchy = one_round_engine.hierarchy
        ring = hierarchy.bottom_rings()[0]
        holder = ring.members[1]
        one_round_engine.member_join(holder, "alice")
        result = one_round_engine.run_round(ring.ring_id, holder=holder)
        assert result.visited == ring.members_from(holder)
        assert result.token_hops == len(ring.members)

    def test_holder_must_be_ring_member(self, one_round_engine):
        ring = one_round_engine.hierarchy.bottom_rings()[0]
        with pytest.raises(ProtocolError):
            one_round_engine.run_round(ring.ring_id, holder="not-a-member")

    def test_empty_round_produces_no_notifications(self, one_round_engine):
        ring = one_round_engine.hierarchy.bottom_rings()[0]
        result = one_round_engine.run_round(ring.ring_id)
        assert result.operations == ()
        assert result.notify_hops == 0

    def test_control_transfers_to_next_holder(self, one_round_engine):
        ring = one_round_engine.hierarchy.bottom_rings()[0]
        holder = ring.members[0]
        one_round_engine.member_join(holder, "alice")
        one_round_engine.run_round(ring.ring_id, holder=holder)
        assert one_round_engine._ring_holder[ring.ring_id] == ring.successor(holder)

    def test_events_observed_at_top_leader(self):
        engine = engine_for(ring_size=3, height=2)
        top_leader = engine.hierarchy.topmost_ring().leader
        engine.member_join(engine.hierarchy.access_proxies()[0], "alice")
        engine.propagate()
        observers = {e.observer for e in engine.event_bus.history}
        assert top_leader in observers

    def test_propagation_divergence_guard(self):
        engine = engine_for()
        engine.member_join(engine.hierarchy.access_proxies()[0], "alice")
        with pytest.raises(ProtocolError):
            engine.propagate(max_iterations=0)
