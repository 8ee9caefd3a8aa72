"""Tests for the Membership-Query algorithm, handoff management and partitions."""

from __future__ import annotations

import pytest

from repro.core.handoff import HandoffManager
from repro.core.hierarchy import HierarchyBuilder
from repro.core.one_round import OneRoundEngine
from repro.core.partition import detect_partitions
from repro.core.query import MembershipQueryService, MembershipScheme


@pytest.fixture
def populated_engine() -> OneRoundEngine:
    hierarchy = HierarchyBuilder("g").regular(ring_size=3, height=3)
    engine = OneRoundEngine(hierarchy)
    for index, ap in enumerate(hierarchy.access_proxies()):
        if index % 3 == 0:
            engine.member_join(ap, f"member-{index:03d}")
    engine.propagate()
    return engine


class TestMembershipQuery:
    def test_tms_returns_global_view(self, populated_engine):
        service = MembershipQueryService(populated_engine)
        result = service.query(MembershipScheme.TMS)
        assert len(result) == 9
        assert result.answered_by_tier == populated_engine.hierarchy.top_tier()

    def test_bms_merges_per_ring_views_into_same_answer(self, populated_engine):
        service = MembershipQueryService(populated_engine)
        tms = service.query(MembershipScheme.TMS)
        bms = service.query(MembershipScheme.BMS)
        assert tms.guids == bms.guids

    def test_ims_matches_too(self, populated_engine):
        service = MembershipQueryService(populated_engine)
        ims = service.query(MembershipScheme.IMS)
        assert ims.guids == service.query(MembershipScheme.TMS).guids

    def test_bms_costs_more_hops_than_tms(self, populated_engine):
        service = MembershipQueryService(populated_engine)
        assert (
            service.query(MembershipScheme.BMS).message_hops
            > service.query(MembershipScheme.TMS).message_hops
        )

    def test_bms_contacts_every_bottom_ring_leader(self, populated_engine):
        service = MembershipQueryService(populated_engine)
        result = service.query(MembershipScheme.BMS)
        assert len(result.entities_contacted) == len(
            populated_engine.hierarchy.rings_in_tier(populated_engine.hierarchy.bottom_tier())
        )

    def test_locate_member(self, populated_engine):
        # A TMS-style lookup: the topmost leader's view holds every member.
        top_leader = populated_engine.hierarchy.topmost_ring().leader
        view = populated_engine.entity(top_leader).ring_members
        assert view.get("member-000") is not None
        assert view.get("ghost") is None

    def test_maintenance_cost_tradeoff(self, populated_engine):
        service = MembershipQueryService(populated_engine)
        tms_cost = service.maintenance_cost(MembershipScheme.TMS)
        bms_cost = service.maintenance_cost(MembershipScheme.BMS)
        # TMS stores the full view at few (topmost) entities, BMS spreads
        # smaller views over many bottom entities.
        assert tms_cost["entities"] < bms_cost["entities"]
        assert tms_cost["records"] >= 9 * tms_cost["entities"]

    def test_invalid_entry_point_rejected(self, populated_engine):
        with pytest.raises(ValueError):
            MembershipQueryService(populated_engine, entry_point="nope")

    def test_invalid_intermediate_tier_rejected(self, populated_engine):
        service = MembershipQueryService(populated_engine)
        with pytest.raises(ValueError):
            service.query_intermediate(tier=99)


class TestHandoffManager:
    def test_intra_ring_handoff_hits_fast_path(self):
        hierarchy = HierarchyBuilder("g").regular(ring_size=3, height=2)
        engine = OneRoundEngine(hierarchy)
        manager = HandoffManager(engine.kernel)
        ring = hierarchy.bottom_rings()[0]
        a, b = ring.members[0], ring.members[1]
        engine.member_join(a, "alice")
        engine.propagate()
        record = manager.classify("alice", a, b)
        engine.kernel.handoff("alice", b, a, now=0.0)
        engine.propagate()
        assert record.fast_path
        assert record.same_ring
        assert manager.fast_path_ratio() == 1.0

    def test_inter_ring_handoff_misses_fast_path(self):
        hierarchy = HierarchyBuilder("g").regular(ring_size=3, height=2)
        engine = OneRoundEngine(hierarchy)
        manager = HandoffManager(engine.kernel)
        aps = hierarchy.access_proxies()
        engine.member_join(aps[0], "alice")
        engine.propagate()
        record = manager.classify("alice", aps[0], aps[-1])
        engine.kernel.handoff("alice", aps[-1], aps[0], now=0.0)
        engine.propagate()
        assert not record.same_ring
        assert not record.fast_path

    def test_handoff_and_propagate_returns_report(self):
        hierarchy = HierarchyBuilder("g").regular(ring_size=3, height=2)
        engine = OneRoundEngine(hierarchy)
        manager = HandoffManager(engine)
        aps = hierarchy.access_proxies()
        engine.member_join(aps[0], "alice")
        engine.propagate()
        manager.classify("alice", aps[0], aps[1])
        engine.kernel.handoff("alice", aps[1], aps[0], now=0.0)
        report = engine.propagate()
        assert report.round_count > 0
        summary = manager.summary()
        assert summary["handoffs"] == 1.0


class TestPartitionDetection:
    def test_fault_free_hierarchy_is_one_partition(self, deep_hierarchy):
        report = detect_partitions(deep_hierarchy, deep_hierarchy.ring_of_node.keys())
        assert report.count == 1
        assert report.function_well(1)
        assert any(partition.contains_top for partition in report.partitions)

    def test_single_fault_per_ring_keeps_one_partition(self, deep_hierarchy):
        victims = {ring.members[1] for ring in deep_hierarchy.rings.values()}
        operational = [n for n in deep_hierarchy.ring_of_node if n not in victims]
        report = detect_partitions(deep_hierarchy, operational)
        assert report.count == 1
        assert not report.split_rings

    def test_two_faults_in_one_bottom_ring_split_it(self):
        hierarchy = HierarchyBuilder("g").regular(ring_size=4, height=2)
        ring = hierarchy.bottom_rings()[0]
        # Non-adjacent faults leave two disjoint arcs of the ring.
        victims = {ring.members[0], ring.members[2]}
        operational = [n for n in hierarchy.ring_of_node if n not in victims]
        report = detect_partitions(hierarchy, operational)
        assert ring.ring_id in report.split_rings
        assert report.count == 2
        assert report.function_well(2) and not report.function_well(1)

    def test_failed_parent_does_not_orphan_child_ring(self, deep_hierarchy):
        # A middle-tier node with children fails; its child ring re-attaches to
        # the parent ring's surviving leader, so the hierarchy stays whole.
        middle_ring = deep_hierarchy.rings_in_tier(2)[0]
        victim = next(
            node for node in middle_ring.members if deep_hierarchy.child_rings.get(node)
        )
        operational = [n for n in deep_hierarchy.ring_of_node if n != victim]
        report = detect_partitions(deep_hierarchy, operational)
        assert report.count == 1

    def test_faulty_entities_listed(self, deep_hierarchy):
        victim = deep_hierarchy.bottom_rings()[0].members[0]
        operational = [n for n in deep_hierarchy.ring_of_node if n != victim]
        report = detect_partitions(deep_hierarchy, operational)
        assert str(victim) in report.faulty_entities
