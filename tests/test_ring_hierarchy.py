"""Unit tests for logical rings and the ring-based hierarchy (Figure 2)."""

from __future__ import annotations

import pytest

from repro.core.hierarchy import HierarchyBuilder, HierarchyError, RingHierarchy
from repro.core.identifiers import NodeId
from repro.core.ring import LogicalRing, RingError


def ring_of(*names: str, ring_id: str = "r", tier: int = 1) -> LogicalRing:
    return LogicalRing(ring_id=ring_id, tier=tier, members=[NodeId(n) for n in names])


# ---------------------------------------------------------------------------
# LogicalRing
# ---------------------------------------------------------------------------


class TestLogicalRing:
    def test_default_leader_is_first_member(self):
        ring = ring_of("b", "a", "c")
        assert ring.leader == NodeId("b")

    def test_duplicate_members_rejected(self):
        with pytest.raises(RingError):
            ring_of("a", "a")

    def test_leader_must_be_member(self):
        with pytest.raises(RingError):
            LogicalRing(ring_id="r", tier=1, members=[NodeId("a")], leader=NodeId("z"))

    def test_successor_and_predecessor_wrap_around(self):
        ring = ring_of("a", "b", "c")
        assert ring.successor(NodeId("c")) == NodeId("a")
        assert ring.predecessor(NodeId("a")) == NodeId("c")

    def test_members_from_starts_at_requested_node(self):
        ring = ring_of("a", "b", "c", "d")
        assert [n.value for n in ring.members_from(NodeId("c"))] == ["c", "d", "a", "b"]

    def test_unknown_member_raises(self):
        ring = ring_of("a", "b")
        with pytest.raises(RingError):
            ring.successor(NodeId("z"))

    def test_insert_member_after(self):
        ring = ring_of("a", "b", "c")
        ring.insert_member(NodeId("x"), after=NodeId("a"))
        assert [n.value for n in ring.members_in_order()] == ["a", "x", "b", "c"]

    def test_insert_duplicate_rejected(self):
        ring = ring_of("a", "b")
        with pytest.raises(RingError):
            ring.insert_member(NodeId("a"))

    def test_remove_member_splices_ring(self):
        ring = ring_of("a", "b", "c")
        was_leader = ring.remove_member(NodeId("b"))
        assert not was_leader
        assert ring.successor(NodeId("a")) == NodeId("c")

    def test_remove_leader_requires_reelection(self):
        ring = ring_of("b", "a", "c")
        assert ring.remove_member(NodeId("b"))
        assert ring.leader is None
        assert ring.elect_leader() == NodeId("a")  # smallest surviving id

    def test_functions_well_with_at_most_one_fault(self):
        ring = ring_of("a", "b", "c", "d")
        assert ring.functions_well(["a", "b", "c", "d"])
        assert ring.functions_well(["a", "b", "c"])
        assert not ring.functions_well(["a", "b"])

    def test_partition_count_single_fault_stays_whole(self):
        ring = ring_of("a", "b", "c", "d")
        assert ring.partition_count(["a", "b", "c", "d"]) == 1
        assert ring.partition_count(["a", "c", "d"]) == 1

    def test_partition_count_two_separated_faults_gives_two_arcs(self):
        ring = ring_of("a", "b", "c", "d")
        # faults at b and d leave arcs {a} and {c}
        assert ring.partition_count(["a", "c"]) == 2

    def test_partition_count_adjacent_faults_gives_one_arc(self):
        ring = ring_of("a", "b", "c", "d")
        assert ring.partition_count(["c", "d"]) == 1

    def test_partition_count_all_faulty(self):
        ring = ring_of("a", "b", "c")
        assert ring.partition_count([]) == 0


# ---------------------------------------------------------------------------
# RingHierarchy construction
# ---------------------------------------------------------------------------


class TestRegularHierarchy:
    @pytest.mark.parametrize("r,h", [(2, 2), (3, 2), (3, 3), (5, 2), (5, 3), (4, 4)])
    def test_counts_match_formulas(self, r, h):
        hierarchy = HierarchyBuilder("g").regular(ring_size=r, height=h)
        assert hierarchy.height == h
        assert hierarchy.total_rings == sum(r**i for i in range(h))
        assert len(hierarchy.access_proxies()) == r**h
        hierarchy.validate()

    def test_every_ring_has_exactly_r_members(self):
        hierarchy = HierarchyBuilder("g").regular(ring_size=4, height=3)
        assert all(len(ring) == 4 for ring in hierarchy.rings.values())

    def test_single_topmost_ring(self, deep_hierarchy):
        assert len(deep_hierarchy.rings_in_tier(deep_hierarchy.top_tier())) == 1
        assert deep_hierarchy.topmost_ring().tier == deep_hierarchy.top_tier()

    def test_parent_is_one_tier_above(self, deep_hierarchy):
        for ring_id, parent in deep_hierarchy.parent_node.items():
            child_tier = deep_hierarchy.ring(ring_id).tier
            assert deep_hierarchy.ring_of(parent).tier == child_tier + 1

    def test_ancestry_reaches_topmost_ring(self, deep_hierarchy):
        top_members = set(deep_hierarchy.topmost_ring().members)
        for ap in deep_hierarchy.access_proxies():
            chain = deep_hierarchy.ancestry(ap)
            assert chain and chain[-1] in top_members

    def test_children_of_node(self, deep_hierarchy):
        top = deep_hierarchy.topmost_ring()
        for node in top.members:
            child_ring_ids = deep_hierarchy.child_rings[node]
            assert len(child_ring_ids) == 1
            assert deep_hierarchy.ring(child_ring_ids[0]).tier == top.tier - 1

    def test_logical_edge_count(self):
        hierarchy = HierarchyBuilder("g").regular(ring_size=3, height=2)
        # 4 rings of 3 edges each + 3 leader->parent links.
        ring_edges = sum(len(ring.members) for ring in hierarchy.rings.values())
        assert ring_edges + len(hierarchy.parent_node) == 4 * 3 + 3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HierarchyBuilder("g").regular(ring_size=1, height=2)
        with pytest.raises(ValueError):
            HierarchyBuilder("g").regular(ring_size=3, height=1)


class TestHierarchyFromTopology:
    def test_three_tiers_built(self, small_topology):
        hierarchy = HierarchyBuilder("g").from_topology(small_topology)
        assert hierarchy.tiers() == [1, 2, 3]
        hierarchy.validate()

    def test_ap_rings_grouped_by_gateway(self, small_topology):
        hierarchy = HierarchyBuilder("g").from_topology(small_topology)
        arch = small_topology.architecture
        for ring in hierarchy.rings_in_tier(1):
            parent = hierarchy.parent_of_ring(ring.ring_id)
            assert parent is not None
            for ap in ring.members:
                assert arch.ap_parent[ap.value] == parent.value

    def test_all_aps_participate(self, small_topology):
        hierarchy = HierarchyBuilder("g").from_topology(small_topology)
        assert len(hierarchy.access_proxies()) == len(small_topology.access_proxies)

    def test_node_belongs_to_exactly_one_ring(self, small_topology):
        hierarchy = HierarchyBuilder("g").from_topology(small_topology)
        seen = []
        for ring in hierarchy.rings.values():
            seen.extend(ring.members)
        assert len(seen) == len(set(seen))


class TestHierarchyValidationAndEntities:
    def test_duplicate_ring_rejected(self, regular_hierarchy):
        ring = ring_of("zz-1", "zz-2", ring_id=list(regular_hierarchy.rings)[0])
        with pytest.raises(HierarchyError):
            regular_hierarchy.add_ring(ring)

    def test_node_in_two_rings_rejected(self, regular_hierarchy):
        existing = regular_hierarchy.bottom_rings()[0].members[0]
        ring = LogicalRing(ring_id="extra", tier=1, members=[existing])
        with pytest.raises(HierarchyError):
            regular_hierarchy.add_ring(ring)

    def test_missing_parent_fails_validation(self):
        hierarchy = RingHierarchy(group=HierarchyBuilder("g").group)
        hierarchy.add_ring(ring_of("t1", "t2", ring_id="top", tier=2))
        hierarchy.add_ring(ring_of("b1", "b2", ring_id="bottom", tier=1))  # no parent
        with pytest.raises(HierarchyError):
            hierarchy.validate()

    def test_ring_of_unknown_node(self, regular_hierarchy):
        with pytest.raises(HierarchyError):
            regular_hierarchy.ring_of("does-not-exist")

    def test_build_entity_states_wires_pointers(self, deep_hierarchy):
        states = deep_hierarchy.build_entity_states()
        assert len(states) == deep_hierarchy.total_nodes()
        for node, state in states.items():
            ring = deep_hierarchy.ring_of(node)
            assert state.ring_id == ring.ring_id
            assert state.leader == ring.leader
            assert state.next_node == ring.successor(node)
            assert state.previous == ring.predecessor(node)
            if ring.tier != deep_hierarchy.top_tier():
                assert state.parent == deep_hierarchy.parent_of_ring(ring.ring_id)
                assert state.parent_ok
            else:
                assert state.parent is None

    def test_entity_roles_follow_tiers(self, deep_hierarchy):
        states = deep_hierarchy.build_entity_states()
        for node, state in states.items():
            tier = deep_hierarchy.ring_of(node).tier
            if tier == deep_hierarchy.bottom_tier():
                assert state.role.value == "AP"
            elif tier == deep_hierarchy.top_tier():
                assert state.role.value == "BR"
            else:
                assert state.role.value == "AG"

    def test_children_are_child_ring_leaders(self, deep_hierarchy):
        states = deep_hierarchy.build_entity_states()
        for node, state in states.items():
            expected = {
                deep_hierarchy.rings[ring_id].leader
                for ring_id in deep_hierarchy.child_rings.get(node, ())
            }
            assert set(state.children) == expected
