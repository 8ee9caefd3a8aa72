"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis_profiles import examples

from repro.analysis.reliability import (
    hierarchy_function_well_probability,
    ring_function_well_probability,
)
from repro.analysis.scalability import hcn_ring, hcn_tree, hcn_tree_without_representatives
from repro.core.config import ProtocolConfig
from repro.core.hierarchy import HierarchyBuilder
from repro.core.identifiers import GloballyUniqueId, GroupId, NodeId, make_luid
from repro.core.member import MemberInfo, MemberStatus
from repro.core.membership import MembershipView
from repro.core.message_queue import MessageQueue
from repro.core.one_round import OneRoundEngine
from repro.core.ring import LogicalRing
from repro.sim.engine import SimulationEngine
from repro.sim.stats import Histogram


names = st.integers(min_value=0, max_value=40).map(lambda i: f"n{i:02d}")
unique_name_lists = st.lists(names, min_size=1, max_size=12, unique=True)
guids = st.integers(min_value=0, max_value=20).map(lambda i: f"m{i:02d}")


def make_member(guid: str, ap: str = "ap-0") -> MemberInfo:
    return MemberInfo(
        guid=GloballyUniqueId(guid),
        group=GroupId("g"),
        ap=NodeId(ap),
        luid=make_luid(ap, guid, 1),
        status=MemberStatus.OPERATIONAL,
    )


class TestRingProperties:
    @given(unique_name_lists)
    def test_successor_predecessor_are_inverse(self, members):
        ring = LogicalRing(ring_id="r", tier=1, members=[NodeId(m) for m in members])
        for node in ring.members:
            assert ring.predecessor(ring.successor(node)) == node
            assert ring.successor(ring.predecessor(node)) == node

    @given(unique_name_lists)
    def test_members_from_is_a_rotation(self, members):
        ring = LogicalRing(ring_id="r", tier=1, members=[NodeId(m) for m in members])
        for node in ring.members:
            rotated = ring.members_from(node)
            assert sorted(rotated) == sorted(ring.members)
            assert rotated[0] == node

    @given(unique_name_lists, st.data())
    def test_remove_then_elect_keeps_invariants(self, members, data):
        ring = LogicalRing(ring_id="r", tier=1, members=[NodeId(m) for m in members])
        victim = data.draw(st.sampled_from(ring.members))
        ring.remove_member(victim)
        ring.elect_leader()
        ring.validate()
        assert victim not in ring.members
        if ring.members:
            assert ring.leader == min(ring.members, key=lambda n: n.value)

    @given(unique_name_lists, st.data())
    def test_partition_count_bounded_by_fault_count(self, members, data):
        ring = LogicalRing(ring_id="r", tier=1, members=[NodeId(m) for m in members])
        faulty = set(data.draw(st.lists(st.sampled_from(members), unique=True)))
        operational = [m for m in members if m not in faulty]
        count = ring.partition_count(operational)
        if not operational:
            assert count == 0
        elif len(faulty) <= 1:
            assert count == 1
        else:
            assert 1 <= count <= len(faulty)


class TestMembershipViewProperties:
    @given(st.lists(st.tuples(guids, st.booleans()), max_size=40))
    def test_view_size_matches_reference_set(self, operations):
        view = MembershipView("ring", NodeId("x"), GroupId("g"))
        reference = set()
        for guid, join in operations:
            if join:
                view.add(make_member(guid))
                reference.add(guid)
            else:
                view.remove(guid)
                reference.discard(guid)
        assert set(view.guids()) == reference

    @given(st.lists(guids, unique=True, max_size=15), st.lists(guids, unique=True, max_size=15))
    def test_merge_is_union(self, left, right):
        a = MembershipView("a", NodeId("x"), GroupId("g"))
        b = MembershipView("b", NodeId("y"), GroupId("g"))
        for guid in left:
            a.add(make_member(guid))
        for guid in right:
            b.add(make_member(guid))
        a.merge_from(b)
        assert set(a.guids()) == set(left) | set(right)


class TestMessageQueueProperties:
    @given(st.lists(st.tuples(guids, st.sampled_from(["join", "leave"])), max_size=30))
    def test_aggregated_queue_never_larger_than_plain(self, events):
        from repro.core.token import TokenOperation, TokenOperationType

        def op_for(guid, kind, seq):
            op_type = (
                TokenOperationType.MEMBER_JOIN if kind == "join" else TokenOperationType.MEMBER_LEAVE
            )
            return TokenOperation(
                op_type=op_type, origin=NodeId("ap-0"), member=make_member(guid), sequence=seq
            )

        aggregated = MessageQueue(NodeId("ap-0"), aggregate=True)
        plain = MessageQueue(NodeId("ap-0"), aggregate=False)
        for seq, (guid, kind) in enumerate(events, start=1):
            aggregated.insert(op_for(guid, kind, seq), NodeId("ap-0"), float(seq))
            plain.insert(op_for(guid, kind, seq), NodeId("ap-0"), float(seq))
        assert len(aggregated) <= len(plain)
        # At most one pending operation per member survives aggregation.
        drained = aggregated.drain()
        per_member = [op.member.guid for op in drained]
        assert len(per_member) == len(set(per_member))


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=40))
    def test_events_dispatch_in_nondecreasing_time_order(self, delays):
        engine = SimulationEngine()
        seen = []
        for delay in delays:
            engine.schedule(delay, lambda e: seen.append(e.now))
        engine.run()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100))
    def test_histogram_summary_bounds(self, samples):
        hist = Histogram("x")
        hist.extend(samples)
        # Tolerate float rounding of the mean for pathological tiny values.
        slack = 1e-9 * max(1.0, abs(hist.min()), abs(hist.max()))
        assert hist.min() - slack <= hist.mean() <= hist.max() + slack
        assert hist.min() - slack <= hist.percentile(50) <= hist.max() + slack


class TestAnalysisProperties:
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=8))
    def test_hcn_ring_positive_and_increasing_in_height(self, height, ring_size):
        assert hcn_ring(height, ring_size) > 0
        assert hcn_ring(height + 1, ring_size) > hcn_ring(height, ring_size)

    @given(st.integers(min_value=3, max_value=6), st.integers(min_value=2, max_value=8))
    def test_tree_with_representatives_cheaper_than_without(self, height, branching):
        assert hcn_tree(height, branching) <= hcn_tree_without_representatives(height, branching)

    @given(
        st.integers(min_value=2, max_value=20),
        st.floats(min_value=0.0, max_value=0.5),
    )
    def test_ring_function_well_probability_in_unit_interval(self, ring_size, f):
        p = ring_function_well_probability(ring_size, f)
        assert 0.0 <= p <= 1.0

    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.0, max_value=0.2),
    )
    def test_hierarchy_probability_monotone_in_fault_rate(self, height, ring_size, f):
        lower = hierarchy_function_well_probability(height, ring_size, f, 1)
        higher = hierarchy_function_well_probability(height, ring_size, min(0.5, f + 0.1), 1)
        assert lower >= higher - 1e-12


class TestOneRoundProperties:
    @settings(deadline=None, max_examples=examples(20))
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=3),
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=6, unique=True),
    )
    def test_global_view_always_equals_joined_set(self, ring_size, height, member_ids):
        hierarchy = HierarchyBuilder("g").regular(ring_size=ring_size, height=height)
        engine = OneRoundEngine(hierarchy, config=ProtocolConfig(aggregation_delay=0.0))
        aps = hierarchy.access_proxies()
        expected = set()
        for index, member_id in enumerate(member_ids):
            guid = f"member-{member_id}"
            engine.member_join(aps[index % len(aps)], guid)
            expected.add(guid)
        engine.propagate()
        assert set(engine.global_guids()) == expected
        for ring_id in hierarchy.rings:
            assert engine.ring_agreement(ring_id)
