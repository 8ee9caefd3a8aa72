"""Unit tests for the paper's Section 4.2 data structures.

Identifiers, mobile host records, tokens, message queues, membership views and
network entity state.
"""

from __future__ import annotations

import pytest

from repro.core.entity import EntityRole, NetworkEntityState
from repro.core.identifiers import (
    GloballyUniqueId,
    GroupId,
    LocallyUniqueId,
    NodeId,
    coerce_group,
    coerce_guid,
    coerce_node,
    make_luid,
)
from repro.core.config import SimulationConfig
from repro.core.member import MemberInfo, MemberStatus
from repro.core.membership import MembershipEventType, MembershipView
from repro.core.message_queue import MessageQueue
from repro.core.simulation import RGBSimulation
from repro.core.token import Token, TokenOperation, TokenOperationType


def make_member(guid="m-1", ap="ap-1", group="g", status=MemberStatus.OPERATIONAL) -> MemberInfo:
    return MemberInfo(
        guid=GloballyUniqueId(guid),
        group=GroupId(group),
        ap=NodeId(ap),
        luid=make_luid(ap, guid, 1),
        status=status,
    )


def join_op(guid="m-1", ap="ap-1", seq=1) -> TokenOperation:
    return TokenOperation(
        op_type=TokenOperationType.MEMBER_JOIN,
        origin=NodeId(ap),
        member=make_member(guid, ap),
        sequence=seq,
    )


def leave_op(guid="m-1", ap="ap-1", seq=2) -> TokenOperation:
    return TokenOperation(
        op_type=TokenOperationType.MEMBER_LEAVE,
        origin=NodeId(ap),
        member=make_member(guid, ap, status=MemberStatus.LEFT),
        sequence=seq,
    )


# ---------------------------------------------------------------------------
# identifiers
# ---------------------------------------------------------------------------


class TestIdentifiers:
    def test_empty_identifier_rejected(self):
        with pytest.raises(ValueError):
            NodeId("")

    def test_identifiers_are_ordered_and_hashable(self):
        assert NodeId("a") < NodeId("b")
        assert len({NodeId("a"), NodeId("a"), NodeId("b")}) == 2

    def test_an_id_made_before_clearing_the_intern_tables_equals_a_new_one(self):
        """Ids keep value equality, not identity: an id built before
        ``clear_intern_tables()`` (a module-level constant in a test or a
        long-lived process) must still equal, and hash like, the one that
        re-interning builds afterwards — an identity comparison would not."""
        from repro.core.identifiers import clear_intern_tables

        before = NodeId("intern-probe")
        clear_intern_tables()
        after = NodeId("intern-probe")
        assert after is not before
        assert after == before and not (after != before)
        assert hash(after) == hash(before)
        assert {before: 1}[after] == 1

    def test_str_and_format(self):
        assert str(GroupId("g1")) == "g1"
        assert f"{NodeId('ap-1'):>6}" == "  ap-1"

    def test_make_luid_encodes_ap_guid_epoch(self):
        luid = make_luid(NodeId("ap-3"), GloballyUniqueId("alice"), 2)
        assert isinstance(luid, LocallyUniqueId)
        assert "ap-3" in str(luid) and "alice" in str(luid) and "#2" in str(luid)

    def test_make_luid_rejects_negative_epoch(self):
        with pytest.raises(ValueError):
            make_luid("ap", "g", -1)

    def test_coercers(self):
        assert coerce_node("x") == NodeId("x")
        assert coerce_node(NodeId("x")) == NodeId("x")
        assert coerce_group("g") == GroupId("g")
        assert coerce_guid("m") == GloballyUniqueId("m")

    def test_is_identifier(self):
        # A coerced identifier is its wrapper type; the bare string is not.
        assert isinstance(coerce_node("x"), NodeId)
        assert NodeId("x") != "x"

    def test_identifier_types_are_distinct(self):
        assert NodeId("x") != GroupId("x") or type(NodeId("x")) is not type(GroupId("x"))


# ---------------------------------------------------------------------------
# mobile host state
# ---------------------------------------------------------------------------


class TestMobileHostState:
    """A mobile host's record (GID, AP, GUID, LUID, status) as the kernel
    keeps it through the facade's attach / handoff / depart verbs."""

    def _sim(self) -> RGBSimulation:
        return RGBSimulation(SimulationConfig(num_aps=4, ring_size=2, hosts_per_ap=0)).build()

    def test_attach_sets_luid_and_status(self):
        sim = self._sim()
        ap = sim.access_proxies()[0]
        record = sim.join_member(ap_id=ap, guid="alice")
        assert record.status is MemberStatus.OPERATIONAL
        assert record.ap == NodeId(ap)
        assert record.luid is not None

    def test_handoff_changes_ap_and_luid_but_not_guid(self):
        sim = self._sim()
        aps = sim.access_proxies()
        first = sim.join_member(ap_id=aps[0], guid="alice")
        sim.run_until_quiescent()
        sim.handoff_member("alice", aps[1])
        sim.run_until_quiescent()
        second = sim.global_membership().get("alice")
        assert second.guid == first.guid
        assert second.ap == NodeId(aps[1])
        assert second.luid != first.luid

    def test_handoff_before_attach_rejected(self):
        sim = self._sim()
        with pytest.raises(ValueError):
            sim.handoff_member("alice", sim.access_proxies()[1])

    def test_disconnect_and_leave(self):
        sim = self._sim()
        sim.join_member(ap_index=0, guid="alice")
        sim.join_member(ap_index=1, guid="bob")
        sim.run_until_quiescent()
        sim.fail_member("alice")
        sim.leave_member("bob")
        sim.run_until_quiescent()
        assert sim.global_membership().guids() == []
        with pytest.raises(ValueError):
            sim.leave_member("bob")

    def test_to_member_info_requires_attachment(self):
        with pytest.raises(ValueError):
            self._sim().join_member(ap_id="ap-nowhere", guid="alice")

    def test_member_info_is_immutable_and_copyable(self):
        record = make_member()
        failed = record.with_status(MemberStatus.FAILED)
        assert record.status is MemberStatus.OPERATIONAL
        assert failed.status is MemberStatus.FAILED
        moved = record.handed_off_to(NodeId("ap-9"), 3)
        assert moved.ap == NodeId("ap-9") and record.ap == NodeId("ap-1")


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------


class TestToken:
    def test_member_op_requires_member(self):
        with pytest.raises(ValueError):
            TokenOperation(op_type=TokenOperationType.MEMBER_JOIN, origin=NodeId("ap"))

    def test_ne_op_requires_entity(self):
        with pytest.raises(ValueError):
            TokenOperation(op_type=TokenOperationType.NE_FAILURE, origin=NodeId("ap"))

    def test_handoff_requires_previous_ap(self):
        with pytest.raises(ValueError):
            TokenOperation(
                op_type=TokenOperationType.MEMBER_HANDOFF,
                origin=NodeId("ap-2"),
                member=make_member(ap="ap-2"),
            )

    def test_token_round_trip_and_visits(self):
        token = Token(group=GroupId("g"), holder=NodeId("a"), ring_id="r", operations=(join_op(),))
        token = token.record_visit(NodeId("a")).record_visit(NodeId("b"))
        assert token.visited == (NodeId("a"), NodeId("b"))
        assert not token.is_empty
        assert [str(op.member.guid) for op in token.operations] == ["m-1"]

    def test_fresh_token_increments_round_and_clears_state(self):
        token = Token(group=GroupId("g"), holder=NodeId("a"), ring_id="r", operations=(join_op(),))
        fresh = token.fresh(NodeId("b"))
        assert fresh.holder == NodeId("b")
        assert fresh.round_number == token.round_number + 1
        assert fresh.is_empty and fresh.visited == ()

    def test_describe_mentions_operations(self):
        token = Token(group=GroupId("g"), holder=NodeId("a"), ring_id="r", operations=(join_op(),))
        assert "member-join" in token.describe()


# ---------------------------------------------------------------------------
# message queue aggregation
# ---------------------------------------------------------------------------


class TestMessageQueue:
    def _mq(self, aggregate=True) -> MessageQueue:
        return MessageQueue(NodeId("ap-1"), aggregate=aggregate)

    def test_insert_and_drain_preserves_order(self):
        mq = self._mq()
        mq.insert(join_op("a", seq=1), NodeId("ap-1"), 0.0)
        mq.insert(join_op("b", seq=2), NodeId("ap-1"), 1.0)
        drained = mq.drain()
        assert [op.member.guid.value for op in drained] == ["a", "b"]
        assert mq.is_empty

    def test_join_then_leave_cancels(self):
        mq = self._mq()
        mq.insert(join_op("a", seq=1), NodeId("ap-1"), 0.0)
        mq.insert(leave_op("a", seq=2), NodeId("ap-1"), 1.0)
        assert len(mq) == 0
        assert mq.total_aggregated_away == 2

    def test_join_then_handoff_collapses_to_join_at_new_ap(self):
        mq = self._mq()
        mq.insert(join_op("a", ap="ap-1", seq=1), NodeId("ap-1"), 0.0)
        handoff = TokenOperation(
            op_type=TokenOperationType.MEMBER_HANDOFF,
            origin=NodeId("ap-2"),
            member=make_member("a", "ap-2"),
            previous_ap=NodeId("ap-1"),
            sequence=2,
        )
        mq.insert(handoff, NodeId("ap-2"), 1.0)
        ops = mq.drain()
        assert len(ops) == 1
        assert ops[0].op_type is TokenOperationType.MEMBER_JOIN
        assert ops[0].member.ap == NodeId("ap-2")

    def test_handoff_then_handoff_keeps_original_previous_ap(self):
        mq = self._mq()
        h1 = TokenOperation(
            op_type=TokenOperationType.MEMBER_HANDOFF,
            origin=NodeId("ap-2"),
            member=make_member("a", "ap-2"),
            previous_ap=NodeId("ap-1"),
            sequence=1,
        )
        h2 = TokenOperation(
            op_type=TokenOperationType.MEMBER_HANDOFF,
            origin=NodeId("ap-3"),
            member=make_member("a", "ap-3"),
            previous_ap=NodeId("ap-2"),
            sequence=2,
        )
        mq.insert(h1, NodeId("ap-2"), 0.0)
        mq.insert(h2, NodeId("ap-3"), 1.0)
        ops = mq.drain()
        assert len(ops) == 1
        assert ops[0].previous_ap == NodeId("ap-1")
        assert ops[0].member.ap == NodeId("ap-3")

    def test_duplicate_operation_collapses(self):
        mq = self._mq()
        mq.insert(join_op("a", seq=1), NodeId("ap-1"), 0.0)
        mq.insert(join_op("a", seq=1), NodeId("ap-1"), 1.0)
        assert len(mq) == 1

    def test_different_members_do_not_interfere(self):
        mq = self._mq()
        mq.insert(join_op("a", seq=1), NodeId("ap-1"), 0.0)
        mq.insert(join_op("b", seq=2), NodeId("ap-1"), 1.0)
        mq.insert(leave_op("a", seq=3), NodeId("ap-1"), 2.0)
        ops = mq.drain()
        assert [op.member.guid.value for op in ops] == ["b"]

    def test_ne_duplicate_collapses(self):
        mq = self._mq()
        op = TokenOperation(
            op_type=TokenOperationType.NE_FAILURE, origin=NodeId("x"), entity=NodeId("ap-9"), sequence=1
        )
        mq.insert(op, NodeId("x"), 0.0)
        mq.insert(op, NodeId("x"), 1.0)
        assert len(mq) == 1

    def test_non_aggregating_queue_keeps_everything(self):
        mq = self._mq(aggregate=False)
        mq.insert(join_op("a", seq=1), NodeId("ap-1"), 0.0)
        mq.insert(leave_op("a", seq=2), NodeId("ap-1"), 1.0)
        assert len(mq) == 2
        assert mq.total_aggregated_away == 0

    def test_senders_and_peek(self):
        mq = self._mq()
        mq.insert(join_op("a", seq=1), NodeId("child-1"), 0.0)
        mq.insert(join_op("b", seq=2), NodeId("child-2"), 1.0)
        assert mq.senders() == [NodeId("child-1"), NodeId("child-2")]
        assert len(mq.peek()) == 2
        assert len(mq) == 2  # peek does not drain


# ---------------------------------------------------------------------------
# membership views
# ---------------------------------------------------------------------------


class TestMembershipView:
    def _view(self) -> MembershipView:
        return MembershipView("ring", NodeId("ap-1"), GroupId("g"))

    def test_add_remove_and_contains(self):
        view = self._view()
        assert view.add(make_member("a"))
        assert "a" in view
        assert GloballyUniqueId("a") in view
        assert view.remove("a")
        assert "a" not in view
        assert not view.remove("a")

    def test_add_identical_record_reports_no_change(self):
        view = self._view()
        record = make_member("a")
        assert view.add(record)
        assert not view.add(record)
        assert view.version == 1

    def test_apply_join_and_leave_produce_events(self):
        view = self._view()
        event = view.apply(join_op("a", seq=1), time=1.0)
        assert event is not None and event.event_type is MembershipEventType.JOIN
        event = view.apply(leave_op("a", seq=2), time=2.0)
        assert event is not None and event.event_type is MembershipEventType.LEAVE
        assert len(view) == 0

    def test_apply_is_idempotent(self):
        view = self._view()
        assert view.apply(join_op("a", seq=1), 1.0) is not None
        assert view.apply(join_op("a", seq=1), 2.0) is None

    def test_ne_operation_does_not_change_view(self):
        view = self._view()
        op = TokenOperation(
            op_type=TokenOperationType.NE_FAILURE, origin=NodeId("x"), entity=NodeId("ap-2"), sequence=1
        )
        assert view.apply(op, 0.0) is None

    def test_members_sorted_and_members_at(self):
        view = self._view()
        view.add(make_member("b", ap="ap-2"))
        view.add(make_member("a", ap="ap-1"))
        assert view.guids() == ["a", "b"]
        assert [m.guid.value for m in view.members_at("ap-2")] == ["b"]

    def test_agreement_and_difference(self):
        v1, v2 = self._view(), self._view()
        v1.add(make_member("a"))
        v2.add(make_member("a"))
        assert v1.agrees_with(v2)
        v2.add(make_member("b"))
        assert not v1.agrees_with(v2)
        assert set(v2.guids()) - set(v1.guids()) == {"b"}

    def test_merge_from_counts_additions(self):
        v1, v2 = self._view(), self._view()
        v1.add(make_member("a"))
        v2.add(make_member("a"))
        v2.add(make_member("b"))
        assert v1.merge_from(v2) == 1
        assert v1.guids() == ["a", "b"]

    def test_copy_is_independent(self):
        view = self._view()
        view.add(make_member("a"))
        clone = view.copy()
        clone.add(make_member("b"))
        assert "b" not in view


# ---------------------------------------------------------------------------
# network entity state
# ---------------------------------------------------------------------------


class TestNetworkEntityState:
    def _entity(self) -> NetworkEntityState:
        return NetworkEntityState(
            current=NodeId("ap-1"), role=EntityRole.ACCESS_PROXY, group=GroupId("g")
        )

    def test_role_tiers(self):
        assert EntityRole.ACCESS_PROXY.tier == 1
        assert EntityRole.ACCESS_GATEWAY.tier == 2
        assert EntityRole.BORDER_ROUTER.tier == 3
        assert EntityRole("AG") is EntityRole.ACCESS_GATEWAY
        with pytest.raises(ValueError):
            EntityRole("XX")

    def test_ring_pointer_wiring(self):
        entity = self._entity()
        entity.set_ring_pointers("ring-1", NodeId("ap-1"), NodeId("ap-3"), NodeId("ap-2"))
        assert entity.leader == entity.current
        assert entity.ring_ok
        assert entity.previous == NodeId("ap-3")
        assert entity.next_node == NodeId("ap-2")

    def test_parent_and_children_flags(self):
        entity = self._entity()
        assert not entity.parent_ok and not entity.child_ok
        entity.set_parent(NodeId("ag-1"))
        assert entity.parent_ok
        entity.add_child(NodeId("x"))
        entity.add_child(NodeId("x"))
        assert entity.children == [NodeId("x")]
        assert entity.child == NodeId("x")
        entity.remove_child(NodeId("x"))
        assert not entity.child_ok and entity.child is None

    def test_local_member_registration_updates_ring_view(self):
        entity = self._entity()
        member = make_member("a")
        entity.local_members.add(member)
        entity.ring_members.add(member)
        assert len(entity.local_members) == 1
        assert entity.unregister_local_member("a")
        assert len(entity.ring_members) == 0
        assert len(entity.local_members) == 0

    def test_summary_round_trips_key_fields(self):
        entity = self._entity()
        entity.set_ring_pointers("ring-1", NodeId("ap-1"), NodeId("ap-3"), NodeId("ap-2"))
        summary = entity.summary()
        assert summary["current"] == "ap-1"
        assert summary["ring_id"] == "ring-1"
        assert summary["ring_ok"] is True
        assert summary["mq_pending"] == 0
