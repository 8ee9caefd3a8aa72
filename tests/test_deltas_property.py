"""Property tests: batched MembershipDelta application == sequential apply.

The kernel compiles each token round's aggregated operations into one
:class:`repro.core.deltas.MembershipDelta` and applies it to every visited
member list in a single pass.  These hypothesis tests pin the contract that
makes that safe: for *arbitrary* operation sequences — duplicate members,
join/leave/handoff interleavings, repeated operations — ``apply_delta`` on the
compiled delta leaves a view with member lists identical to sequential
per-operation ``apply``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis_profiles import examples

from repro.core.deltas import DeltaBuilder, MembershipDelta
from repro.core.identifiers import GloballyUniqueId, GroupId, NodeId, make_luid
from repro.core.member import MemberInfo, MemberStatus
from repro.core.membership import MembershipView
from repro.core.token import TokenOperation, TokenOperationType

GROUP = GroupId("prop-group")
GUIDS = [f"m{i:02d}" for i in range(8)]
APS = [f"ap-{i}" for i in range(4)]


def _member(guid: str, ap: str, epoch: int, status: MemberStatus) -> MemberInfo:
    return MemberInfo(
        guid=GloballyUniqueId(guid),
        group=GROUP,
        ap=NodeId(ap),
        luid=make_luid(ap, guid, epoch),
        status=status,
    )


@st.composite
def token_operations(draw) -> TokenOperation:
    op_type = draw(
        st.sampled_from(
            [
                TokenOperationType.MEMBER_JOIN,
                TokenOperationType.MEMBER_LEAVE,
                TokenOperationType.MEMBER_HANDOFF,
                TokenOperationType.MEMBER_FAILURE,
            ]
        )
    )
    guid = draw(st.sampled_from(GUIDS))
    ap = draw(st.sampled_from(APS))
    epoch = draw(st.integers(min_value=1, max_value=5))
    status = {
        TokenOperationType.MEMBER_JOIN: MemberStatus.OPERATIONAL,
        TokenOperationType.MEMBER_HANDOFF: MemberStatus.OPERATIONAL,
        TokenOperationType.MEMBER_LEAVE: MemberStatus.LEFT,
        TokenOperationType.MEMBER_FAILURE: MemberStatus.FAILED,
    }[op_type]
    previous_ap = None
    if op_type is TokenOperationType.MEMBER_HANDOFF:
        previous_ap = NodeId(draw(st.sampled_from(APS)))
    return TokenOperation(
        op_type=op_type,
        origin=NodeId(ap),
        member=_member(guid, ap, epoch, status),
        previous_ap=previous_ap,
        sequence=draw(st.integers(min_value=1, max_value=10_000)),
    )


operation_sequences = st.lists(token_operations(), min_size=0, max_size=30)


def _fresh_view(name: str = "ring") -> MembershipView:
    return MembershipView(name, NodeId("observer"), GROUP)


class TestDeltaEquivalence:
    @given(operation_sequences)
    @settings(max_examples=examples(200))
    def test_apply_all_delta_matches_sequential_apply(self, operations):
        """Acceptance: batched apply_delta == per-operation apply, any sequence."""
        sequential = _fresh_view()
        for op in operations:
            sequential.apply(op, time=1.0)

        batched = _fresh_view()
        batched.apply_delta(MembershipDelta.from_operations(operations), time=1.0)

        assert batched.snapshot() == sequential.snapshot()
        assert batched.guids() == sequential.guids()

    @given(operation_sequences, operation_sequences)
    @settings(max_examples=examples(100))
    def test_equivalence_from_arbitrary_starting_view(self, seed_ops, operations):
        """The equivalence holds regardless of what the view already contains."""
        sequential = _fresh_view()
        batched = _fresh_view()
        for op in seed_ops:
            sequential.apply(op, time=0.0)
            batched.apply(op, time=0.0)

        for op in operations:
            sequential.apply(op, time=1.0)
        batched.apply_delta(MembershipDelta.from_operations(operations), time=1.0)
        assert batched.snapshot() == sequential.snapshot()

    @given(operation_sequences)
    @settings(max_examples=examples(100))
    def test_apply_all_accepts_sequences_and_deltas_identically(self, operations):
        """Per-operation apply and apply_delta land on the same member list."""
        via_list = _fresh_view()
        for op in operations:
            via_list.apply(op, time=2.0)
        via_delta = _fresh_view()
        via_delta.apply_delta(MembershipDelta.from_operations(operations), time=2.0)
        assert via_delta.snapshot() == via_list.snapshot()

    @given(operation_sequences)
    @settings(max_examples=examples(100))
    def test_delta_compilation_is_idempotent_per_guid(self, operations):
        """A compiled delta has at most one entry per member GUID."""
        delta = MembershipDelta.from_operations(operations)
        guids = delta.guids()
        assert len(guids) == len(set(guids))
        # Re-applying the same delta is a no-op (idempotent delivery).
        view = _fresh_view()
        view.apply_delta(delta, time=0.0)
        first = view.snapshot()
        events = view.apply_delta(delta, time=1.0)
        assert view.snapshot() == first
        assert events == []

    @given(operation_sequences)
    @settings(max_examples=examples(100))
    def test_builder_incremental_equals_bulk_compile(self, operations):
        builder = DeltaBuilder()
        for op in operations:
            builder.add(op)
        incremental = builder.build()
        bulk = MembershipDelta.from_operations(operations)
        assert incremental.guids() == bulk.guids()
        assert [e.resolved for e in incremental.entries] == [e.resolved for e in bulk.entries]
