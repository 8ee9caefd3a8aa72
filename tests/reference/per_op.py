"""The seed's per-operation token-round application (reference semantics).

:class:`repro.core.kernel.TokenRoundKernel` compiles each round's operations
into one :class:`repro.core.deltas.MembershipDelta` and applies it to every
visited entity in a single set-based pass.  :class:`PerOpKernel` overrides
that per-visit seam with the seed's loop: one operation at a time, with the
materialised coverage sets (:func:`coverage`) and the sorted GUID-list
probes.  It is the reference the property tests compare the production
kernel with, and the baseline of the batched-apply ablation
(``benchmarks/test_kernel_scale.py``, ``benchmarks/run_bench.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.deltas import MembershipDelta
from repro.core.entity import NetworkEntityState
from repro.core.identifiers import NodeId
from repro.core.kernel import TokenRoundKernel
from repro.core.membership import MembershipEvent
from repro.core.one_round import OneRoundEngine
from repro.core.token import TokenOperationType

_ADDS = (TokenOperationType.MEMBER_JOIN, TokenOperationType.MEMBER_HANDOFF)
_REMOVES = (TokenOperationType.MEMBER_LEAVE, TokenOperationType.MEMBER_FAILURE)


def coverage(kernel: TokenRoundKernel, ring_id: str) -> Set[str]:
    """Access proxies whose members fall within the ring's coverage area.

    The materialised set the production kernel's ancestor-chain
    ``ring_covers`` replaces: a walk of the child-ring subtree under every
    ring member, collecting the bottom-tier nodes.
    """
    hierarchy = kernel.hierarchy
    rings = hierarchy.rings
    covered: Set[str] = set()
    stack: List[NodeId] = list(hierarchy.ring(ring_id).members)
    while stack:
        node = stack.pop()
        node_ring_id = hierarchy.ring_of_node.get(node)
        if node_ring_id is not None and rings[node_ring_id].tier == kernel._bottom_tier:
            covered.add(node.value)
        for child_ring_id in hierarchy.child_rings.get(node, ()):
            stack.extend(rings[child_ring_id].members)
    return covered


class PerOpKernel(TokenRoundKernel):
    """The object kernel with the seed's per-operation apply at each visit."""

    def _apply_delta_ctx(
        self,
        entity: NetworkEntityState,
        delta: MembershipDelta,
        now: float,
        entry_coverage: Sequence[bool],
        is_bottom: bool,
        ring_member_set: Optional[Set[NodeId]],
    ) -> List[MembershipEvent]:
        # The production path hands over the round's net delta.  Replaying its
        # entries is the seed's loop only while nothing was netted away;
        # otherwise the reference would compare a net batch with itself.
        assert len(delta) == delta.source_count, "batch carried superseded operations"
        ring = self.hierarchy.ring(entity.ring_id)
        events: List[MembershipEvent] = []
        covered = self._coverage(ring.ring_id)
        bottom_tier = self._bottom_tier
        node = entity.current
        operations = [entry.operation for entry in delta.entries]
        for op in operations:
            if not op.op_type.concerns_member or op.member is None:
                continue
            member = op.member
            in_coverage = member.ap.value in covered

            if ring.tier == bottom_tier:
                if member.ap == node and op.op_type in _ADDS:
                    entity.local_members.add(member)
                elif str(member.guid) in entity.local_members.guids() and (
                    member.ap != node or op.op_type in _REMOVES
                ):
                    entity.local_members.remove(member.guid)

                if member.ap != node and member.ap in ring.members:
                    if op.op_type in _ADDS:
                        entity.neighbor_members.add(member)
                    else:
                        entity.neighbor_members.remove(member.guid)
                elif (
                    str(member.guid) in entity.neighbor_members.guids()
                    and member.ap not in ring.members
                ):
                    entity.neighbor_members.remove(member.guid)

            if op.op_type in _ADDS:
                if in_coverage:
                    event = entity.ring_members.apply(op, now)
                elif str(member.guid) in entity.ring_members.guids():
                    removed = entity.ring_members.remove(member.guid)
                    event = (
                        self._event(op, node, now, len(entity.ring_members)) if removed else None
                    )
                else:
                    event = None
            else:
                event = entity.ring_members.apply(op, now)
            if event is not None:
                events.append(event)
        return events

    def _coverage(self, ring_id: str) -> Set[str]:
        """:func:`coverage`, cached until hierarchy surgery bumps the
        kernel's coverage epoch (as the seed cached it until invalidation)."""
        # Set here, not in __init__: use_per_op re-classes a live kernel.
        cache: Dict[str, Tuple[int, Set[str]]] = self.__dict__.setdefault(
            "_coverage_sets", {}
        )
        epoch = self.coverage_epoch
        cached = cache.get(ring_id)
        if cached is None or cached[0] != epoch:
            cached = cache[ring_id] = (epoch, coverage(self, ring_id))
        return cached[1]


def use_per_op(engine: OneRoundEngine) -> OneRoundEngine:
    """Switch ``engine``'s object kernel to the per-operation apply, in place.

    Every piece of kernel state stays as it is; only the rounds run from now
    on apply through :class:`PerOpKernel`.  That lets an ablation build its
    state on the production path and time the reference alone.
    """
    if type(engine.kernel) is not TokenRoundKernel:
        raise TypeError(f"expected the object kernel, got {type(engine.kernel).__name__}")
    engine.kernel.__class__ = PerOpKernel
    return engine
