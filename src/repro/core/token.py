"""Token data structure and aggregated token operations (paper Section 4.2).

A token circulates around each logical ring.  It carries the group id, the
identity of its *holder* (the network entity that started the current round)
and an aggregated operation list: the membership change messages collected by
the holder's message queue when the round began.

The paper enumerates the operation types: Member-Join/Leave/Handoff/Failure,
NE-Join/Leave/Failure, Notification-to-Parent/Child and
Holder-Acknowledgement.  The first seven travel inside tokens as
:class:`TokenOperation` records; the notifications and acknowledgements are
inter-ring messages generated while the token executes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.core.identifiers import GroupId, NodeId
from repro.core.member import MemberInfo


class TokenOperationType(enum.Enum):
    """Type of an aggregated token operation."""

    MEMBER_JOIN = "member-join"
    MEMBER_LEAVE = "member-leave"
    MEMBER_HANDOFF = "member-handoff"
    MEMBER_FAILURE = "member-failure"
    NE_JOIN = "ne-join"
    NE_LEAVE = "ne-leave"
    NE_FAILURE = "ne-failure"

    @property
    def concerns_member(self) -> bool:
        """True for operations about mobile hosts (vs. network entities)."""
        return self in (
            TokenOperationType.MEMBER_JOIN,
            TokenOperationType.MEMBER_LEAVE,
            TokenOperationType.MEMBER_HANDOFF,
            TokenOperationType.MEMBER_FAILURE,
        )


@dataclass(frozen=True, slots=True)
class TokenOperation:
    """One membership change carried by a token.

    ``member`` is present for member operations; ``entity`` for NE operations.
    ``origin`` is the network entity that first captured the change (the AP a
    member joined at, or the node that detected an NE failure) and is where
    Holder-Acknowledgements are eventually routed back to.
    ``previous_ap`` is only set for handoffs.
    """

    op_type: TokenOperationType
    origin: NodeId
    member: Optional[MemberInfo] = None
    entity: Optional[NodeId] = None
    previous_ap: Optional[NodeId] = None
    sequence: int = 0

    def __post_init__(self) -> None:
        if self.op_type.concerns_member:
            if self.member is None:
                raise ValueError(f"{self.op_type.value} operation requires a member record")
        else:
            if self.entity is None:
                raise ValueError(f"{self.op_type.value} operation requires an entity id")
        if self.op_type is TokenOperationType.MEMBER_HANDOFF and self.previous_ap is None:
            raise ValueError("member-handoff operation requires previous_ap")

    def describe(self) -> str:
        """Short human-readable description used in traces."""
        if self.member is not None:
            subject = str(self.member.guid)
        else:
            subject = str(self.entity)
        return f"{self.op_type.value}({subject})"


@dataclass(slots=True)
class Token:
    """A token circulating in one logical ring.

    Attributes
    ----------
    group:
        The group the ring serves (``GID``).
    holder:
        The entity that started the current round; the round completes when
        the token has travelled from the holder all the way around back to it.
    operations:
        Aggregated membership changes executed by every node the token visits.
    ring_id:
        Identity of the logical ring the token belongs to.
    round_number:
        Incremented each time control transfers to the next holder.
    visited:
        Node ids visited so far in the current round (holder first); used by
        tests and by the failure detector to know where a round stalled.
    """

    group: GroupId
    holder: NodeId
    ring_id: str
    operations: Tuple[TokenOperation, ...] = ()
    round_number: int = 0
    #: Assigned by the owning kernel from its *per-kernel* counter.  This used
    #: to default to a module-level ``itertools.count``, which was
    #: process-global mutable state: forked pool workers inherited whatever
    #: the parent had consumed, so the same seeded cell produced different
    #: token ids depending on which worker ran it.  0 means "unassigned".
    token_id: int = 0
    visited: Tuple[NodeId, ...] = ()

    def record_visit(self, node: NodeId) -> "Token":
        """Copy of this token with ``node`` appended to the visit log."""
        return Token(
            group=self.group,
            holder=self.holder,
            ring_id=self.ring_id,
            operations=self.operations,
            round_number=self.round_number,
            token_id=self.token_id,
            visited=self.visited + (node,),
        )

    def fresh(
        self,
        new_holder: NodeId,
        operations: Iterable[TokenOperation] = (),
        token_id: int = 0,
    ) -> "Token":
        """The fresh token prepared when control transfers to the next holder.

        Figure 3, lines 21–23: when the token returns to ``Holder.Next`` a
        fresh token is prepared and control transfers to that node.  The
        caller (the kernel) supplies the new ``token_id`` from its per-kernel
        counter.
        """
        return Token(
            group=self.group,
            holder=new_holder,
            ring_id=self.ring_id,
            operations=tuple(operations),
            round_number=self.round_number + 1,
            token_id=token_id,
            visited=(),
        )

    @property
    def is_empty(self) -> bool:
        """True when the token carries no membership changes."""
        return not self.operations

    def describe(self) -> str:
        ops = ", ".join(op.describe() for op in self.operations) or "empty"
        return (
            f"Token#{self.token_id} ring={self.ring_id} holder={self.holder} "
            f"round={self.round_number} [{ops}]"
        )
