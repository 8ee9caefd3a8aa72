"""Mobile host (group member) data structures (paper Section 4.2).

A mobile host participating in a group records its group id, the access proxy
it is attached to, its globally and locally unique identities and its status.
Network entities keep :class:`MemberInfo` records — the per-member entry that
appears in ``ListOfLocalMembers``, ``ListOfRingMembers`` and
``ListOfNeighborMembers``.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.core.identifiers import (
    GloballyUniqueId,
    GroupId,
    LocallyUniqueId,
    NodeId,
    make_luid,
)


class MemberStatus(enum.Enum):
    """Status of a mobile host as seen by the membership service.

    The paper lists "typical status like operational, disconnected, and
    failed"; ``LEFT`` is added to distinguish voluntary departure from faulty
    disconnection in membership views.
    """

    OPERATIONAL = "operational"
    DISCONNECTED = "disconnected"
    FAILED = "failed"
    LEFT = "left"

    @property
    def is_operational(self) -> bool:
        return self is MemberStatus.OPERATIONAL


class MemberInfo:
    """Per-member record stored by network entities.

    Immutable: state changes produce a new record (see :meth:`with_status`
    and :meth:`handed_off_to`), which keeps membership views safe to share
    between entities without defensive copies.

    The LUID is derived **lazily**: a record constructed with ``epoch``
    instead of an explicit ``luid`` synthesises the care-of-address string
    (``make_luid(ap, guid, epoch)``) only when :attr:`luid` is first read and
    caches it.  Records are replicated into the ring view of every entity a
    propagation visits, so at large scales most copies never materialise
    their LUID string at all.  Equality and hashing are unaffected: two
    records compare equal iff their (guid, group, ap, status, derived luid)
    tuples do, and lazily derived LUIDs compare by epoch without forcing
    derivation.
    """

    __slots__ = ("guid", "group", "ap", "status", "epoch", "_luid")

    def __init__(
        self,
        guid: GloballyUniqueId,
        group: GroupId,
        ap: NodeId,
        luid: Optional[LocallyUniqueId] = None,
        status: MemberStatus = MemberStatus.OPERATIONAL,
        epoch: int = 0,
    ) -> None:
        if luid is None and epoch < 1:
            raise ValueError(
                f"member {guid} requires an explicit luid or a positive epoch"
            )
        object.__setattr__(self, "guid", guid)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "ap", ap)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "epoch", epoch)
        object.__setattr__(self, "_luid", luid)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("MemberInfo is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("MemberInfo is immutable")

    @property
    def luid(self) -> LocallyUniqueId:
        """The member's locally unique identity, derived on first access."""
        cached = self._luid
        if cached is None:
            cached = make_luid(self.ap, self.guid, self.epoch)
            object.__setattr__(self, "_luid", cached)
        return cached

    def _luid_token(self) -> object:
        """Comparison token for the LUID that avoids forcing derivation."""
        if self._luid is None:
            # Derivation is deterministic in (ap, guid, epoch); ap and guid
            # are already compared separately, so the epoch stands in.
            return ("epoch", self.epoch)
        return ("luid", self._luid.value)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, MemberInfo):
            return NotImplemented
        if (
            self.guid != other.guid
            or self.group != other.group
            or self.ap != other.ap
            or self.status is not other.status
        ):
            return False
        mine, theirs = self._luid_token(), other._luid_token()
        if mine == theirs:
            return True
        if mine[0] == theirs[0]:
            # Same token kind and unequal: two lazy records with different
            # epochs (derivation is injective in epoch for fixed ap/guid) or
            # two distinct explicit LUID strings — unequal either way,
            # without forcing derivation.
            return False
        # Mixed lazy/explicit records: fall back to the derived strings.
        return self.luid == other.luid

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        # LUID is deliberately excluded: records that differ only in LUID are
        # rare transients, and including it would force derivation.
        return hash((self.guid, self.group, self.ap, self.status))

    def __repr__(self) -> str:
        return (
            f"MemberInfo(guid={self.guid!r}, group={self.group!r}, ap={self.ap!r}, "
            f"luid={self._luid!r}, status={self.status!r}, epoch={self.epoch!r})"
        )

    def __reduce__(self):
        return (
            MemberInfo,
            (self.guid, self.group, self.ap, self._luid, self.status, self.epoch),
        )

    def with_status(self, status: MemberStatus) -> "MemberInfo":
        """Copy of this record with a different status."""
        if status is self.status:
            return self
        return MemberInfo(
            guid=self.guid,
            group=self.group,
            ap=self.ap,
            luid=self._luid,
            status=status,
            epoch=self.epoch,
        )

    def handed_off_to(self, new_ap: NodeId, epoch: int) -> "MemberInfo":
        """Copy of this record after a handoff to ``new_ap``.

        The GUID is stable; the attachment point and the LUID change (the
        new LUID is derived lazily from the new attachment and epoch).
        """
        return MemberInfo(
            guid=self.guid,
            group=self.group,
            ap=new_ap,
            status=self.status,
            epoch=epoch,
        )

    @property
    def is_operational(self) -> bool:
        return self.status.is_operational
