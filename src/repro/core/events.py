"""Membership change events delivered to applications.

Applications using the membership service observe a stream of
:class:`repro.core.membership.MembershipEvent` records.  This module holds the
event bus that protocol entities publish into and that examples and tests
read back; the event/record types themselves live in
:mod:`repro.core.membership` next to the view they update.
"""

from __future__ import annotations

from typing import List

from repro.core.membership import MembershipEvent


class MembershipEventBus:
    """The ordered record of every membership event the kernel published."""

    def __init__(self) -> None:
        self._history: List[MembershipEvent] = []

    def publish(self, event: MembershipEvent) -> None:
        """Record ``event``."""
        self._history.append(event)

    @property
    def history(self) -> List[MembershipEvent]:
        """All events published so far, in publication order."""
        return list(self._history)
