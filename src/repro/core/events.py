"""Membership change events delivered to applications.

Applications using the membership service observe a stream of
:class:`repro.core.membership.MembershipEvent` records.  This module holds the
event bus that protocol entities publish into and that examples/tests
subscribe to; the event/record types themselves live in
:mod:`repro.core.membership` next to the view they update.
"""

from __future__ import annotations

from typing import Callable, List

from repro.core.membership import MembershipEvent

MembershipListener = Callable[[MembershipEvent], None]


class MembershipEventBus:
    """Simple synchronous publish/subscribe bus for membership events."""

    def __init__(self) -> None:
        self._listeners: List[MembershipListener] = []
        self._history: List[MembershipEvent] = []

    def subscribe(self, listener: MembershipListener) -> Callable[[], None]:
        """Register ``listener``; returns an unsubscribe callable."""
        self._listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def publish(self, event: MembershipEvent) -> None:
        """Record ``event`` and deliver it to every subscriber."""
        self._history.append(event)
        for listener in list(self._listeners):
            listener(event)

    @property
    def history(self) -> List[MembershipEvent]:
        """All events published so far, in publication order."""
        return list(self._history)

    def clear(self) -> None:
        self._history.clear()
