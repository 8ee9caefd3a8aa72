"""Event-driven simulation engine.

The engine is a classic calendar-queue discrete-event scheduler: events are
``(time, priority, sequence, callback)`` tuples kept in a binary heap; running
the engine repeatedly pops the earliest event, advances the virtual clock and
invokes the callback.  Callbacks may schedule further events.

Design notes
------------
* Determinism: ties on ``time`` are broken first by ``priority`` (lower runs
  first) and then by insertion order, so two runs with the same seed dispatch
  events in exactly the same order.
* Cancellation: events carry a handle; cancelling marks the heap entry dead
  rather than removing it (lazy deletion), which keeps cancellation O(1).
* The engine knows nothing about networks or protocols — those live in
  :mod:`repro.sim.transport` and :mod:`repro.sim.harness` and simply
  schedule callbacks here.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.sim.clock import VirtualClock

EventCallback = Callable[["SimulationEngine"], None]


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Instances are returned from :meth:`SimulationEngine.schedule` and can be
    used to cancel the event before it fires.
    """

    __slots__ = ("time", "priority", "callback", "label", "_cancelled", "_dispatched", "_queue")

    def __init__(self, time: float, priority: int, callback: EventCallback, label: str) -> None:
        self.time = time
        self.priority = priority
        self.callback = callback
        self.label = label
        self._cancelled = False
        self._dispatched = False
        self._queue: Optional["EventQueue"] = None

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` was called before dispatch."""
        return self._cancelled

    @property
    def dispatched(self) -> bool:
        """True once the engine has invoked the callback."""
        return self._dispatched

    def cancel(self) -> bool:
        """Cancel the event.  Returns ``False`` if it already ran."""
        if self._dispatched:
            return False
        if not self._cancelled:
            self._cancelled = True
            # Keep the owning queue's live count exact without scanning the
            # heap: the entry itself is removed lazily at pop time.
            queue = self._queue
            if queue is not None:
                queue._live -= 1
                self._queue = None
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "cancelled" if self._cancelled else ("done" if self._dispatched else "pending")
        return f"Event(t={self.time:.3f}, prio={self.priority}, label={self.label!r}, {state})"


#: Heap entries are plain tuples ``(time, priority, sequence, event)``: tuple
#: comparison happens in C, which matters because heap sift compares entries
#: O(log n) times per push/pop on the simulator's hottest loop.
_HeapEntry = Tuple[float, int, int, Event]


class EventQueue:
    """Binary-heap event queue with lazy cancellation.

    Ordering is ``(time, priority, insertion order)`` — identical to the
    original dataclass-entry implementation, so two runs with the same seed
    still dispatch events in exactly the same order.
    """

    def __init__(self) -> None:
        self._heap: List[_HeapEntry] = []
        self._next_sequence = 0
        self._live = 0

    def push(self, event: Event) -> None:
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        heapq.heappush(self._heap, (event.time, event.priority, sequence, event))
        event._queue = self
        self._live += 1

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event._cancelled:
                continue
            event._queue = None
            self._live -= 1
            return event
        self._live = 0
        return None

    def __len__(self) -> int:
        return self._live

    def clear(self) -> None:
        for entry in self._heap:
            entry[3]._queue = None
        self._heap.clear()
        self._live = 0


class SimulationEngine:
    """Discrete-event scheduler owning the virtual clock.

    Parameters
    ----------
    max_events:
        Safety valve — :meth:`run` raises :class:`SimulationError` after this
        many dispatches, which catches accidental infinite token loops in
        protocol code under test.
    """

    def __init__(self, max_events: int = 10_000_000) -> None:
        self.clock = VirtualClock()
        self.queue = EventQueue()
        self.max_events = max_events
        self.dispatched_events = 0
        self._running = False
        self._stop_requested = False

    # -- scheduling -------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.clock.now

    def schedule(
        self,
        delay: float,
        callback: EventCallback,
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        event = Event(self.clock.now + delay, priority, callback, label)
        self.queue.push(event)
        return event

    def schedule_at(
        self,
        timestamp: float,
        callback: EventCallback,
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        if timestamp < self.clock.now:
            raise SimulationError(
                f"cannot schedule at {timestamp} which is before now={self.clock.now}"
            )
        event = Event(float(timestamp), priority, callback, label)
        self.queue.push(event)
        return event

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Dispatch exactly one event.  Returns ``False`` when queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        event._dispatched = True
        self.dispatched_events += 1
        event.callback(self)
        return True

    def run(self, until: Optional[float] = None) -> int:
        """Run until the queue drains or the clock passes ``until``.

        Returns the number of events dispatched by this call.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run() call)")
        self._running = True
        self._stop_requested = False
        dispatched_before = self.dispatched_events
        queue = self.queue
        heap = queue._heap
        heappop = heapq.heappop
        clock = self.clock
        max_events = self.max_events
        try:
            # Inline peek + pop over the queue's heap: one heap operation per
            # dispatch instead of a peek/pop pair of method calls.
            while not self._stop_requested:
                while heap and heap[0][3]._cancelled:
                    heappop(heap)
                if not heap:
                    queue._live = 0
                    break
                if until is not None and heap[0][0] > until:
                    clock.advance_to(until)
                    break
                if self.dispatched_events - dispatched_before >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={self.max_events}; "
                        "likely a runaway event loop"
                    )
                event = heappop(heap)[3]
                queue._live -= 1
                event._queue = None
                clock._now = event.time  # monotonic: heap order guarantees it
                event._dispatched = True
                self.dispatched_events += 1
                event.callback(self)
        finally:
            self._running = False
        return self.dispatched_events - dispatched_before

    def run_until_quiescent(self, max_time: Optional[float] = None) -> int:
        """Alias of :meth:`run` that reads better at call sites."""
        return self.run(until=max_time)

    def stop(self) -> None:
        """Request the current :meth:`run` call to return after this event."""
        self._stop_requested = True

    def pending(self) -> int:
        """Number of events still waiting to be dispatched."""
        return len(self.queue)

    def reset(self) -> None:
        """Clear the queue and rewind the clock; counters are preserved."""
        self.queue.clear()
        self.clock.reset()
        self._stop_requested = False

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SimulationEngine(now={self.clock.now:.3f}, pending={self.pending()}, "
            f"dispatched={self.dispatched_events})"
        )
