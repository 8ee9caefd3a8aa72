"""Single-threaded event loop for the live runtime's node processes.

One ``selectors``-based loop multiplexes every socket read and a monotonic
timer heap — no thread per socket, no locks, no shared mutable state
between concurrent handlers.  The event-driven interpreter argument applies
directly: with exactly one logical thread of control, a node's behaviour is
a deterministic function of the sequence of datagram arrivals and timer
firings, which is what makes a live run *checkable* against the simulator
(the sim engine is the same shape: one queue, one clock, handlers run to
completion).

Handlers run to completion; a slow handler delays timers (as in any
single-threaded reactor).  Timer callbacks take no arguments; reader
callbacks receive the ready socket.

A *turn* is one batch of due timers, or one batch of ready readers.  The
optional ``on_turn_end`` hook runs after each (also when a handler stopped
the loop), which is the natural flush point of a run-to-completion reactor:
a node queues what its handlers send during the turn and writes it out
there, one datagram per destination where it fits (``NodeRuntime._flush``).
"""

from __future__ import annotations

import heapq
import itertools
import selectors
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["EventLoop", "TimerHandle"]


class TimerHandle:
    """Cancellation handle for a scheduled callback."""

    __slots__ = ("when", "callback", "cancelled")

    def __init__(self, when: float, callback: Callable[[], None]) -> None:
        self.when = when
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class EventLoop:
    """Selector + timer-heap reactor (one per node process)."""

    #: Upper bound on one ``select`` wait so ``stop()`` from a signal-free
    #: context (e.g. a handler that set a flag) is honoured promptly.
    MAX_POLL = 0.5

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        on_turn_end: Optional[Callable[[], None]] = None,
    ) -> None:
        self.clock = clock
        self._on_turn_end = on_turn_end
        self._selector = selectors.DefaultSelector()
        self._timers: List[Tuple[float, int, TimerHandle]] = []
        self._tie = itertools.count()
        self._readers: Dict[int, object] = {}
        self._running = False

    # -- readers ------------------------------------------------------------

    def add_reader(self, sock, callback: Callable[[object], None]) -> None:
        """Invoke ``callback(sock)`` whenever ``sock`` is readable."""
        self._selector.register(sock, selectors.EVENT_READ, callback)
        self._readers[sock.fileno()] = sock

    def remove_reader(self, sock) -> None:
        try:
            self._selector.unregister(sock)
        except KeyError:
            return
        self._readers.pop(sock.fileno(), None)

    # -- timers -------------------------------------------------------------

    def call_later(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        return self.call_at(self.clock() + max(0.0, delay), callback)

    def call_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        handle = TimerHandle(when, callback)
        heapq.heappush(self._timers, (when, next(self._tie), handle))
        return handle

    def timers_pending(self) -> int:
        """Live (uncancelled) timers currently scheduled."""
        return sum(1 for _, _, h in self._timers if not h.cancelled)

    # -- run ----------------------------------------------------------------

    def _fire_due(self) -> None:
        now = self.clock()
        while self._timers and self._timers[0][0] <= now:
            _, _, handle = heapq.heappop(self._timers)
            if handle.cancelled:
                continue
            handle.callback()
            if not self._running:
                return

    def _next_timeout(self) -> float:
        while self._timers and self._timers[0][2].cancelled:
            heapq.heappop(self._timers)
        if not self._timers:
            return self.MAX_POLL
        return min(self.MAX_POLL, max(0.0, self._timers[0][0] - self.clock()))

    def _end_turn(self) -> None:
        if self._on_turn_end is not None:
            self._on_turn_end()

    def run(self) -> None:
        """Dispatch readers and timers until :meth:`stop` is called."""
        self._running = True
        try:
            while self._running:
                self._fire_due()
                self._end_turn()
                if not self._running:
                    break
                timeout = self._next_timeout()
                if self._selector.get_map():
                    ready = self._selector.select(timeout)
                else:
                    time.sleep(timeout)
                    ready = []
                for key, _events in ready:
                    key.data(key.fileobj)
                    if not self._running:
                        break
                self._end_turn()
        finally:
            self._running = False

    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Run until ``predicate()`` holds (checked after every dispatch).

        Test helper; returns False if ``timeout`` elapsed first.
        """
        deadline = self.clock() + timeout
        poll: Optional[TimerHandle] = None

        def check() -> None:
            nonlocal poll
            if predicate() or self.clock() >= deadline:
                self.stop()
                return
            poll = self.call_later(0.005, check)

        check()
        if self._running:
            return predicate()
        self.run()
        if poll is not None:
            poll.cancel()
        return predicate()

    def stop(self) -> None:
        self._running = False

    def close(self) -> None:
        self._selector.close()
        self._timers.clear()
        self._readers.clear()
