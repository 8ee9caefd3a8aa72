"""Event tracing.

The trace recorder captures a structured log of what happened during a run:
message sends and deliveries, token hand-offs, membership events, faults and
repairs.  Tests use traces to assert ordering properties ("the leader notified
its parent only after the token completed the round"); examples use them to
print a readable narrative of the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record."""

    time: float
    category: str
    actor: str
    description: str
    details: Tuple[Tuple[str, Any], ...] = ()

    def format(self) -> str:
        """Human-readable one-line rendering."""
        extra = " ".join(f"{k}={v}" for k, v in self.details)
        base = f"[{self.time:10.3f}] {self.category:<12} {self.actor:<18} {self.description}"
        return f"{base} {extra}".rstrip()


class TraceRecorder:
    """Collects :class:`TraceEvent` records during a simulation run.

    Recording can be disabled (``enabled=False``) for large benchmark runs
    where the trace itself would dominate memory; the ``record`` call then
    becomes a near no-op.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: List[TraceEvent] = []

    def record(
        self,
        time: float,
        category: str,
        actor: str,
        description: str,
        **details: Any,
    ) -> None:
        """Append a trace record (no-op when disabled)."""
        if not self.enabled:
            return
        self._events.append(
            TraceEvent(
                time=time,
                category=category,
                actor=actor,
                description=description,
                details=tuple(sorted(details.items())),
            )
        )

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def canonical_lines(self) -> List[str]:
        """Byte-stable one-line-per-event rendering for golden-trace tests.

        Times are fixed to six decimals and details are key-sorted (they
        already are, at record time), so two runs of the same seeded scenario
        produce identical output independent of platform or repr details.
        """
        lines = []
        for event in self._events:
            details = ",".join(f"{k}={v}" for k, v in event.details)
            lines.append(
                f"{event.time:.6f}|{event.category}|{event.actor}|{event.description}|{details}"
            )
        return lines

    def canonical_dump(self) -> str:
        """The canonical lines joined with newlines (trailing newline included)."""
        return "\n".join(self.canonical_lines()) + "\n"

    def format(self, limit: Optional[int] = None) -> str:
        """Multi-line rendering of (up to ``limit``) records."""
        events = self._events if limit is None else self._events[:limit]
        lines = [event.format() for event in events]
        if limit is not None and len(self._events) > limit:
            lines.append(f"... ({len(self._events) - limit} more records)")
        return "\n".join(lines)
