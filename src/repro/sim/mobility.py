"""Mobility and attachment modelling for mobile hosts.

The paper motivates RGB with three mobile-Internet characteristics: frequent
disconnection, frequent handoff and frequent failure.  The mobility model
generates the corresponding event stream for a population of mobile hosts:

* an :class:`AttachmentEvent` when a host first attaches to an access proxy
  (Member-Join at the protocol layer),
* a :class:`HandoffEvent` when a host moves from one access proxy to another
  (Member-Handoff),
* a detach when a host voluntarily leaves (Member-Leave).

Cell residency times are exponential; the destination access proxy of a
handoff is chosen among the neighbouring APs of the current one (or uniformly
at random when no neighbourhood structure is supplied), which mimics movement
between adjacent wireless cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

from repro.sim.rng import RandomStreams


@dataclass(frozen=True)
class AttachmentEvent:
    """A mobile host attaches to (or detaches from) an access proxy."""

    time: float
    host_id: str
    ap_id: str
    attach: bool  # True = join, False = leave


@dataclass(frozen=True)
class HandoffEvent:
    """A mobile host moves from ``from_ap`` to ``to_ap``."""

    time: float
    host_id: str
    from_ap: str
    to_ap: str


@dataclass
class MobilityTrace:
    """The full generated event stream for one scenario."""

    attachments: List[AttachmentEvent] = field(default_factory=list)
    handoffs: List[HandoffEvent] = field(default_factory=list)

    def all_events(self) -> List[object]:
        """All events merged and sorted by time (ties: attachments first)."""
        merged: List[object] = list(self.attachments) + list(self.handoffs)
        merged.sort(key=lambda e: (e.time, isinstance(e, HandoffEvent)))
        return merged

    def __len__(self) -> int:
        return len(self.attachments) + len(self.handoffs)


class MobilityModel:
    """Generates attachment/handoff traces for a population of mobile hosts.

    Parameters
    ----------
    ap_ids:
        Access proxies hosts may attach to.
    neighbor_map:
        Optional adjacency between access proxies; handoffs prefer neighbours
        of the current AP.  Missing entries fall back to uniform choice.
    mean_residency:
        Mean time a host stays attached to one AP before handing off.
    mean_session:
        Mean total time a host stays in the group before leaving voluntarily.
    streams:
        Random streams; this model uses the ``"mobility"`` stream by default.
    stream_name:
        Name of the stream this model draws from.  Scenarios that run several
        mobility processes (or mobility next to other consumers of the
        ``"mobility"`` name) give each model its own stream so one process's
        draws can never shift another's.
    """

    def __init__(
        self,
        ap_ids: Sequence[str],
        streams: RandomStreams,
        neighbor_map: Optional[Mapping[str, Sequence[str]]] = None,
        mean_residency: float = 200.0,
        mean_session: float = 2000.0,
        stream_name: str = "mobility",
    ) -> None:
        if not ap_ids:
            raise ValueError("mobility model needs at least one access proxy")
        if mean_residency <= 0 or mean_session <= 0:
            raise ValueError("mean residency and session times must be positive")
        self.ap_ids = list(ap_ids)
        self.neighbor_map = {k: list(v) for k, v in (neighbor_map or {}).items()}
        self.mean_residency = mean_residency
        self.mean_session = mean_session
        self._rng = streams.stream(stream_name)

    def _pick_initial_ap(self) -> str:
        return self.ap_ids[int(self._rng.integers(len(self.ap_ids)))]

    def _pick_next_ap(self, current: str) -> str:
        neighbors = [ap for ap in self.neighbor_map.get(current, []) if ap != current]
        candidates = neighbors if neighbors else [ap for ap in self.ap_ids if ap != current]
        if not candidates:
            return current
        return candidates[int(self._rng.integers(len(candidates)))]

    def generate_host(self, host_id: str, arrival_time: float) -> MobilityTrace:
        """Trace for a single host: attach, hand off zero or more times, leave."""
        trace = MobilityTrace()
        session_length = float(self._rng.exponential(self.mean_session))
        leave_time = arrival_time + session_length
        current_ap = self._pick_initial_ap()
        trace.attachments.append(
            AttachmentEvent(time=arrival_time, host_id=host_id, ap_id=current_ap, attach=True)
        )
        t = arrival_time
        while True:
            residency = float(self._rng.exponential(self.mean_residency))
            t += residency
            if t >= leave_time:
                break
            next_ap = self._pick_next_ap(current_ap)
            if next_ap != current_ap:
                trace.handoffs.append(
                    HandoffEvent(time=t, host_id=host_id, from_ap=current_ap, to_ap=next_ap)
                )
                current_ap = next_ap
        trace.attachments.append(
            AttachmentEvent(time=leave_time, host_id=host_id, ap_id=current_ap, attach=False)
        )
        return trace

    def generate_population(
        self,
        num_hosts: int,
        arrival_rate: float,
        horizon: Optional[float] = None,
    ) -> MobilityTrace:
        """Trace for ``num_hosts`` hosts arriving as a Poisson process.

        ``arrival_rate`` is hosts per unit time.  Events after ``horizon`` are
        truncated (the final detach is clipped to the horizon) so scenario
        runs have a well-defined end.
        """
        if num_hosts <= 0:
            raise ValueError(f"num_hosts must be positive, got {num_hosts}")
        if arrival_rate <= 0:
            raise ValueError(f"arrival_rate must be positive, got {arrival_rate}")
        combined = MobilityTrace()
        t = 0.0
        for i in range(num_hosts):
            t += float(self._rng.exponential(1.0 / arrival_rate))
            host_trace = self.generate_host(f"mh-{i:05d}", arrival_time=t)
            combined.attachments.extend(host_trace.attachments)
            combined.handoffs.extend(host_trace.handoffs)
        if horizon is not None:
            combined = _clip_trace(combined, horizon)
        combined.attachments.sort(key=lambda e: e.time)
        combined.handoffs.sort(key=lambda e: e.time)
        return combined


def _clip_trace(trace: MobilityTrace, horizon: float) -> MobilityTrace:
    """Drop events after ``horizon``; hosts still attached simply stay attached."""
    clipped = MobilityTrace()
    clipped.attachments = [e for e in trace.attachments if e.time <= horizon]
    clipped.handoffs = [e for e in trace.handoffs if e.time <= horizon]
    return clipped
