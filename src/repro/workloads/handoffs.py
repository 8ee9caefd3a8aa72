"""Handoff storms: bursts of mobility over an attached member population.

The paper motivates RGB with the trend towards smaller wireless cells and
therefore more frequent handoffs.  A :class:`HandoffStorm` takes a member →
access-proxy attachment map and generates a burst of handoff events, biased
towards *neighbouring* proxies (same logical ring) with probability
``locality`` — the regime where RGB's ``ListOfNeighborMembers`` fast path
pays off — and towards arbitrary remote proxies otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.sim.rng import RandomStreams


@dataclass(frozen=True)
class HandoffStormEvent:
    """One handoff in the storm."""

    time: float
    member: str
    from_ap: str
    to_ap: str
    local: bool  # True when the destination is a ring neighbour of the origin


@dataclass
class HandoffStorm:
    """Generator of handoff bursts.

    Parameters
    ----------
    attachment:
        Current member → access proxy attachment.
    neighbor_map:
        Access proxy → neighbouring proxies (typically: other members of its
        logical ring).
    handoffs:
        Number of handoff events to generate.
    locality:
        Probability that a handoff targets a neighbouring proxy.
    duration:
        Storm duration; event times are uniform over it.
    """

    attachment: Mapping[str, str]
    neighbor_map: Mapping[str, Sequence[str]]
    handoffs: int = 100
    locality: float = 0.8
    duration: float = 100.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.attachment:
            raise ValueError("handoff storm needs at least one attached member")
        if self.handoffs < 1:
            raise ValueError(f"handoffs must be >= 1, got {self.handoffs}")
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError(f"locality must be in [0, 1], got {self.locality}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")

    def generate(self) -> List[HandoffStormEvent]:
        """Generate the storm, tracking attachment as members move."""
        rng = RandomStreams(self.seed).stream("handoff-storm")
        attachment: Dict[str, str] = dict(self.attachment)
        all_aps = sorted({ap for ap in attachment.values()} | set(self.neighbor_map.keys()))
        members = sorted(attachment)
        events: List[HandoffStormEvent] = []
        times = sorted(float(rng.uniform(0.0, self.duration)) for _ in range(self.handoffs))
        for time in times:
            member = members[int(rng.integers(len(members)))]
            current = attachment[member]
            neighbors = [ap for ap in self.neighbor_map.get(current, []) if ap != current]
            go_local = bool(neighbors) and rng.random() < self.locality
            if go_local:
                destination = neighbors[int(rng.integers(len(neighbors)))]
            else:
                remote = [ap for ap in all_aps if ap != current and ap not in neighbors]
                candidates = remote if remote else [ap for ap in all_aps if ap != current]
                if not candidates:
                    continue
                destination = candidates[int(rng.integers(len(candidates)))]
            events.append(
                HandoffStormEvent(
                    time=time,
                    member=member,
                    from_ap=current,
                    to_ap=destination,
                    local=destination in neighbors,
                )
            )
            attachment[member] = destination
        return events
