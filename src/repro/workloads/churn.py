"""Churn workload: joins, voluntary leaves and member failures over time.

The generator produces a time-ordered list of :class:`ChurnEvent` records that
can be replayed against any membership engine (RGB, flat ring, tree, gossip).
Rates are Poisson; the member population is tracked so leaves/failures only
target currently joined members.

Departure targets are sampled in O(1) from a parallel member list kept in
sync with the population map (swap-remove on departure), so generating a
100k-event trace is linear in the event count — the seed implementation
re-sorted the whole population on every departure, which made large traces
O(n² log n).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.sim.rng import RandomStreams


class ChurnKind(enum.Enum):
    JOIN = "join"
    LEAVE = "leave"
    FAILURE = "failure"


@dataclass(frozen=True)
class ChurnEvent:
    """One churn event: a member joins, leaves or fails at an access proxy."""

    time: float
    kind: ChurnKind
    member: str
    ap: str


@dataclass
class ChurnWorkload:
    """Generator of churn event sequences.

    Parameters
    ----------
    ap_ids:
        Access proxies members can join at.
    join_rate:
        Expected joins per unit time.  May be zero for a pure-departure trace,
        in which case ``initial_members`` must be positive (otherwise the
        trace could never contain an event).
    leave_rate, failure_rate:
        Expected departures per unit time *per joined member*.
    initial_members:
        Members already joined (at seeded random proxies) when the trace
        starts; no join events are emitted for them, but departures may
        target them.
    horizon:
        Length of the generated trace.
    seed:
        Seed for the ``"churn"`` random stream.
    """

    ap_ids: Sequence[str]
    join_rate: float = 0.5
    leave_rate: float = 0.001
    failure_rate: float = 0.0005
    initial_members: int = 0
    horizon: float = 1000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.ap_ids:
            raise ValueError("churn workload needs at least one access proxy")
        if self.join_rate < 0:
            raise ValueError(f"join_rate must be >= 0, got {self.join_rate}")
        for name, value in (("leave_rate", self.leave_rate), ("failure_rate", self.failure_rate)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.initial_members < 0:
            raise ValueError(f"initial_members must be >= 0, got {self.initial_members}")
        if self.join_rate == 0 and self.initial_members == 0:
            raise ValueError(
                "join_rate == 0 with no initial members can never produce an event; "
                "set join_rate > 0 or initial_members > 0"
            )
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")

    def generate(self) -> List[ChurnEvent]:
        """Generate the time-ordered churn trace."""
        rng = RandomStreams(self.seed).stream("churn")
        events: List[ChurnEvent] = []
        population: Dict[str, str] = {}  # member -> ap
        # Parallel list of the population's members for O(1) uniform sampling;
        # departures swap-remove so no per-event sort or rebuild is needed.
        members: List[str] = []
        member_index: Dict[str, int] = {}

        def add_member(member: str, ap: str) -> None:
            population[member] = ap
            member_index[member] = len(members)
            members.append(member)

        def remove_member_at(index: int) -> str:
            member = members[index]
            last = members[-1]
            members[index] = last
            member_index[last] = index
            members.pop()
            del member_index[member]
            return member

        for index in range(self.initial_members):
            ap = self.ap_ids[int(rng.integers(len(self.ap_ids)))]
            add_member(f"churn-{self.seed}-init-{index:06d}", ap)

        t = 0.0
        counter = 0
        while True:
            departure_rate = (self.leave_rate + self.failure_rate) * len(population)
            total_rate = self.join_rate + departure_rate
            if total_rate <= 0:
                # join_rate == 0 and the population drained (or departure rates
                # are zero): no further event can ever occur — terminate
                # instead of feeding 1/0 into the exponential sampler.
                break
            t += float(rng.exponential(1.0 / total_rate))
            if t > self.horizon:
                break
            if departure_rate > 0 and rng.random() < departure_rate / total_rate:
                member = remove_member_at(int(rng.integers(len(members))))
                ap = population.pop(member)
                is_failure = rng.random() < self.failure_rate / (self.leave_rate + self.failure_rate) \
                    if (self.leave_rate + self.failure_rate) > 0 else False
                kind = ChurnKind.FAILURE if is_failure else ChurnKind.LEAVE
                events.append(ChurnEvent(time=t, kind=kind, member=member, ap=ap))
            else:
                member = f"churn-{self.seed}-{counter:06d}"
                counter += 1
                ap = self.ap_ids[int(rng.integers(len(self.ap_ids)))]
                add_member(member, ap)
                events.append(ChurnEvent(time=t, kind=ChurnKind.JOIN, member=member, ap=ap))
        return events
