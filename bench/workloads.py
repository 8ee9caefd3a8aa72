"""Seeded workload generators and oracles of the benchmark of record.

Everything here is pure data: a generator takes a ``random.Random`` stream
and a shape and returns the scripted changes, the read plan and the oracle
(the membership the system must converge to).  Nothing is imported from
``repro`` — ``bench/execute.py`` lowers :class:`Change` records to the
program's own input types (``ScriptEvent`` / ``ScriptOp``) — so an edit to
``repro.workloads`` cannot silently change the load.

One ``random.Random`` substream per workload is derived from ``--seed``
(:func:`substream`); successive iterations of one run draw successive
scripts from that stream, so script ``i`` of a seed is always the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Tuple

__all__ = [
    "Change",
    "ReadPlan",
    "WORKLOADS",
    "WorkloadInput",
    "WorkloadSpec",
    "closed_form_propagation",
    "substream",
]


@dataclass(frozen=True)
class Change:
    """One scripted event.  ``site`` indexes the access proxies in hierarchy
    order; ``tier`` > 1 aims a crash at the site's tier-``tier`` ancestor."""

    time: float
    kind: str  # join | leave | failure | handoff | crash
    member: str = ""
    site: int = -1
    tier: int = 1


@dataclass(frozen=True)
class ReadPlan:
    """The closed-loop reader: one client, ``batches`` batches of
    ``batch_size`` queries (TMS/BMS/IMS round-robin), the next batch due
    ``interval`` sim-units after the previous one was answered.  Every
    ``verify_every``-th batch is re-answered by the reference query service
    outside the timed section."""

    start: float
    interval: float
    batches: int
    batch_size: int
    entry_site: int
    verify_every: int = 16


@dataclass(frozen=True)
class WorkloadInput:
    """What one iteration hands to the program."""

    ring_size: int
    height: int
    changes: Tuple[Change, ...]
    #: Membership changes the script performs (the ``changes_per_s``
    #: numerator): joins, leaves, member failures, handoffs, plus the members
    #: each AP crash removes.
    change_count: int
    oracle: FrozenSet[str]
    reads: ReadPlan


def substream(seed: int, workload: str) -> random.Random:
    """The workload's own RNG stream (string seeding is stable across runs)."""
    return random.Random(f"rgb-bench/{seed}/{workload}")


def closed_form_propagation(ring_size: int, height: int, joins: int) -> Tuple[int, int]:
    """(rounds, hops) of ``joins`` spread joins propagated to every ring.

    Each join drives one token round in every ring (``r`` token hops) and one
    notification hop into every ring but the topmost: ``joins * HCN_Ring``.
    """
    rings = (ring_size**height - 1) // (ring_size - 1)
    return joins * rings, joins * (rings * ring_size + rings - 1)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def _mix_counts(total: int, shares: Dict[str, float]) -> Dict[str, int]:
    """Exact per-kind counts (largest remainder), so the op mix — and with it
    the work per change — does not vary with the seed."""
    raw = {kind: total * share for kind, share in shares.items()}
    counts = {kind: int(value) for kind, value in raw.items()}
    by_remainder = sorted(shares, key=lambda kind: raw[kind] - counts[kind], reverse=True)
    for kind in by_remainder[: total - sum(counts.values())]:
        counts[kind] += 1
    return counts


def _churn(
    rng: random.Random,
    sites: int,
    total: int,
    shares: Dict[str, float],
    start: float,
    spacing: Callable[[], float],
    settle: float,
    prefix: str = "m",
) -> Tuple[List[Change], Dict[str, int]]:
    """``total`` changes with an exact kind mix in random feasible order.

    A departure or handoff picks a member whose previous change is at least
    ``settle`` old — long enough to have reached every ring.  Two changes to
    one member from different proxies inside that window can overtake each
    other (a leave that beats the member's own join upward resurrects it),
    and the benchmark wants scripts on which no operation fails.  While
    nobody is settled, joins are drawn; with no joins left, time passes.
    Returns the changes and the surviving member -> site map.
    """
    remaining = _mix_counts(total, shares)
    present: Dict[str, int] = {}
    touched_at: Dict[str, float] = {}
    changes: List[Change] = []
    now = start
    serial = 0
    while sum(remaining.values()):
        settled = sorted(g for g in present if now - touched_at[g] >= settle)
        kinds = [
            kind
            for kind, left in remaining.items()
            if left and (kind == "join" or settled)
        ]
        if not kinds:
            now += spacing()
            continue
        kind = rng.choices(kinds, weights=[remaining[k] for k in kinds])[0]
        remaining[kind] -= 1
        if kind == "join":
            member = f"{prefix}{serial:05d}"
            serial += 1
            site = rng.randrange(sites)
            present[member] = site
            touched_at[member] = now
            changes.append(Change(now, "join", member, site))
        elif kind == "handoff":
            member = rng.choice(settled)
            site = rng.randrange(sites - 1)
            if site >= present[member]:
                site += 1  # never hand off to the current proxy
            present[member] = site
            touched_at[member] = now
            changes.append(Change(now, "handoff", member, site))
        else:
            member = rng.choice(settled)
            changes.append(Change(now, kind, member, present.pop(member)))
        now += spacing()
    return changes, present


def _settle(height: int) -> float:
    """Sim-units a change needs to reach every ring: about 3 per tier up and
    3 per tier down at the harness's default round delay and link latency
    (measured 21 / 29 / 29 at heights 3 / 4 / 5), rounded up."""
    return 8.0 * height


def _read_plan(
    horizon: float, interval: float, batch_size: int, entry_site: int
) -> ReadPlan:
    """Reads spaced ``interval`` apart until ``horizon`` — the last scripted
    change plus the time its propagation needs — so every batch in that
    window follows a round commit and the last few find warm frames."""
    return ReadPlan(
        start=1.5,
        interval=interval,
        batches=max(1, int(horizon / interval)),
        batch_size=batch_size,
        entry_site=entry_site,
    )


def churn_lossy(rng: random.Random, ring_size: int, height: int, changes: int) -> WorkloadInput:
    sites = ring_size**height
    script, present = _churn(
        rng,
        sites,
        changes,
        {"join": 0.60, "leave": 0.15, "failure": 0.10, "handoff": 0.15},
        start=1.0,
        spacing=lambda: 1.0,
        settle=_settle(height),
    )
    return WorkloadInput(
        ring_size=ring_size,
        height=height,
        changes=tuple(script),
        change_count=len(script),
        oracle=frozenset(present),
        reads=_read_plan(script[-1].time + 1.5 * _settle(height), 1.0, 24, rng.randrange(sites)),
    )


def crash_repair(
    rng: random.Random, ring_size: int, height: int, warm: int, crashes: int, tail: int
) -> WorkloadInput:
    """Warm-up joins, then crashes 6.0 apart — each in a distinct bottom ring,
    the last one aimed at the ring's tier-2 ancestor — one join between
    crashes, then tail joins on survivors.  One victim per ring at most, so no
    ring is ever annihilated (that case is a pinned golden DISAGREE)."""
    sites = ring_size**height
    bottom_rings = sites // ring_size
    tier2_rings = bottom_rings // ring_size
    # Distinct tier-2 rings too, so an ancestor crash never shares a tier-2
    # ring with another victim's parent.
    chosen = rng.sample(range(tier2_rings), crashes)
    victims = [
        (t2 * ring_size + rng.randrange(ring_size)) * ring_size + rng.randrange(ring_size)
        for t2 in chosen
    ]
    ap_victims = victims[:-1]
    victim_set = set(ap_victims)
    victim_rings = {site // ring_size for site in victims}

    def survivor_site() -> int:
        while True:
            site = rng.randrange(sites)
            if site // ring_size not in victim_rings:
                return site

    script: List[Change] = []
    present: Dict[str, int] = {}
    serial = 0

    def join(time: float, site: int) -> None:
        nonlocal serial
        member = f"c{serial:05d}"
        serial += 1
        present[member] = site
        script.append(Change(time, "join", member, site))

    now = 1.0
    on_victims = max(len(ap_victims), warm // 4)
    for index in range(warm):
        join(now, ap_victims[index % len(ap_victims)] if index < on_victims else survivor_site())
        now += 1.0
    now += _settle(height)  # the victims' members are known everywhere before they vanish
    removed = 0
    for index, site in enumerate(victims):
        aimed_up = index == len(victims) - 1
        script.append(Change(now, "crash", site=site, tier=2 if aimed_up else 1))
        if not aimed_up:
            for member in [m for m, s in present.items() if s == site]:
                del present[member]
                removed += 1
        join(now + 3.0, survivor_site())
        now += 6.0
    for _ in range(tail):
        join(now, survivor_site())
        now += 1.0
    assert not victim_set & set(present.values())
    joins = sum(1 for change in script if change.kind == "join")
    return WorkloadInput(
        ring_size=ring_size,
        height=height,
        changes=tuple(script),
        change_count=joins + removed,
        oracle=frozenset(present),
        reads=_read_plan(now + 1.5 * _settle(height), 1.0, 24, survivor_site()),
    )


def propagate(rng: random.Random, ring_size: int, height: int) -> WorkloadInput:
    """Four joins a quarter of the proxies apart, each propagated to every
    ring and then read back by three 48-query batches: one BMS in 48 pays the
    capture, so ``bms_p99_ms`` lands in the middle of that cost's
    distribution, not on its tail nor on noise."""
    sites = ring_size**height
    quarter = sites // 4
    offset = rng.randrange(quarter)
    script = [
        Change(0.0, "join", f"p{index}", index * quarter + offset) for index in range(4)
    ]
    return WorkloadInput(
        ring_size=ring_size,
        height=height,
        changes=tuple(script),
        change_count=len(script),
        oracle=frozenset(change.member for change in script),
        # No event wheel to interleave on: the batches follow each propagation.
        reads=ReadPlan(0.0, 0.0, 3 * len(script), 48, entry_site=rng.randrange(sites)),
    )


def serve_reads(rng: random.Random, ring_size: int, height: int, changes: int) -> WorkloadInput:
    sites = ring_size**height
    script, present = _churn(
        rng,
        sites,
        changes,
        {"join": 0.5, "leave": 0.5},
        start=1.0,
        spacing=lambda: 12.0,
        settle=_settle(height),
        prefix="s",
    )
    return WorkloadInput(
        ring_size=ring_size,
        height=height,
        changes=tuple(script),
        change_count=len(script),
        oracle=frozenset(present),
        reads=_read_plan(script[-1].time + 1.5 * _settle(height), 0.5, 48, rng.randrange(sites)),
    )


def live_fleet(rng: random.Random, ring_size: int, height: int, ops: int) -> WorkloadInput:
    """Open loop: ops paced 0.5-1.0 virtual units apart.  Joins, leaves and
    member failures only — a departure is replayed by the shard that owns the
    member's join proxy, which is the routing the live scripts support."""
    sites = ring_size**height
    script, present = _churn(
        rng,
        sites,
        ops,
        {"join": 0.70, "leave": 0.20, "failure": 0.10},
        start=1.0,
        spacing=lambda: rng.uniform(0.5, 1.0),
        settle=_settle(height),
        prefix="v",
    )
    return WorkloadInput(
        ring_size=ring_size,
        height=height,
        changes=tuple(script),
        change_count=len(script),
        oracle=frozenset(present),
        # Shards expose no query endpoint; the reads run on the simulator
        # twin of the same script that the conformance check needs anyway.
        reads=_read_plan(script[-1].time + 1.5 * _settle(height), 0.25, 48, rng.randrange(sites)),
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: its generator at both scales and why it exists."""

    name: str
    why: str
    kind: str  # harness | propagate | live  (which runner executes it)
    backend: str
    loss: float
    generate: Callable[..., WorkloadInput]
    full: Dict[str, int]
    smoke: Dict[str, int]
    #: Probe groups of ``bench/probes.py`` the traced pass runs after this
    #: workload: the layers whose cost should move its end-to-end metrics.
    probes: Tuple[str, ...] = ()

    def inputs(self, rng: random.Random, smoke: bool = False) -> WorkloadInput:
        return self.generate(rng, **(self.smoke if smoke else self.full))


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="churn_lossy_10k",
            why="steady-state write path under 1% loss: sim engine, transport lanes, "
            "ack-gated resend and the object kernel's run_round; no repair, no columnar",
            kind="harness",
            backend="object",
            loss=0.01,
            generate=churn_lossy,
            full={"ring_size": 10, "height": 4, "changes": 16},
            smoke={"ring_size": 10, "height": 3, "changes": 16},
            probes=("engine", "deltas"),
        ),
        WorkloadSpec(
            name="crash_repair_10k",
            why="same kernel used differently: detect_and_repair, queue salvage, reroute and "
            "dead-letter retry, and the columnar backend's one-way structure_dirty decline",
            kind="harness",
            backend="columnar",
            loss=0.01,
            generate=crash_repair,
            full={"ring_size": 10, "height": 4, "warm": 4, "crashes": 2, "tail": 4},
            smoke={"ring_size": 10, "height": 3, "warm": 4, "crashes": 2, "tail": 4},
            probes=("engine",),
        ),
        WorkloadSpec(
            name="propagate_100k",
            why="the columnar kernel alone (fused round, work hints, forward plans), bypassing "
            "sim and runtime; where setup_s and peak_rss_mb show work moved into construction",
            kind="propagate",
            backend="columnar",
            loss=0.0,
            generate=propagate,
            full={"ring_size": 10, "height": 5},
            smoke={"ring_size": 10, "height": 3},
        ),
        WorkloadSpec(
            name="serve_reads_10k",
            why="the read path with writes beside it: snapshot hit, revalidate and capture, "
            "tier fan-out and result assembly under a 48-query closed-loop client",
            kind="harness",
            backend="columnar",
            loss=0.0,
            generate=serve_reads,
            full={"ring_size": 10, "height": 4, "changes": 4},
            smoke={"ring_size": 10, "height": 3, "changes": 2},
            probes=("serving",),
        ),
        WorkloadSpec(
            name="live_fleet_2shard",
            why="the only workload that runs repro.runtime: pickle wire codec, select loop, "
            "heartbeats, SocketDispatch ack/resend and the node, over loopback UDP",
            kind="live",
            backend="object",
            loss=0.0,
            generate=live_fleet,
            full={"ring_size": 4, "height": 3, "ops": 160},
            smoke={"ring_size": 4, "height": 2, "ops": 40},
            probes=("runtime",),
        ),
    )
}
