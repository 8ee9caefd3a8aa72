"""Scenario scripts and shard plans shared by the live runtime and the sim.

Golden-trace conformance needs both drivers to replay *the same* scenario.
The script is generated centrally
(:func:`repro.runtime.runner.build_churn_script`, from the same
:class:`ChurnWorkload` the scenario matrix uses) and then:

* the simulator replays it through :class:`repro.sim.harness.ScenarioHarness`
  (``apply_script_to_harness``) where the shared kernel draws its own
  sequence numbers, and
* each live shard process replays the slice routed to its rings, using the
  *pre-assigned* sequence/epoch carried by each :class:`ScriptOp` — shard
  replicas cannot share a sequence counter over UDP, so the script assigns
  sequences 1..K in time order at generation time and every replica seeds
  its post-scenario (repair) stream above K with a per-shard stride
  (:meth:`repro.core.kernel.TokenRoundKernel.set_sequence_stream`).

The :class:`ShardPlan` maps every ring to exactly one owning shard: rounds
for a ring run only at its owner (single writer per ring), cross-ring
notifications travel to the target ring's owner, and a killed shard takes
whole rings down atomically — which is what makes a live ``SIGKILL``
equivalent to the sim crashing all of that shard's entities at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.hierarchy import RingHierarchy

__all__ = [
    "ScenarioScript",
    "ScriptOp",
    "ShardPlan",
    "apply_script_to_harness",
]

#: Script op kinds (ChurnKind values plus the handoff pair).
KIND_JOIN = "join"
KIND_LEAVE = "leave"
KIND_FAILURE = "failure"
KIND_HANDOFF = "handoff"
#: Companion directive for a cross-shard handoff: the *old* AP's owner must
#: drop the member from its local list (the Mobile-IP style binding update
#: ``make_handoff_op`` performs directly when everything is one process).
KIND_HANDOFF_UNREGISTER = "handoff-unregister"


@dataclass(frozen=True)
class ScriptOp:
    """One scripted membership event with pre-assigned protocol identity."""

    time: float
    kind: str
    member: str
    ap: str
    to_ap: Optional[str] = None
    sequence: int = 0
    epoch: int = 0


@dataclass(frozen=True)
class ScenarioScript:
    """A replayable scenario: ordered ops plus the sequence-space watermark."""

    ops: Tuple[ScriptOp, ...]
    horizon: float
    #: First sequence number *not* used by the script; live replicas seed
    #: their repair-op streams at ``next_sequence + shard_id`` with stride
    #: ``num_shards``.
    next_sequence: int

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for op in self.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        counts["total"] = len(self.ops)
        return counts


@dataclass(frozen=True)
class ShardPlan:
    """Ring -> owning shard assignment for one live run."""

    num_shards: int
    ring_owner: Mapping[str, int]
    #: Shard owning the topmost ring (the global view lives in its replica).
    top_shard: int

    @classmethod
    def build(cls, hierarchy: RingHierarchy, num_shards: int) -> "ShardPlan":
        """Deterministic assignment: top ring to shard 0, the rest
        round-robin (by tier, then ring id) over the remaining shards.

        With ``num_shards > 1`` the top ring's shard takes no other ring
        until every other shard has one, so there is always at least one
        shard owning only bottom rings — the natural ``SIGKILL`` victim for
        conformance runs (its rings die atomically, the global view
        survives at shard 0).
        """
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        rings = sorted(hierarchy.rings.values(), key=lambda r: (-r.tier, r.ring_id))
        top_ring_id = hierarchy.topmost_ring().ring_id
        owner: Dict[str, int] = {top_ring_id: 0}
        others = [r.ring_id for r in rings if r.ring_id != top_ring_id]
        if num_shards == 1:
            for ring_id in others:
                owner[ring_id] = 0
        else:
            for index, ring_id in enumerate(others):
                owner[ring_id] = 1 + index % (num_shards - 1)
        return cls(num_shards=num_shards, ring_owner=dict(owner), top_shard=0)

    def rings_of(self, shard: int) -> List[str]:
        return sorted(rid for rid, s in self.ring_owner.items() if s == shard)

    def owner_of_ring(self, ring_id: str) -> int:
        return self.ring_owner[ring_id]

    def bottom_only_shards(self, hierarchy: RingHierarchy) -> List[int]:
        """Shards owning only bottom-tier rings (safe SIGKILL victims)."""
        bottom = hierarchy.bottom_tier()
        out = []
        for shard in range(self.num_shards):
            rings = self.rings_of(shard)
            if rings and all(hierarchy.ring(rid).tier == bottom for rid in rings):
                out.append(shard)
        return out

    def entities_of(self, hierarchy: RingHierarchy, shard: int) -> List[str]:
        """Every entity (node id string) living in the shard's rings."""
        out: List[str] = []
        for ring_id in self.rings_of(shard):
            out.extend(node.value for node in hierarchy.ring(ring_id).members)
        return sorted(out)


def quiet_crash_time(
    op_times: Sequence[float],
    requested: float,
    *,
    margin: float = 4.0,
    headroom: float = 0.5,
) -> float:
    """Shift a requested crash instant into a quiet window of the victim's
    op schedule.

    An op captured on a victim ring less than ``margin`` virtual units
    before the kill may or may not escape the dying ring: rounds drain one
    holder queue per ``round_delay`` and the holder choice depends on
    message-arrival interleaving, which legitimately differs between the
    simulator (modelled latency) and real datagrams (microseconds).  The
    crash *boundary* is therefore inherently racy in any real system — so
    conformance runs pin it down by killing inside a gap: at least
    ``margin`` units after the previous victim-ring op and ``headroom``
    before the next.  Returns the viable instant closest to ``requested``
    (there is always one after the victim's last op).
    """
    best: Optional[float] = None
    prev = 0.0
    for t in sorted(op_times) + [float("inf")]:
        candidate = prev + margin
        if candidate <= t - headroom:
            if best is None or abs(candidate - requested) < abs(best - requested):
                best = candidate
        prev = max(prev, t)
    assert best is not None
    return best


def apply_script_to_harness(script: ScenarioScript, harness) -> None:
    """Replay the script on a :class:`~repro.sim.harness.ScenarioHarness`.

    The sim side of conformance: the shared kernel draws its own sequences
    (the pre-assigned ones are a live-runtime necessity, not part of the
    protocol), so the script routes events through the harness's ordinary
    ``schedule_*`` entry points.
    """
    for op in script.ops:
        if op.kind == KIND_JOIN:
            harness.schedule_join(op.time, op.ap, guid=op.member)
        elif op.kind == KIND_LEAVE:
            harness.schedule_leave(op.time, op.member)
        elif op.kind == KIND_FAILURE:
            harness.schedule_failure(op.time, op.member)
        elif op.kind == KIND_HANDOFF:
            harness.schedule_handoff(op.time, op.member, op.to_ap)
        elif op.kind == KIND_HANDOFF_UNREGISTER:
            continue  # implicit in the shared-state handoff capture
        else:
            raise ValueError(f"unknown script op kind {op.kind!r}")
