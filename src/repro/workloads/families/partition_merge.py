"""Partition and merge: transient disconnections split a ring, then heal (§5.2).

After a warm-up population attaches, two *non-adjacent* members of the first
bottom ring disconnect for 120 s: a ring with two faults splits into separate
arcs, so the partition count exceeds one.  A ring of fewer than four members
cannot split that way (any two members are adjacent), so it loses a single
member — still a disconnect/heal cycle.  Joins captured elsewhere while the
ring is split must still converge globally after the heal.

Two ``probe_partitions`` events record the partition count mid-split and
60 s after the heal; the matrix reports them as ``partitions_split`` /
``partitions_healed``.  Protocols without transient disconnections replay a
disconnect as a crash.
"""

from __future__ import annotations

from repro.workloads.spec import CompileContext, ScenarioFamily, register_family

DOWNTIME = 120.0


def _joins(ctx: CompileContext) -> int:
    return min(max(4, ctx.spec.events), ctx.num_sites, 48)


class PartitionMergeFamily(ScenarioFamily):
    name = "partition_merge"
    title = "transient disconnections split a bottom ring, which then heals"

    def build_workload(self, ctx: CompileContext) -> None:
        for index in range(_joins(ctx)):
            ctx.emit(0.5 * index, "join", member=f"pm-{index:04d}", site=index % ctx.num_sites)

    def build_faults(self, ctx: CompileContext) -> None:
        # Sites 0..r-1 are the first bottom ring, in ring order.
        victims = (0, 2) if ctx.ring_size >= 4 else (0,)
        split_at = 0.5 * _joins(ctx) + 40.0
        for victim in victims:
            ctx.emit(split_at, "disconnect", site=victim, duration=DOWNTIME)
        spare = [site for site in range(ctx.num_sites) if site not in victims]
        for index in range(min(8, len(spare))):
            ctx.emit(
                split_at + 10.0 + index, "join", member=f"pm-mid-{index:02d}", site=spare[index]
            )
        ctx.emit(split_at + DOWNTIME / 2.0, "probe_partitions")
        ctx.emit(split_at + DOWNTIME + 60.0, "probe_partitions")


register_family(PartitionMergeFamily())
