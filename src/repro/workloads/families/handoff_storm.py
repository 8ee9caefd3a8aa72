"""Handoff storm: a mobility burst over an attached population.

Up to 64 members attach round-robin, then ``events`` handoffs land within a
few seconds, 80% of them to another proxy of the member's bottom ring — the
regime the paper's neighbour fast path is built for.
"""

from __future__ import annotations

from typing import Dict, List

from repro.workloads.handoffs import HandoffStorm
from repro.workloads.spec import CompileContext, ScenarioFamily, register_family


def block_neighbor_map(num_sites: int, block: int) -> Dict[int, List[int]]:
    """Site index → the other indices of its ``block``-sized run.

    Consecutive blocks of ``ring_size`` sites are exactly the RGB bottom rings
    (``ScenarioHarness.ring_neighbor_map`` by index), so handoff locality
    means the same thing for every protocol.
    """
    out: Dict[int, List[int]] = {}
    for start in range(0, num_sites, block):
        chunk = range(start, min(start + block, num_sites))
        for site in chunk:
            out[site] = [s for s in chunk if s != site]
    return out


class HandoffStormFamily(ScenarioFamily):
    name = "handoff_storm"
    title = "a burst of mostly ring-local handoffs over an attached population"

    def build_workload(self, ctx: CompileContext) -> None:
        n, events = ctx.num_sites, ctx.spec.events
        population = min(max(4, events // 2), n, 64)
        attachment = {f"hs-{i:04d}": i % n for i in range(population)}
        for index, (member, site) in enumerate(attachment.items()):
            ctx.emit(0.5 * index, "join", member=member, site=site)
        storm = HandoffStorm(
            attachment=attachment,
            neighbor_map=block_neighbor_map(n, ctx.ring_size),
            handoffs=events,
            locality=0.8,
            duration=max(2.0 * events, 10.0),
            seed=ctx.spec.seed,
        )
        ctx.streams_used.append("handoff-storm")  # the generator's own substream
        storm_start = 0.5 * population + 25.0
        for event in storm.generate():
            ctx.emit(storm_start + event.time, "handoff", member=event.member, site=event.to_ap)


register_family(HandoffStormFamily())
