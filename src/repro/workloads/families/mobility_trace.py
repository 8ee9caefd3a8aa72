"""Mobility trace: a population that attaches, hands off and detaches.

Hosts arrive as a Poisson process (one per four seconds), stay 120 s on
average and hand off to a bottom-ring neighbour every 30 s on average; the
trace is clipped at its horizon, so late hosts simply stay attached.
"""

from __future__ import annotations

from repro.sim.mobility import HandoffEvent, MobilityModel
from repro.sim.rng import RandomStreams
from repro.workloads.families.handoff_storm import block_neighbor_map
from repro.workloads.spec import CompileContext, ScenarioFamily, register_family

STREAM = "mobility.matrix"


class MobilityTraceFamily(ScenarioFamily):
    name = "mobility_trace"
    title = "hosts attach, hand off within their ring and detach over time"

    def build_workload(self, ctx: CompileContext) -> None:
        model = MobilityModel(
            ap_ids=range(ctx.num_sites),
            streams=RandomStreams(ctx.spec.seed),
            neighbor_map=block_neighbor_map(ctx.num_sites, ctx.ring_size),
            mean_residency=30.0,
            mean_session=120.0,
            stream_name=STREAM,
        )
        ctx.streams_used.append(STREAM)
        hosts = max(3, ctx.spec.events // 6)
        trace = model.generate_population(
            num_hosts=hosts, arrival_rate=0.25, horizon=max(40.0 * hosts, 200.0)
        )
        for event in trace.all_events():
            if isinstance(event, HandoffEvent):
                ctx.emit(event.time, "handoff", member=event.host_id, site=event.to_ap)
            elif event.attach:
                ctx.emit(event.time, "join", member=event.host_id, site=event.ap_id)
            else:
                ctx.emit(event.time, "leave", member=event.host_id)


register_family(MobilityTraceFamily())
