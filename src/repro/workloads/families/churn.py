"""Churn: Poisson joins, voluntary leaves and member failures (paper §4).

The matrix's original workload: joins arrive at one per second at uniformly
random proxies, and every joined member leaves at rate 0.02 or fails at rate
0.01.  The script keeps the first ``events`` events of the trace.
"""

from __future__ import annotations

from repro.workloads.churn import ChurnKind, ChurnWorkload
from repro.workloads.spec import CompileContext, ScenarioFamily, register_family


class ChurnFamily(ScenarioFamily):
    name = "churn"
    title = "Poisson joins with member leaves and failures at random proxies"

    def build_workload(self, ctx: CompileContext) -> None:
        events = ctx.spec.events
        workload = ChurnWorkload(
            ap_ids=range(ctx.num_sites),
            join_rate=1.0,
            leave_rate=0.02,
            failure_rate=0.01,
            horizon=max(4.0 * events, 8.0),
            seed=ctx.spec.seed,
        )
        ctx.streams_used.append("churn")  # the generator's own substream
        for event in workload.generate()[:events]:
            site = event.ap if event.kind is ChurnKind.JOIN else -1
            ctx.emit(event.time, event.kind.value, member=event.member, site=site)


register_family(ChurnFamily())
