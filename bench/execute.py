"""Runs one iteration of a workload against the program and checks its output.

An iteration is: set the system up, replay the generated script to
quiescence with the closed-loop reader beside it, then compare the
membership the system converged to with the generator's oracle.  Every call
into ``repro`` is a public entry point timed from outside; the traced pass
adds the class-level span wrappers of ``bench/tracing.py`` around the same
calls.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Dict, List, Optional

from repro.core.hierarchy import HierarchyBuilder
from repro.core.one_round import OneRoundEngine
from repro.core.query import MembershipQueryService, MembershipScheme
from repro.runtime.runner import LiveScenarioConfig, LiveScenarioRunner
from repro.runtime.scenario import ScenarioScript, ScriptOp, apply_script_to_harness
from repro.serving.frontend import ServingFrontend
from repro.sim.harness import HarnessConfig, ScenarioHarness
from repro.workloads.spec import FaultScript, ScriptEvent, schedule_script

from tracing import Tracer
from workloads import ReadPlan, WorkloadInput, WorkloadSpec, closed_form_propagation

__all__ = ["Iteration", "ReadLog", "run_iteration"]

_SCHEMES = (MembershipScheme.TMS, MembershipScheme.BMS, MembershipScheme.IMS)


@dataclass
class ReadLog:
    """What the closed-loop reader measured in one iteration."""

    latencies: Dict[str, List[float]] = field(
        default_factory=lambda: {scheme.name: [] for scheme in _SCHEMES}
    )
    batches: int = 0
    #: Batches answered without a capture or revalidation (warm frames).
    warm_queries: int = 0
    warm_seconds: float = 0.0
    #: Wall and CPU the reader spent inside the run phase (submit, drain and
    #: verification); subtracted so the write path is reported alone.
    wall: float = 0.0
    cpu: float = 0.0
    verified: int = 0
    mismatched: int = 0


@dataclass
class Iteration:
    """One iteration's measurements (times in seconds)."""

    setup_s: float
    write_wall: float
    write_cpu: float
    changes: int
    attempted: int
    failed: int
    reads: ReadLog
    #: Per-layer counts and directly timed layer costs of this iteration.
    layer: Dict[str, float]
    notes: List[str] = field(default_factory=list)
    #: The quiesced system the iteration left behind (what the probes time).
    system: object = None


class Reader:
    """One closed-loop client on the serving frontend.

    On a harness the batches ride the event wheel (``schedule_call``), so
    reads interleave with round commits; :meth:`read_now` serves engines
    without a wheel.
    """

    def __init__(self, engine, plan: ReadPlan, tracer: Optional[Tracer]) -> None:
        self.engine = engine
        self.plan = plan
        self.tracer = tracer
        self.frontend = ServingFrontend(engine)
        self.entry = engine.hierarchy.access_proxies()[plan.entry_site]
        self.reference = MembershipQueryService(engine.kernel, entry_point=self.entry)
        self.batch = [_SCHEMES[i % len(_SCHEMES)] for i in range(plan.batch_size)]
        self.log = ReadLog()

    def install(self) -> None:
        self.engine.schedule_call(self.plan.start, self._fire, label="bench-read")

    def _fire(self) -> None:
        self.read_now()
        if self.log.batches < self.plan.batches:
            self.engine.schedule_call(
                self.engine.engine.now + self.plan.interval, self._fire, label="bench-read"
            )

    def read_now(self) -> None:
        log = self.log
        wall0, cpu0 = perf_counter(), process_time()
        frontend, entry = self.frontend, self.entry
        cache = frontend.cache
        cold_before = cache.captures + cache.revalidations
        if self.tracer is not None:
            self.tracer.trace_id = f"batch-{log.batches}"
        for scheme in self.batch:
            frontend.submit(scheme, entry)
        timings: List[float] = []
        results = frontend.drain(timings=timings)
        if self.tracer is not None:
            self.tracer.trace_id = None
        for scheme, seconds in zip(self.batch, timings):
            log.latencies[scheme.name].append(seconds)
        if cache.captures + cache.revalidations == cold_before:
            log.warm_queries += len(timings)
            log.warm_seconds += sum(timings)
        if log.batches % self.plan.verify_every == 0:
            # Same instant, outside the timed section: the reference object
            # path must return the same member list for each scheme.
            for scheme, result in zip(_SCHEMES, results):
                expected = self.reference.query(scheme)
                log.verified += 1
                if expected.guids != result.guids:
                    log.mismatched += 1
        log.batches += 1
        log.wall += perf_counter() - wall0
        log.cpu += process_time() - cpu0


# ----------------------------------------------------------------------
# runners
# ----------------------------------------------------------------------


def _iteration(
    setup_s, write_wall, write_cpu, inp: WorkloadInput, reader: Reader, failed, layer, notes, system
) -> Iteration:
    log = reader.log
    return Iteration(
        setup_s=setup_s,
        write_wall=write_wall,
        write_cpu=write_cpu,
        changes=inp.change_count,
        attempted=inp.change_count + log.verified,
        failed=failed + log.mismatched,
        reads=log,
        layer=layer,
        notes=notes,
        system=system,
    )


def _rusage_cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _oracle_diff(got, oracle, corrupt: bool) -> int:
    expected = set(oracle)
    if corrupt:
        expected.add("bench-corrupted-oracle")
    return len(set(got) ^ expected)


def _script(inp: WorkloadInput) -> FaultScript:
    return FaultScript(
        events=tuple(
            ScriptEvent(time=c.time, kind=c.kind, member=c.member, site=c.site, tier=c.tier)
            for c in inp.changes
        ),
        provenance={"family": "bench", "num_proxies": inp.ring_size**inp.height},
    )


def _serving_counts(reader: Reader) -> Dict[str, float]:
    stats = reader.frontend.stats()
    lookups = stats["captures"] + stats["hits"] + stats["revalidations"]
    return {
        "serving.snapshots.captures": stats["captures"],
        "serving.snapshots.hits": stats["hits"],
        "serving.snapshots.revalidations": stats["revalidations"],
        "serving.snapshots.invalidations": stats["invalidations"],
        "serving.snapshots.hit_share": stats["hits"] / lookups if lookups else 0.0,
        "serving.frontend.queries": stats["queries"],
        "serving.frontend.batches": stats["batches"],
    }


def _harness_counts(harness: ScenarioHarness, reader: Reader) -> Dict[str, float]:
    c = harness.counter_values()
    sends = c.get("transport.sent", 0)
    rounds = c.get("rounds.completed", 0)
    hops = c.get("hops.token", 0) + c.get("hops.notify", 0)
    store = getattr(harness.kernel, "store", None)
    return {
        "sim.engine.events": harness.engine.dispatched_events,
        "sim.transport.sends": sends,
        "sim.transport.retransmissions": c.get("transport.retransmissions", 0),
        "sim.transport.dropped": c.get("transport.dropped", 0),
        "sim.transport.delivered_share": c.get("transport.delivered", 0) / sends if sends else 0.0,
        "sim.harness.rounds": c.get("harness.rounds", 0),
        "sim.harness.notify_resends": c.get("harness.notify_resends", 0),
        "sim.harness.notify_rerouted": c.get("harness.notify_rerouted", 0),
        "sim.harness.notify_dead_lettered": c.get("harness.notify_dead_lettered", 0),
        "sim.harness.stale_ops_dropped": c.get("harness.stale_ops_dropped", 0),
        "core.hierarchy.entities": len(harness.kernel.entities),
        "core.kernel.rounds": rounds,
        "core.kernel.hops_per_round": hops / rounds if rounds else 0.0,
        "core.kernel.repairs": c.get("repairs.ring", 0),
        "core.kernel.mq_salvaged": c.get("repairs.mq_salvaged", 0),
        "core.columnar.dirty_at_end": float(bool(store is not None and store.structure_dirty)),
        **_serving_counts(reader),
    }


def _run_harness(
    spec: WorkloadSpec, inp: WorkloadInput, seed: int, tracer: Optional[Tracer], corrupt: bool
) -> Iteration:
    start = perf_counter()
    harness = ScenarioHarness(
        HarnessConfig(
            ring_size=inp.ring_size,
            height=inp.height,
            loss=spec.loss,
            backend=spec.backend,
            seed=seed,
        )
    )
    reader = Reader(harness, inp.reads, tracer)
    script = _script(inp)
    schedule_start = perf_counter()
    schedule_script(harness, script)
    schedule_s = perf_counter() - schedule_start
    reader.install()
    # Rounds that begin with the columnar structure already dirty take the
    # object path whatever the backend says; a commit listener sees the flag
    # each round leaves behind, which is the flag the next round starts with.
    store = getattr(harness.kernel, "store", None)
    dirty_rounds = [0]
    if store is not None:

        def count_dirty(_ring_id: str, _now: float) -> None:
            if store.structure_dirty:
                dirty_rounds[0] += 1

        harness.add_round_listener(count_dirty)
    setup_s = perf_counter() - start

    wall0, cpu0 = perf_counter(), process_time()
    result = harness.run()
    run_wall = perf_counter() - wall0
    run_cpu = process_time() - cpu0

    layer = _harness_counts(harness, reader)
    layer["workloads.spec.schedule_s"] = schedule_s
    rounds = layer["sim.harness.rounds"]
    layer["core.columnar.dirty_round_share"] = dirty_rounds[0] / rounds if rounds else 0.0
    failed = _oracle_diff(harness.global_guids(), inp.oracle, corrupt)
    notes = []
    if not (result.converged and result.ring_agreement):
        failed = max(failed, 1)
        notes.append(
            f"converged={result.converged} ring_agreement={result.ring_agreement}"
        )
    log = reader.log
    return _iteration(
        setup_s, run_wall - log.wall, run_cpu - log.cpu, inp, reader, failed, layer, notes, harness
    )


def _run_propagate(
    spec: WorkloadSpec, inp: WorkloadInput, seed: int, tracer: Optional[Tracer], corrupt: bool
) -> Iteration:
    start = perf_counter()
    build_start = perf_counter()
    hierarchy = HierarchyBuilder("bench").regular(ring_size=inp.ring_size, height=inp.height)
    build_s = perf_counter() - build_start
    engine = OneRoundEngine(hierarchy, backend=spec.backend)
    reader = Reader(engine, inp.reads, tracer)
    aps = hierarchy.access_proxies()
    setup_s = perf_counter() - start

    # Each join is propagated to every ring, then read back; only the
    # capture + propagate time is the write path.
    run_wall = run_cpu = 0.0
    rounds = hops = 0
    for change in inp.changes:
        wall0, cpu0 = perf_counter(), process_time()
        engine.member_join(aps[change.site], change.member)
        report = engine.propagate()
        run_wall += perf_counter() - wall0
        run_cpu += process_time() - cpu0
        rounds += report.round_count
        hops += report.hop_count
        for _ in range(inp.reads.batches // len(inp.changes)):
            reader.read_now()

    want_rounds, want_hops = closed_form_propagation(inp.ring_size, inp.height, len(inp.changes))
    failed = _oracle_diff(engine.global_guids(), inp.oracle, corrupt)
    notes = []
    if (rounds, hops) != (want_rounds, want_hops):
        failed += 1
        notes.append(f"rounds/hops {rounds}/{hops} != closed form {want_rounds}/{want_hops}")
    store = engine.kernel.store
    layer = {
        "core.hierarchy.build_s": build_s,
        "core.hierarchy.entities": len(engine.kernel.entities),
        "core.kernel.rounds": rounds,
        "core.kernel.hops_per_round": hops / rounds if rounds else 0.0,
        "core.columnar.us_per_round": 1e6 * run_wall / rounds if rounds else 0.0,
        "core.columnar.dirty_at_end": float(store.structure_dirty),
        **_serving_counts(reader),
    }
    return _iteration(setup_s, run_wall, run_cpu, inp, reader, failed, layer, notes, engine)


def _live_script(inp: WorkloadInput, aps: List[str]) -> ScenarioScript:
    """Lower the changes to ``ScriptOp``s with pre-assigned identity:
    sequences 1..K in time order, epoch 1 for each (unique) member's join."""
    ops = tuple(
        ScriptOp(
            time=change.time,
            kind=change.kind,
            member=change.member,
            ap=aps[change.site],
            sequence=index,
            epoch=1 if change.kind == "join" else 0,
        )
        for index, change in enumerate(inp.changes, start=1)
    )
    return ScenarioScript(ops=ops, horizon=ops[-1].time + 4.0, next_sequence=len(ops) + 1)


def _run_live(
    spec: WorkloadSpec,
    inp: WorkloadInput,
    seed: int,
    tracer: Optional[Tracer],
    corrupt: bool,
    workdir: str,
) -> Iteration:
    os.makedirs(workdir, exist_ok=True)
    try:
        start = perf_counter()
        runner = LiveScenarioRunner(
            LiveScenarioConfig(
                ring_size=inp.ring_size,
                height=inp.height,
                num_shards=2,
                events=1,  # the constructor's own churn script is replaced below
                seed=seed,
                time_scale=0.02,
                crash_at=None,
                workdir=workdir,
            )
        )
        aps = [str(ap) for ap in runner.hierarchy.access_proxies()]
        runner.script = _live_script(inp, aps)
        runner.build_configs(workdir)  # run_live builds them again; timed here as set-up
        setup_s = perf_counter() - start

        self0 = _rusage_cpu(resource.RUSAGE_SELF)
        children0 = _rusage_cpu(resource.RUSAGE_CHILDREN)
        wall0 = perf_counter()
        run_live = runner.run_live
        if tracer is not None:
            run_live = tracer.wrap(run_live, "runtime.runner.run_live")
        report, supervisor = run_live(workdir)
        run_wall = perf_counter() - wall0
        live_spans = len(tracer.names) if tracer is not None else 0
        supervisor.ensure_torn_down()
        run_cpu = (
            _rusage_cpu(resource.RUSAGE_CHILDREN) - children0
            + _rusage_cpu(resource.RUSAGE_SELF) - self0
        )

        # The simulator twin of the same script (run_sim_reference's recipe),
        # with the reader on its event wheel.
        cfg = runner.config
        twin = ScenarioHarness(
            HarnessConfig(
                ring_size=cfg.ring_size,
                height=cfg.height,
                seed=cfg.seed,
                round_delay=cfg.round_delay,
                crash_detection_delay=cfg.crash_detection_delay,
            )
        )
        apply_script_to_harness(runner.script, twin)
        reader = Reader(twin, inp.reads, tracer)
        reader.install()
        twin.run()
        if tracer is not None:
            # The twin is the check and the reader's host, not the workload:
            # its sim spans would read as live-fleet layer time.
            tracer.truncate(live_spans)
        result = runner.compare(report, twin)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    notes = list(report.errors)
    failed = len(result.diff) + _oracle_diff(twin.global_guids(), inp.oracle, corrupt)
    if not result.equal:
        failed = max(failed, 1)
        notes.append("live and sim membership traces differ")

    survivors = report.surviving_results()

    def total(name: str) -> int:
        return sum(r["counters"].get(name, 0) for r in survivors.values())

    heartbeat = {
        key: sum(r["heartbeat"].get(key, 0) for r in survivors.values())
        for key in ("suspicions", "evictions", "readmissions")
    }
    if any(heartbeat.values()):
        notes.append(f"heartbeat trouble {heartbeat}: the box was too loaded to trust this run")
    links = [link for r in survivors.values() for link in r["link_stats"].values()]
    datagrams = sum(link["received"] for link in links)
    horizon_s = runner.script.ops[-1].time * runner.config.time_scale
    layer = {
        "core.hierarchy.entities": len(twin.kernel.entities),
        "runtime.wire.errors": total("runtime.wire_errors"),
        "runtime.dispatch.token_datagrams": total("runtime.token_datagrams"),
        "runtime.dispatch.holder_ack_datagrams": total("runtime.holder_ack_datagrams"),
        "runtime.dispatch.notify_duplicates": total("runtime.notify_duplicates"),
        "runtime.dispatch.dead_letters": sum(r["dead_letters"] for r in survivors.values()),
        "runtime.dispatch.datagrams_per_change": datagrams / inp.change_count,
        "runtime.heartbeat.suspicions": heartbeat["suspicions"],
        "runtime.heartbeat.evictions": heartbeat["evictions"],
        "runtime.heartbeat.readmissions": heartbeat["readmissions"],
        "runtime.node.rounds": total("harness.rounds"),
        "runtime.node.link_gaps": sum(link["gaps"] for link in links),
        "runtime.supervisor.wall_overrun_s": run_wall - horizon_s,
        **_serving_counts(reader),
    }
    return _iteration(setup_s, run_wall, run_cpu, inp, reader, failed, layer, notes, twin)


def run_iteration(
    spec: WorkloadSpec,
    inp: WorkloadInput,
    seed: int,
    workdir: str,
    tracer: Optional[Tracer] = None,
    corrupt_oracle: bool = False,
) -> Iteration:
    """One iteration with the cyclic collector paused, as ``run_matrix_cell``
    pauses it: the run allocates heavily but builds no cycles."""
    gc.collect()
    gc.disable()
    try:
        if spec.kind == "harness":
            return _run_harness(spec, inp, seed, tracer, corrupt_oracle)
        if spec.kind == "propagate":
            return _run_propagate(spec, inp, seed, tracer, corrupt_oracle)
        return _run_live(spec, inp, seed, tracer, corrupt_oracle, workdir)
    finally:
        gc.enable()
