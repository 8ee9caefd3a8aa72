"""``LiveScenarioRunner``: the same scenario through both drivers.

Golden-trace conformance for the live runtime: generate one churn script,
replay it once over real UDP processes (``Supervisor`` + ``NodeRuntime``)
and once through the event-driven simulator (``ScenarioHarness``), then
compare the *membership trace* — the canonical ``guid|ap|status`` lines of
the global view at the top-ring leader, plus convergence and per-ring
agreement.  Counter-for-counter equality is deliberately **not** the bar:
the live run's cross-shard echo-back and retry timing legitimately perturb
delivery counters, while the membership state machine (what the paper's
protocol is *about*) must not diverge.

The scripted ``SIGKILL`` closes the loop: the sim schedules the equivalent
entity crashes at the same virtual instant the victim shard wedges, so a
real process death — detected by real heartbeat silence — must drive the
survivors to the same membership the simulator's fault injector produces.

Also usable as a CLI (``python -m repro.runtime.runner``) for the README
quickstart and the CI live-smoke job; exits non-zero on any mismatch and
writes a line-diff artifact for the failure upload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import socket
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.hierarchy import HierarchyBuilder, RingHierarchy
from repro.runtime.heartbeat import HeartbeatConfig
from repro.runtime.node import LOOPBACK, NodeConfig
from repro.runtime.scenario import (
    ScenarioScript,
    ScriptOp,
    ShardPlan,
    apply_script_to_harness,
    quiet_crash_time,
)
from repro.runtime.supervisor import (
    KillSpec,
    LiveRunReport,
    StopSpec,
    Supervisor,
    scratch_dir,
)
from repro.sim.harness import HarnessConfig, ScenarioHarness
from repro.workloads.churn import ChurnKind, ChurnWorkload

__all__ = ["ConformanceResult", "LiveScenarioConfig", "LiveScenarioRunner"]


@dataclass(frozen=True)
class LiveScenarioConfig:
    """One live-vs-sim conformance scenario."""

    ring_size: int = 4
    height: int = 2
    num_shards: int = 4
    events: int = 12
    seed: int = 7
    #: Real seconds per virtual time unit (speed of the live replay).
    time_scale: float = 0.05
    #: Virtual instant the victim shard dies; None = no crash injection.
    crash_at: Optional[float] = None
    #: Which shard to SIGKILL; None picks the first bottom-only shard.
    kill_shard: Optional[int] = None
    heartbeat: HeartbeatConfig = field(default_factory=HeartbeatConfig)
    round_delay: float = 1.0
    crash_detection_delay: float = 5.0
    deadline: float = 90.0
    multicast: bool = True
    trace_enabled: bool = False
    workdir: Optional[str] = None


@dataclass
class ConformanceResult:
    """Outcome of one live-vs-sim comparison."""

    equal: bool
    live_lines: List[str]
    sim_lines: List[str]
    live_report: LiveRunReport
    sim_converged: bool
    live_ring_agreement: bool
    sim_ring_agreement: bool
    diff: List[str] = field(default_factory=list)
    artifact_path: Optional[str] = None

    def summary(self) -> Dict[str, object]:
        return {
            "equal": self.equal,
            "members_live": len(self.live_lines),
            "members_sim": len(self.sim_lines),
            "sim_converged": self.sim_converged,
            "live_ring_agreement": self.live_ring_agreement,
            "sim_ring_agreement": self.sim_ring_agreement,
            "killed_shards": self.live_report.killed_shards,
            "clean_shutdown": self.live_report.clean_shutdown,
            "errors": self.live_report.errors,
            "wall_seconds": round(self.live_report.wall_seconds, 2),
        }


def membership_lines(triples) -> List[str]:
    """Canonical, order-independent membership trace lines."""
    return sorted(f"{guid}|{ap}|{status}" for guid, ap, status in triples)


def _free_udp_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.bind((LOOPBACK, 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def build_churn_script(
    ap_ids: Sequence[str],
    *,
    events: int,
    seed: int,
    join_rate: float = 1.0,
    leave_rate: float = 0.02,
    failure_rate: float = 0.01,
) -> ScenarioScript:
    """The scenario matrix's churn cell as a portable script.

    Same workload parameters as the ``churn`` scenario family
    (``repro.workloads.families.churn``); unlike that family's fault script,
    every event up to the horizon is kept (no truncation at ``events``) and
    carries the pre-assigned sequence number live shards need.  Joins
    dominate; departures (leave/failure) route to the member's join
    AP (the churn generator records it), so a script needs no runtime
    member-location tracking to route departures — which is exactly what
    lets a live shard replay its slice independently.
    """
    horizon = max(4.0 * events, 8.0)
    workload = ChurnWorkload(
        ap_ids=list(ap_ids),
        join_rate=join_rate,
        leave_rate=leave_rate,
        failure_rate=failure_rate,
        horizon=horizon,
        seed=seed,
    )
    ops: List[ScriptOp] = []
    epochs: Dict[str, int] = {}
    sequence = 0
    for event in workload.generate():
        sequence += 1
        epoch = 0
        if event.kind is ChurnKind.JOIN:
            epoch = epochs.get(event.member, 0) + 1
            epochs[event.member] = epoch
        ops.append(
            ScriptOp(
                time=event.time,
                kind=event.kind.value,
                member=event.member,
                ap=event.ap,
                sequence=sequence,
                epoch=epoch,
            )
        )
    return ScenarioScript(ops=tuple(ops), horizon=horizon, next_sequence=sequence + 1)


class LiveScenarioRunner:
    """Runs one scenario live, once in the sim, and compares the traces."""

    def __init__(self, config: LiveScenarioConfig) -> None:
        self.config = config
        self.hierarchy: RingHierarchy = HierarchyBuilder("live").regular(
            ring_size=config.ring_size, height=config.height
        )
        self.plan = ShardPlan.build(self.hierarchy, config.num_shards)
        bottom = self.hierarchy.bottom_tier()
        aps = sorted(
            node.value
            for ring in self.hierarchy.rings.values()
            if ring.tier == bottom
            for node in ring.members
        )
        self.script: ScenarioScript = build_churn_script(
            aps, events=config.events, seed=config.seed
        )
        self.victim: Optional[int] = None
        self.crash_at: Optional[float] = None
        if config.crash_at is not None:
            if config.kill_shard is not None:
                self.victim = config.kill_shard
            else:
                candidates = self.plan.bottom_only_shards(self.hierarchy)
                if not candidates:
                    raise ValueError(
                        "no bottom-only shard to kill; pass kill_shard explicitly"
                    )
                self.victim = candidates[0]
            # Pin the kill inside a quiet window of the victim's op schedule
            # so the crash boundary is deterministic (see quiet_crash_time).
            victim_rings = set(self.plan.rings_of(self.victim))
            victim_times = [
                op.time
                for op in self.script.ops
                if self.hierarchy.ring_of(op.to_ap or op.ap).ring_id in victim_rings
            ]
            self.crash_at = quiet_crash_time(
                victim_times, config.crash_at, margin=4.0 * config.round_delay
            )

    # -- live side -----------------------------------------------------------

    def build_configs(self, workdir: str) -> Dict[int, NodeConfig]:
        cfg = self.config
        import pickle

        payload = pickle.dumps(self.hierarchy, protocol=pickle.HIGHEST_PROTOCOL)
        mcast_port = _free_udp_port() if cfg.multicast else 0
        configs: Dict[int, NodeConfig] = {}
        for shard in range(self.plan.num_shards):
            configs[shard] = NodeConfig(
                shard_id=shard,
                plan=self.plan,
                ring_size=cfg.ring_size,
                height=cfg.height,
                hierarchy_payload=payload,
                script=self.script,
                supervisor_port=0,  # stamped by the supervisor at spawn
                result_path=os.path.join(workdir, f"shard-{shard}.result"),
                crash_at=self.crash_at if shard == self.victim else None,
                time_scale=cfg.time_scale,
                round_delay=cfg.round_delay,
                crash_detection_delay=cfg.crash_detection_delay,
                heartbeat=cfg.heartbeat,
                multicast=cfg.multicast,
                mcast_port=mcast_port,
                trace_enabled=cfg.trace_enabled,
            )
        return configs

    def run_live(
        self, workdir: str, stops: Tuple[StopSpec, ...] = ()
    ) -> Tuple[LiveRunReport, Supervisor]:
        cfg = self.config
        kills: Tuple[KillSpec, ...] = ()
        if self.victim is not None and self.crash_at is not None:
            kills = (KillSpec(shard=self.victim, at=self.crash_at),)
        supervisor = Supervisor(
            self.build_configs(workdir),
            kills=kills,
            stops=stops,
            deadline=cfg.deadline,
        )
        report = supervisor.run()
        return report, supervisor

    # -- sim side ------------------------------------------------------------

    def run_sim_reference(self) -> ScenarioHarness:
        cfg = self.config
        harness = ScenarioHarness(
            HarnessConfig(
                ring_size=cfg.ring_size,
                height=cfg.height,
                seed=cfg.seed,
                round_delay=cfg.round_delay,
                crash_detection_delay=cfg.crash_detection_delay,
                trace_enabled=cfg.trace_enabled,
            )
        )
        apply_script_to_harness(self.script, harness)
        if self.victim is not None and self.crash_at is not None:
            # The sim's image of the SIGKILL: every entity the victim shard
            # owned crashes at the instant the live victim wedges.
            for node_id in self.plan.entities_of(self.hierarchy, self.victim):
                harness.schedule_crash(self.crash_at, node_id)
        harness.run()
        return harness

    # -- comparison ----------------------------------------------------------

    def compare(
        self, report: LiveRunReport, harness: ScenarioHarness
    ) -> ConformanceResult:
        top_result = report.results.get(self.plan.top_shard)
        live_triples = (top_result or {}).get("membership") or []
        live_lines = membership_lines(live_triples)
        sim_lines = membership_lines(
            (str(m.guid), str(m.ap), m.status.value)
            for m in harness.global_membership()
        )
        live_agreement = all(
            r.get("ring_agreement", False)
            for s, r in report.results.items()
            if s not in report.killed_shards
        ) and bool(report.surviving_results())
        equal = (
            live_lines == sim_lines
            and not report.errors
            and report.clean_shutdown
        )
        diff: List[str] = []
        if live_lines != sim_lines:
            live_set, sim_set = set(live_lines), set(sim_lines)
            diff.extend(f"-sim-only  {line}" for line in sorted(sim_set - live_set))
            diff.extend(f"+live-only {line}" for line in sorted(live_set - sim_set))
        return ConformanceResult(
            equal=equal,
            live_lines=live_lines,
            sim_lines=sim_lines,
            live_report=report,
            sim_converged=harness.converged(),
            live_ring_agreement=live_agreement,
            sim_ring_agreement=harness.ring_agreement(),
            diff=diff,
        )

    # -- one-call entry point ------------------------------------------------

    def run(self) -> ConformanceResult:
        cfg = self.config
        workdir = cfg.workdir or scratch_dir()
        owns_workdir = cfg.workdir is None
        os.makedirs(workdir, exist_ok=True)
        try:
            report, supervisor = self.run_live(workdir)
            supervisor.ensure_torn_down()
            harness = self.run_sim_reference()
            result = self.compare(report, harness)
            if not result.equal:
                result.artifact_path = self.write_artifact(workdir, result)
            return result
        finally:
            if owns_workdir and os.path.isdir(workdir):
                keep = any(
                    name.endswith(".diff") for name in os.listdir(workdir)
                )
                if not keep:
                    shutil.rmtree(workdir, ignore_errors=True)

    def write_artifact(self, workdir: str, result: ConformanceResult) -> str:
        """Persist the live-vs-sim divergence for post-mortem upload."""
        path = os.path.join(workdir, "live-vs-sim.diff")
        with open(path, "w") as handle:
            handle.write(json.dumps(result.summary(), indent=2, default=str))
            handle.write("\n\n")
            for line in result.diff:
                handle.write(line + "\n")
            handle.write("\n--- sim membership ---\n")
            handle.writelines(line + "\n" for line in result.sim_lines)
            handle.write("\n--- live membership ---\n")
            handle.writelines(line + "\n" for line in result.live_lines)
        return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.runner",
        description="Run one churn scenario over real UDP processes and "
        "check membership conformance against the simulator.",
    )
    parser.add_argument("--ring-size", type=int, default=4)
    parser.add_argument("--height", type=int, default=2)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--events", type=int, default=12)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--time-scale", type=float, default=0.05)
    parser.add_argument(
        "--crash-at",
        type=float,
        default=None,
        help="virtual instant to SIGKILL a bottom-only shard (omit: no crash)",
    )
    parser.add_argument("--deadline", type=float, default=90.0)
    parser.add_argument("--no-multicast", action="store_true")
    parser.add_argument(
        "--workdir",
        default=None,
        help="keep run artifacts (configs, results, failure diff) here",
    )
    options = parser.parse_args(argv)
    runner = LiveScenarioRunner(
        LiveScenarioConfig(
            ring_size=options.ring_size,
            height=options.height,
            num_shards=options.shards,
            events=options.events,
            seed=options.seed,
            time_scale=options.time_scale,
            crash_at=options.crash_at,
            deadline=options.deadline,
            multicast=not options.no_multicast,
            workdir=options.workdir,
        )
    )
    print(
        f"live run: {options.shards} shard processes, "
        f"script {runner.script.summary()}, "
        f"kill={runner.victim if options.crash_at is not None else 'none'}"
        + (f" at t={runner.crash_at:.2f}" if runner.crash_at is not None else "")
    )
    result = runner.run()
    for key, value in result.summary().items():
        print(f"  {key}: {value}")
    if result.equal:
        print("CONFORMANCE OK: live and sim membership traces are equivalent")
        return 0
    print("CONFORMANCE FAILED")
    for line in result.diff[:40]:
        print(" ", line)
    if result.artifact_path:
        print(f"  artifact: {result.artifact_path}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
