"""Scenario-matrix runner: {protocol} × {scenario} × {scale} × {loss}.

Sweeps the event-driven :class:`repro.sim.harness.ScenarioHarness` over

* **scenarios** — every scenario is a registered family of
  :mod:`repro.workloads.families`.  The default sweep is the original four:
  ``churn`` (Poisson join/leave/failure), ``handoff_storm`` (a mobility
  burst over an attached population), ``partition_merge`` (transient
  disconnections splitting a ring, then healing) and ``mobility_trace`` (a
  full attach/handoff/detach population trace); the adversarial families
  (``flash_crowd``, ``correlated_failure``, …) run the same way;
* **scales** — 1 000 / 10 000 / 100 000 access proxies (the paper's regular
  hierarchies at r=10, h=3/4/5; any ``r**h`` with 2 ≤ r ≤ 16 works);
* **loss rates** — 0 / 1 / 5 % message loss per notification send;
* **protocols** — ``rgb`` (the kernel through the harness) plus the
  baselines behind the :class:`repro.baselines.driver.MembershipProtocol`
  seam: ``flat_ring``, ``gossip`` and ``tree``.

Every cell does the same thing: compile the cell's
:class:`repro.workloads.spec.ScenarioSpec` to a fault script, then either
schedule it on the harness (RGB cells: batched rounds, faults and mobility
at their simulated times) or replay it sequentially through a protocol
driver (:func:`replay_workload`; baseline cells, and every protocol —
including RGB — in :func:`run_ablation_cell` when a head-to-head per-change
cost comparison is wanted: ``benchmarks/run_bench.py --ablation`` →
``BENCH_ablation.json``).

Every cell is fully seeded through :class:`repro.sim.rng.RandomStreams`, so
cells are independently reproducible, and emits one
:class:`repro.sim.stats.RunRecord` that :func:`repro.analysis.tables.render_matrix`
/ :func:`repro.analysis.tables.render_ablation` render.

CLI::

    PYTHONPATH=src python -m repro.workloads.matrix --sizes 1000 --events 24
    PYTHONPATH=src python -m repro.workloads.matrix --protocols rgb gossip tree
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.baselines.driver import (
    PROTOCOL_NAMES,
    BaseProtocolDriver,
    build_protocol,
    ring_shape_for_proxies as shape_for_proxies,
)
from repro.core.identifiers import clear_intern_tables
from repro.core.kernel import KERNEL_BACKENDS
from repro.sim.harness import (
    HarnessConfig,
    ScenarioHarness,
    TopologySnapshot,
    build_topology_snapshot,
)
from repro.sim.stats import RunRecord
from repro.workloads.spec import (
    FaultScript,
    ScenarioSpec,
    ScriptEvent,
    compile_spec,
    get_family,
    schedule_script,
)

#: The default sweep: the matrix's original scenarios.  Every registered
#: family (:func:`repro.workloads.spec.available_families`) is runnable.
SCENARIOS: Tuple[str, ...] = ("churn", "handoff_storm", "partition_merge", "mobility_trace")
SIZES: Tuple[int, ...] = (1_000, 10_000, 100_000)
LOSS_RATES: Tuple[float, ...] = (0.0, 0.01, 0.05)
PROTOCOLS: Tuple[str, ...] = PROTOCOL_NAMES


@dataclass(frozen=True)
class MatrixCell:
    """One cell of the scenario matrix.

    ``backend`` selects the kernel implementation for ``rgb`` cells
    (``"object"`` or ``"columnar"``).  It deliberately stays out of the
    cell's :class:`RunRecord` params: both backends produce bit-identical
    records (pinned by ``tests/test_columnar_backend.py``), so the
    fingerprint must not depend on which one ran.
    """

    scenario: str
    num_proxies: int
    loss: float
    seed: int = 0
    protocol: str = "rgb"
    backend: str = "object"

    def __post_init__(self) -> None:
        get_family(self.scenario)  # raises with the available-family list
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r} (have {PROTOCOLS})")
        if self.backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r} (have {KERNEL_BACKENDS})"
            )
        shape_for_proxies(self.num_proxies)  # validates early

    @property
    def label(self) -> str:
        base = (
            f"{self.protocol}/{self.scenario}/n={self.num_proxies}"
            f"/loss={self.loss:g}/seed={self.seed}"
        )
        if self.backend != "object":
            base += f"/backend={self.backend}"
        return base

    def script(self, events: int) -> FaultScript:
        """The cell's scenario compiled to a fault script (site indices)."""
        return compile_spec(
            ScenarioSpec(
                family=self.scenario,
                num_proxies=self.num_proxies,
                loss=self.loss,
                seed=self.seed,
                events=events,
            )
        ).script


@dataclass
class CellResult:
    """Outcome of one matrix cell."""

    cell: MatrixCell
    record: RunRecord
    wall_seconds: float
    workload_events: int
    dispatched_events: int
    converged: bool
    ring_agreement: bool
    membership: int

    @property
    def events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.dispatched_events / self.wall_seconds


@contextlib.contextmanager
def _gc_paused() -> Iterator[None]:
    """Suspend the cyclic garbage collector for the duration of one cell.

    A cell run is allocation-heavy (one object burst per simulated message)
    but creates essentially no reference cycles, so the collector's periodic
    generational scans are pure overhead on the hot loop — measurably >10% of
    a 10k-proxy cell.  Reference counting still frees everything promptly;
    the deferred cycle pass runs in the ``gc.collect()`` on exit.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


def _build_harness(
    cell: MatrixCell,
    trace_enabled: bool = False,
    snapshot: Optional[TopologySnapshot] = None,
    record_sends: bool = False,
) -> ScenarioHarness:
    ring_size, height = shape_for_proxies(cell.num_proxies)
    return ScenarioHarness(
        HarnessConfig(
            ring_size=ring_size,
            height=height,
            seed=cell.seed,
            loss=cell.loss,
            trace_enabled=trace_enabled,
            record_sends=record_sends,
            backend=cell.backend,
        ),
        snapshot=snapshot,
    )


class TopologySnapshotCache:
    """Process-local cache of frozen harness topologies, one per shape.

    A matrix sweep visits the same ``(ring_size, height)`` configuration for
    every loss-rate × scenario × seed cell; this cache builds it once,
    freezes it via pickle (:func:`repro.sim.harness.build_topology_snapshot`)
    and hands every cell its own rehydrated copy.  Only ``rgb`` cells consume
    snapshots — baseline drivers build their own (much cheaper) site state.
    See the snapshot docstring for the invalidation rules.
    """

    def __init__(self) -> None:
        self._snapshots: Dict[Tuple[int, int], TopologySnapshot] = {}

    def __len__(self) -> int:
        return len(self._snapshots)

    def for_shape(self, ring_size: int, height: int) -> TopologySnapshot:
        key = (ring_size, height)
        snapshot = self._snapshots.get(key)
        if snapshot is None:
            snapshot = build_topology_snapshot(ring_size, height)
            self._snapshots[key] = snapshot
        return snapshot

    def for_cell(self, cell: MatrixCell) -> Optional[TopologySnapshot]:
        """The cell's snapshot (building it on first use); None for baselines."""
        if cell.protocol != "rgb":
            return None
        ring_size, height = shape_for_proxies(cell.num_proxies)
        return self.for_shape(ring_size, height)


# ----------------------------------------------------------------------
# the baseline replay
# ----------------------------------------------------------------------


def replay_workload(driver: BaseProtocolDriver, events: Sequence[ScriptEvent]) -> int:
    """Apply fault-script events through a protocol driver, in time order.

    Site indices bind to ``driver.sites``.  ``leave`` and ``failure`` both
    remove the member (every protocol pays one removal propagation);
    ``disconnect`` is a crash (the toys have no transient disconnection);
    a ``crash`` above tier 1 goes to ``fail_internal``, which protocols
    without an internal hierarchy skip and count.  ``probe_partitions`` is
    a harness observation, so it is skipped and not counted.  Returns the
    number of events replayed.
    """
    sites = driver.sites
    replayed = 0
    for event in sorted(events, key=lambda e: e.time):
        kind = event.kind
        if kind == "join":
            driver.join(sites[event.site], event.member)
        elif kind in ("leave", "failure"):
            driver.leave(event.member)
        elif kind == "handoff":
            driver.handoff(event.member, sites[event.site])
        elif kind == "crash" and event.tier > 1:
            driver.fail_internal(sites[event.site], event.tier)
        elif kind in ("crash", "disconnect"):
            driver.fail_site(sites[event.site])
        elif kind == "inject_duplicate":
            driver.inject_duplicate(event.member)
        elif kind == "inject_stale":
            driver.inject_stale(event.member)
        elif kind == "probe_partitions":
            continue
        else:  # pragma: no cover - ScriptEvent validates kinds
            raise ValueError(f"unknown script event kind {kind!r}")
        replayed += 1
    return replayed


def run_ablation_cell(
    cell: MatrixCell, events: int = 24, script: Optional[FaultScript] = None
) -> CellResult:
    """Replay the cell's workload through its protocol driver (any protocol).

    Unlike the harness path, changes apply *sequentially* (each propagates to
    quiescence before the next), so per-change hop/message/round costs are
    well-defined and directly comparable across protocols.  ``script``
    replays a recorded fault script instead of compiling the cell's spec;
    both are the same events, which is what makes recorded scripts replay
    to bit-identical records.
    """
    with _gc_paused():
        build_start = time.perf_counter()
        driver = build_protocol(cell.protocol, cell.num_proxies, loss=cell.loss, seed=cell.seed)
        if script is None:
            script = cell.script(events)
        # Wall time measures the replay only: construction cost (hierarchy /
        # tree build) would otherwise drown 24 changes at 10k proxies and the
        # column would compare setup, not protocol cost.
        start = time.perf_counter()
        build_seconds = start - build_start
        replayed = replay_workload(driver, script.events)
        agreement = driver.global_agreement()
        wall = time.perf_counter() - start
    totals = driver.totals

    values: Dict[str, float] = dict(totals.as_values())
    values.update(
        {
            "wall_seconds": wall,
            "build_seconds": build_seconds,
            "workload_events": float(replayed),
            "converged": 1.0 if agreement else 0.0,
            "ring_agreement": 1.0 if agreement else 0.0,
            "membership": float(len(driver.members())),
        }
    )
    record = RunRecord(
        name=f"ablation.{cell.scenario}",
        params={
            "scenario": cell.scenario,
            "protocol": cell.protocol,
            "proxies": cell.num_proxies,
            "loss": cell.loss,
            "seed": cell.seed,
        },
        values=values,
        counters=dict(
            getattr(driver, "harness", None).counter_values()
            if cell.protocol == "rgb"
            else {}
        ),
    )
    return CellResult(
        cell=cell,
        record=record,
        wall_seconds=wall,
        workload_events=replayed,
        dispatched_events=(
            driver.harness.engine.dispatched_events if cell.protocol == "rgb" else totals.messages
        ),
        converged=agreement,
        ring_agreement=agreement,
        membership=len(driver.members()),
    )


# ----------------------------------------------------------------------
# cell execution
# ----------------------------------------------------------------------


def run_matrix_cell(
    cell: MatrixCell,
    events: int = 24,
    trace_enabled: bool = False,
    snapshot: Optional[TopologySnapshot] = None,
    script: Optional[FaultScript] = None,
) -> CellResult:
    """Run one matrix cell.

    ``rgb`` cells schedule the cell's compiled script on the full
    event-driven harness; baseline-protocol cells replay the same script
    through the :class:`repro.baselines.driver.MembershipProtocol` seam.
    With ``snapshot`` the harness rehydrates a pre-built topology instead of
    rebuilding it; the cell's record is bit-identical either way.  With
    ``script`` a recorded fault script is replayed instead of compiling the
    cell's spec.  Partition probes in the script land in the record as
    ``partitions_split`` (the first) and ``partitions_healed`` (the last).
    """
    if cell.protocol != "rgb":
        return run_ablation_cell(cell, events=events, script=script)
    with _gc_paused():
        start = time.perf_counter()
        harness = _build_harness(
            cell,
            trace_enabled=trace_enabled,
            snapshot=snapshot,
            record_sends=get_family(cell.scenario).record_sends,
        )
        scheduled = schedule_script(harness, script if script is not None else cell.script(events))
        outcome = harness.run()
        wall = time.perf_counter() - start

    extra_values: Dict[str, float] = {
        "wall_seconds": wall,
        "workload_events": float(scheduled),
        "events_per_second": (outcome.dispatched_events / wall) if wall > 0 else 0.0,
        "converged": 1.0 if outcome.converged else 0.0,
        "ring_agreement": 1.0 if outcome.ring_agreement else 0.0,
    }
    probes = harness.partition_probes
    if probes:
        extra_values["partitions_split"] = float(probes[0])
        extra_values["partitions_healed"] = float(probes[-1])
    record = harness.run_record(
        f"matrix.{cell.scenario}",
        extra_values=extra_values,
        scenario=cell.scenario,
    )
    return CellResult(
        cell=cell,
        record=record,
        wall_seconds=wall,
        workload_events=scheduled,
        dispatched_events=outcome.dispatched_events,
        converged=outcome.converged,
        ring_agreement=outcome.ring_agreement,
        membership=outcome.membership,
    )


def replay_script(
    script: FaultScript, protocol: str = "rgb", backend: str = "object"
) -> CellResult:
    """Replay a recorded fault script through any protocol.

    The replay contract: the cell is reconstructed from the script's
    provenance (the full source spec rides inside), the recorded events are
    scheduled verbatim — no family RNG stream is touched — and the resulting
    :class:`repro.sim.stats.RunRecord` is bit-identical to the run that
    produced the script (``repro.workloads.parallel.record_fingerprint``
    pins this).  Events are range-checked against the script's topology
    first (:meth:`FaultScript.validate`).
    """
    script.validate()
    source = ScenarioSpec.from_json(script.provenance["spec"])
    cell = MatrixCell(
        scenario=source.family,
        num_proxies=source.num_proxies,
        loss=source.loss,
        seed=source.seed,
        protocol=protocol,
        backend=backend,
    )
    return run_matrix_cell(cell, events=source.events, script=script)


@dataclass
class ScenarioMatrix:
    """The full sweep; every future scenario or protocol PR composes against this."""

    sizes: Sequence[int] = (1_000,)
    losses: Sequence[float] = LOSS_RATES
    scenarios: Sequence[str] = SCENARIOS
    protocols: Sequence[str] = ("rgb",)
    seed: int = 0
    events_per_cell: int = 24
    backend: str = "object"

    def cells(self) -> List[MatrixCell]:
        return [
            MatrixCell(
                scenario=scenario, num_proxies=size, loss=loss, seed=self.seed,
                protocol=protocol, backend=self.backend,
            )
            for protocol in self.protocols
            for scenario in self.scenarios
            for size in self.sizes
            for loss in self.losses
        ]

    def run(self, progress: bool = False) -> List[CellResult]:
        results = []
        snapshots = TopologySnapshotCache()
        for cell in self.cells():
            result = run_matrix_cell(
                cell, events=self.events_per_cell, snapshot=snapshots.for_cell(cell)
            )
            if progress:
                status = "ok" if (result.converged and result.ring_agreement) else "INCOMPLETE"
                print(
                    f"{cell.label:<52} {result.wall_seconds:7.2f}s "
                    f"{result.dispatched_events:>8} events  {status}",
                    flush=True,
                )
            results.append(result)
            # Identifiers intern per-process; without this a long sweep pins
            # every cell's node/GUID strings for the lifetime of the run.
            # Results hold only plain strings/floats, and snapshot payloads
            # re-intern on rehydration, so the reset is invisible to output.
            clear_intern_tables()
        return results


@dataclass
class AblationSweep:
    """Head-to-head sweep: every protocol replays the same workload traces.

    All protocols — RGB included — run through the sequential driver replay
    (:func:`run_ablation_cell`), so hops/messages/rounds per change are
    directly comparable; ``benchmarks/run_bench.py --ablation`` archives the
    result in ``BENCH_ablation.json``.
    """

    sizes: Sequence[int] = (1_000, 10_000)
    losses: Sequence[float] = (0.0, 0.01)
    scenarios: Sequence[str] = ("churn",)
    protocols: Sequence[str] = PROTOCOLS
    seed: int = 0
    events_per_cell: int = 24

    def cells(self) -> List[MatrixCell]:
        return [
            MatrixCell(
                scenario=scenario, num_proxies=size, loss=loss, seed=self.seed,
                protocol=protocol,
            )
            for scenario in self.scenarios
            for size in self.sizes
            for loss in self.losses
            for protocol in self.protocols
        ]

    def run(self, progress: bool = False) -> List[CellResult]:
        results = []
        for cell in self.cells():
            result = run_ablation_cell(cell, events=self.events_per_cell)
            if progress:
                status = "ok" if result.converged else "DISAGREE"
                print(
                    f"{cell.label:<52} {result.wall_seconds:7.2f}s "
                    f"hops/chg={result.record.value('hops_per_change'):>8.1f} "
                    f"msgs/chg={result.record.value('messages_per_change'):>9.1f}  {status}",
                    flush=True,
                )
            results.append(result)
            clear_intern_tables()  # same per-cell reset as ScenarioMatrix.run
        return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run the RGB scenario matrix")
    parser.add_argument("--sizes", type=int, nargs="+", default=[1_000])
    parser.add_argument("--losses", type=float, nargs="+", default=list(LOSS_RATES))
    parser.add_argument(
        "--scenarios", nargs="+", default=list(SCENARIOS),
        help=f"scenario families to run (default: {', '.join(SCENARIOS)}; "
        "any family of `python -m repro.workloads.spec --list`)",
    )
    parser.add_argument(
        "--protocols", nargs="+", default=["rgb"], choices=PROTOCOLS,
        help="membership protocols to drive through the matrix",
    )
    parser.add_argument("--events", type=int, default=24, help="workload events per cell")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--backend", choices=list(KERNEL_BACKENDS), default="object",
        help="kernel backend for rgb cells (records are backend-independent)",
    )
    parser.add_argument("--out", type=str, default=None, help="write records as JSON")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep (results are bit-identical to --jobs 1)",
    )
    args = parser.parse_args(argv)

    matrix = ScenarioMatrix(
        sizes=args.sizes,
        losses=args.losses,
        scenarios=args.scenarios,
        protocols=args.protocols,
        seed=args.seed,
        events_per_cell=args.events,
        backend=args.backend,
    )
    if args.jobs > 1:
        from repro.workloads.parallel import run_matrix as run_matrix_parallel

        report = run_matrix_parallel(matrix, jobs=args.jobs, progress=True)
        report.raise_if_failed()
        results = report.results
    else:
        results = matrix.run(progress=True)

    from repro.analysis.tables import render_ablation, render_matrix

    print()
    rgb_records = [r.record for r in results if r.cell.protocol == "rgb"]
    baseline_records = [r.record for r in results if r.cell.protocol != "rgb"]
    if rgb_records:
        print(render_matrix(rgb_records))
    if baseline_records:
        if rgb_records:
            print()
        print(render_ablation(baseline_records))
    if args.out:
        payload = [r.record.to_json() for r in results]
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    failures = [r for r in results if not (r.converged and r.ring_agreement)]
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
