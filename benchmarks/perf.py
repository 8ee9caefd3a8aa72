#!/usr/bin/env python
"""Named performance benchmarks with a checked-in baseline (``BENCH_perf``).

Two tiers of named benches:

* **small** — micro/macro benches fast enough for every CI run and for the
  tier-1 perf-regression smoke test (``tests/test_perf_regression.py``):
  ring successor micro, event-engine dispatch micro, delta compile/apply
  micro, a 4k-proxy structural propagation and a 1k-proxy churn matrix cell.
* **full** — the headline measurements: the 10k-proxy churn matrix cell
  (compared against the pre-optimisation reference measured with the same
  methodology; the acceptance bar is a >=3x single-process speedup) and the
  1M-proxy ``large_scale`` propagation (first measured in PR 4; ~90 s and
  ~3 GB RSS on the reference machine).

Every bench is seeded and deterministic in its *work*; only wall time varies.
Timing methodology: ``best_of`` repetitions, default garbage collector state
(cell runners manage GC themselves — see ``repro.workloads.matrix._gc_paused``).

Results are written to ``BENCH_perf.json`` next to this script and compared
against ``perf_baseline.json``: a bench fails its band when it is more than
``tolerance`` times slower than its recorded baseline (generous by default —
absolute seconds are machine-specific; regenerate with ``--update-baseline``
when moving reference machines).  See ``docs/PERF.md``.

Usage::

    PYTHONPATH=src python benchmarks/perf.py --tier small
    PYTHONPATH=src python benchmarks/perf.py --tier full
    PYTHONPATH=src python benchmarks/perf.py --tier all --update-baseline
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
BASELINE_PATH = HERE / "perf_baseline.json"
OUTPUT_PATH = HERE / "BENCH_perf.json"

SMALL = "small"
FULL = "full"


@dataclass
class BenchResult:
    """One bench's measurement: primary seconds, build/memory metrics, extras.

    ``build_seconds`` is the bench's construction phase (0.0 for benches with
    no separate build); ``peak_rss_mb`` is ``resource.ru_maxrss`` of the
    measuring process, which is why the CLI isolates each bench in its own
    subprocess — in-process runs report the interpreter-wide peak instead.
    """

    name: str
    tier: str
    seconds: float
    repeats: int
    build_seconds: float = 0.0
    peak_rss_mb: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "tier": self.tier,
            "seconds": round(self.seconds, 4),
            "build_seconds": round(self.build_seconds, 4),
            "peak_rss_mb": round(self.peak_rss_mb, 1),
            "repeats": self.repeats,
        }
        if self.extra:
            payload["extra"] = {k: round(v, 4) for k, v in sorted(self.extra.items())}
        return payload


def environment_block() -> Dict[str, str]:
    """Interpreter/platform identification, recorded once per report.

    Per-result copies would only repeat it: partial runs merge into the
    existing ``BENCH_perf.json`` on the same machine, and cross-machine
    merges are already meaningless for the timings themselves.
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "unavailable"
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy_version,
    }


def _peak_rss_mb() -> float:
    """Peak RSS of this process in MB (``ru_maxrss`` is KB on Linux)."""
    import resource

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes on macOS
        return rss / (1024.0 * 1024.0)
    return rss / 1024.0


BenchFn = Callable[[], Tuple[float, Dict[str, float]]]
_REGISTRY: List[Tuple[str, str, Optional[int], BenchFn]] = []


def bench(name: str, tier: str, repeats: Optional[int] = None):
    """Register a bench; ``repeats`` pins a bench-specific repetition count
    (the 1M build+propagate is long enough to be measured once)."""

    def register(fn: BenchFn) -> BenchFn:
        _REGISTRY.append((name, tier, repeats, fn))
        return fn

    return register


def bench_names(tier: Optional[str] = None) -> List[str]:
    return [name for name, t, _r, _fn in _REGISTRY if tier is None or t == tier]


# ----------------------------------------------------------------------
# small tier: micro benches
# ----------------------------------------------------------------------


@bench("ring_successor_10k", SMALL)
def _bench_ring_successor() -> Tuple[float, Dict[str, float]]:
    """100k successor/predecessor lookups on a 10k-member ring.

    Exercises the array-backed position index in
    :class:`repro.core.ring.LogicalRing` (the seed's ``list.index`` scan made
    this O(ring) per lookup).
    """
    from repro.core.identifiers import NodeId
    from repro.core.ring import LogicalRing

    build_start = time.perf_counter()
    members = [NodeId(f"ap-{i:05d}") for i in range(10_000)]
    ring = LogicalRing(ring_id="bench", tier=1, members=list(members))
    build_seconds = time.perf_counter() - build_start
    probes = [members[(i * 37) % len(members)] for i in range(1_000)]
    start = time.perf_counter()
    for _round in range(50):
        for node in probes:
            ring.successor(node)
            ring.predecessor(node)
    elapsed = time.perf_counter() - start
    return elapsed, {"lookups": 100_000.0, "build_seconds": build_seconds}


@bench("engine_dispatch_50k", SMALL)
def _bench_engine_dispatch() -> Tuple[float, Dict[str, float]]:
    """Schedule and dispatch 50k events through the tuple-heap engine."""
    from repro.sim.engine import SimulationEngine

    engine = SimulationEngine()

    def noop(_engine: SimulationEngine) -> None:
        return None

    start = time.perf_counter()
    for i in range(50_000):
        engine.schedule(float(i % 97) * 0.25, noop)
    engine.run()
    elapsed = time.perf_counter() - start
    return elapsed, {"events": float(engine.dispatched_events)}


@bench("delta_compile_apply", SMALL)
def _bench_delta() -> Tuple[float, Dict[str, float]]:
    """Compile a 512-operation batch and apply it to 64 membership views."""
    from repro.core.deltas import MembershipDelta
    from repro.core.identifiers import GroupId, NodeId
    from repro.core.kernel import TokenRoundKernel
    from repro.core.hierarchy import HierarchyBuilder
    from repro.core.membership import MembershipView

    build_start = time.perf_counter()
    hierarchy = HierarchyBuilder("bench").regular(ring_size=4, height=2)
    kernel = TokenRoundKernel(hierarchy)
    build_seconds = time.perf_counter() - build_start
    aps = hierarchy.access_proxies()
    ops = [
        kernel.make_join_op(aps[i % len(aps)], f"member-{i:04d}") for i in range(512)
    ]
    views = [
        MembershipView("bench", NodeId(f"n-{i:02d}"), GroupId("bench"))
        for i in range(64)
    ]
    start = time.perf_counter()
    delta = MembershipDelta.from_operations(ops)
    for view in views:
        view.apply_delta(delta, 0.0)
    elapsed = time.perf_counter() - start
    assert all(len(view) == 512 for view in views)
    return elapsed, {"operations": 512.0, "views": 64.0, "build_seconds": build_seconds}


@bench("kernel_propagate_4k", SMALL)
def _bench_kernel_4k() -> Tuple[float, Dict[str, float]]:
    """Structural one-round propagation of 32 joins at r=8, h=4 (4096 APs)."""
    from repro.core.hierarchy import HierarchyBuilder
    from repro.core.one_round import OneRoundEngine

    build_start = time.perf_counter()
    hierarchy = HierarchyBuilder("bench").regular(ring_size=8, height=4)
    engine = OneRoundEngine(hierarchy)
    build_seconds = time.perf_counter() - build_start
    aps = hierarchy.access_proxies()
    stride = max(1, len(aps) // 32)
    for index in range(32):
        engine.member_join(aps[(index * stride) % len(aps)], f"bench-{index:04d}")
    start = time.perf_counter()
    report = engine.propagate()
    elapsed = time.perf_counter() - start
    return elapsed, {
        "rounds": float(report.round_count),
        "hop_count": float(report.hop_count),
        "build_seconds": build_seconds,
    }


@bench("kernel_propagate_4k_columnar", SMALL)
def _bench_kernel_4k_columnar() -> Tuple[float, Dict[str, float]]:
    """The ``kernel_propagate_4k`` workload on the columnar backend.

    Same joins, same rounds, bit-identical protocol state — the pair of
    benches keeps the backends' relative cost visible at a size where the
    object kernel is still comfortable.
    """
    from repro.core.hierarchy import HierarchyBuilder
    from repro.core.one_round import OneRoundEngine

    build_start = time.perf_counter()
    hierarchy = HierarchyBuilder("bench").regular(ring_size=8, height=4)
    engine = OneRoundEngine(hierarchy, backend="columnar")
    build_seconds = time.perf_counter() - build_start
    aps = hierarchy.access_proxies()
    stride = max(1, len(aps) // 32)
    for index in range(32):
        engine.member_join(aps[(index * stride) % len(aps)], f"bench-{index:04d}")
    start = time.perf_counter()
    report = engine.propagate()
    elapsed = time.perf_counter() - start
    return elapsed, {
        "rounds": float(report.round_count),
        "hop_count": float(report.hop_count),
        "build_seconds": build_seconds,
    }


@bench("matrix_churn_1k", SMALL)
def _bench_matrix_1k() -> Tuple[float, Dict[str, float]]:
    """One 1k-proxy churn cell through the event-driven harness."""
    from repro.workloads.matrix import MatrixCell, run_matrix_cell

    cell = MatrixCell(scenario="churn", num_proxies=1_000, loss=0.0, seed=0)
    start = time.perf_counter()
    result = run_matrix_cell(cell, events=16)
    elapsed = time.perf_counter() - start
    assert result.converged and result.ring_agreement
    return elapsed, {"dispatched_events": float(result.dispatched_events)}


@bench("matrix_churn_1k_columnar", SMALL)
def _bench_matrix_1k_columnar() -> Tuple[float, Dict[str, float]]:
    """The 1k churn cell with the columnar kernel behind the harness."""
    from repro.workloads.matrix import MatrixCell, run_matrix_cell

    cell = MatrixCell(
        scenario="churn", num_proxies=1_000, loss=0.0, seed=0, backend="columnar"
    )
    start = time.perf_counter()
    result = run_matrix_cell(cell, events=16)
    elapsed = time.perf_counter() - start
    assert result.converged and result.ring_agreement
    return elapsed, {"dispatched_events": float(result.dispatched_events)}


def _serving_extras(result: Dict[str, object], prefix: str = "") -> Dict[str, float]:
    """Flatten a serving-cell result into bench extras (qps, tails, cache)."""
    extras: Dict[str, float] = {
        f"{prefix}qps": float(result["overall_qps"]),
        f"{prefix}queries": float(result["total_queries"]),
    }
    for name, stats in result["schemes"].items():  # type: ignore[union-attr]
        key = name.lower()
        extras[f"{prefix}{key}_qps"] = float(stats["qps"])
        extras[f"{prefix}{key}_p50_ms"] = float(stats["p50_ms"])
        extras[f"{prefix}{key}_p99_ms"] = float(stats["p99_ms"])
    snapshots = result.get("snapshots")
    if snapshots:
        extras[f"{prefix}snapshot_captures"] = float(snapshots["captures"])
        extras[f"{prefix}snapshot_hits"] = float(snapshots["hits"])
        extras[f"{prefix}snapshot_invalidations"] = float(snapshots["invalidations"])
    return extras


@bench("serving_queries_1k", SMALL)
def _bench_serving_1k() -> Tuple[float, Dict[str, float]]:
    """Batched serving over the 1k-proxy churn cell (columnar backend).

    The primary metric is total query wall time (the latency-under-churn
    measurement); qps and per-scheme p50/p99 plus the snapshot cache
    counters ride along as extras.
    """
    from repro.workloads.query_load import QueryLoadConfig, run_serving_cell

    result = run_serving_cell(
        num_proxies=1_000,
        mode="batched",
        backend="columnar",
        events=16,
        config=QueryLoadConfig(mode="batched", batch_size=48, batches=24, interval=1.0),
    )
    extras = _serving_extras(result)
    extras["build_seconds"] = float(result["build_seconds"])
    return float(result["total_query_seconds"]), extras


# ----------------------------------------------------------------------
# full tier: the headline macro benches
# ----------------------------------------------------------------------


@bench("serving_churn_100k", FULL, repeats=1)
def _bench_serving_100k() -> Tuple[float, Dict[str, float]]:
    """Queries under churn at 100k proxies: batched columnar vs object path.

    Runs the same seeded churn cell twice — once served by the batched
    columnar front-end, once by the per-query object reference — and
    reports the throughput ratio as ``speedup_vs_object`` (the PR's
    acceptance bar is >= 10x).  The object pass issues far fewer queries
    (qps comes from per-query latencies, not query count), which is what
    keeps a per-query BMS fan-out over 10k rings affordable at all.
    """
    from repro.workloads.query_load import QueryLoadConfig, run_serving_cell

    batched = run_serving_cell(
        num_proxies=100_000,
        mode="batched",
        backend="columnar",
        events=24,
        config=QueryLoadConfig(mode="batched", batch_size=24, batches=8, interval=2.0),
    )
    reference = run_serving_cell(
        num_proxies=100_000,
        mode="object",
        backend="object",
        events=24,
        config=QueryLoadConfig(mode="object", batch_size=6, batches=2, interval=2.0),
    )
    extras = _serving_extras(batched)
    extras.update(_serving_extras(reference, prefix="object_"))
    extras["build_seconds"] = float(batched["build_seconds"]) + float(
        reference["build_seconds"]
    )
    object_qps = float(reference["overall_qps"])
    if object_qps > 0:
        extras["speedup_vs_object"] = float(batched["overall_qps"]) / object_qps
    return float(batched["total_query_seconds"]), extras


@bench("matrix_churn_10k", FULL)
def _bench_matrix_10k() -> Tuple[float, Dict[str, float]]:
    """The 10k-proxy churn cell — the PR 4 optimisation target."""
    from repro.workloads.matrix import MatrixCell, run_matrix_cell

    cell = MatrixCell(scenario="churn", num_proxies=10_000, loss=0.0, seed=0)
    start = time.perf_counter()
    result = run_matrix_cell(cell, events=24)
    elapsed = time.perf_counter() - start
    assert result.converged and result.ring_agreement
    return elapsed, {"dispatched_events": float(result.dispatched_events)}


def _large_scale_bench(height: int) -> Tuple[float, Dict[str, float]]:
    """r=10 structural propagation of a 4-join burst on the columnar backend.

    The dirty-ring pending set (PR 4) made million-proxy sweeps tractable;
    the columnar backend's proven-no-op fast path took the per-round cost
    off the CPython object graph entirely (dense index arithmetic instead
    of identifier-keyed dict probes, see :mod:`repro.core.columnar`).
    ``build_seconds`` measures the bulk construction path (hierarchy +
    entity states + kernel wiring + columnar store) under the library's own
    :func:`repro.core.hierarchy.paused_gc` — the way every at-scale caller
    (matrix cells included) runs construction; propagation manages the
    collector itself (the columnar propagate pauses it, exactly as callers
    experience it).
    """
    from repro.core.hierarchy import HierarchyBuilder, paused_gc
    from repro.core.one_round import OneRoundEngine

    build_start = time.perf_counter()
    with paused_gc():
        hierarchy = HierarchyBuilder("bench").regular(ring_size=10, height=height)
        engine = OneRoundEngine(hierarchy, backend="columnar")
    build_seconds = time.perf_counter() - build_start
    aps = hierarchy.access_proxies()
    for index in range(4):
        engine.member_join(aps[index * (len(aps) // 4)], f"bench-{index:03d}")
    start = time.perf_counter()
    report = engine.propagate()
    elapsed = time.perf_counter() - start
    return elapsed, {
        "build_seconds": build_seconds,
        "access_proxies": float(len(aps)),
        "rings": float(hierarchy.total_rings),
        "rounds": float(report.round_count),
        "hop_count": float(report.hop_count),
    }


@bench("large_scale_1m", FULL, repeats=1)
def _bench_large_scale_1m() -> Tuple[float, Dict[str, float]]:
    """1M-proxy (r=10, h=6) propagation; columnar backend since PR 6."""
    return _large_scale_bench(height=6)


@bench("large_scale_10m", FULL, repeats=1)
def _bench_large_scale_10m() -> Tuple[float, Dict[str, float]]:
    """10M-proxy (r=10, h=7) propagation — the first 10M-scale bench.

    Only feasible on the columnar backend (the object kernel's per-round
    object churn puts this past the ten-minute mark); runs in the nightly
    slow tier, never in PR CI.
    """
    return _large_scale_bench(height=7)


# ----------------------------------------------------------------------
# measurement, baseline comparison, reporting
# ----------------------------------------------------------------------


def run_one(name: str, repeats: int = 3, measure_rss: bool = True) -> BenchResult:
    """Run a single named bench in-process (best-of-``repeats``).

    ``build_seconds`` is lifted out of the bench's extras (best-of across
    repeats, like the primary metric).  ``peak_rss_mb`` is only meaningful
    when this process ran just this bench (the ``--run-one`` isolation
    worker); in-process multi-bench runs pass ``measure_rss=False`` and
    report 0, which the band check treats as "not measured".
    """
    for bench_name, bench_tier, pinned_repeats, fn in _REGISTRY:
        if bench_name != name:
            continue
        bench_repeats = pinned_repeats if pinned_repeats is not None else repeats
        best: Optional[float] = None
        best_build: Optional[float] = None
        extra: Dict[str, float] = {}
        for _attempt in range(bench_repeats):
            seconds, extra = fn()
            extra = dict(extra)
            build = extra.pop("build_seconds", 0.0)
            best = seconds if best is None or seconds < best else best
            best_build = build if best_build is None or build < best_build else best_build
        return BenchResult(
            name=name, tier=bench_tier, seconds=float(best), repeats=bench_repeats,
            build_seconds=float(best_build),
            peak_rss_mb=_peak_rss_mb() if measure_rss else 0.0,
            extra=extra,
        )
    raise KeyError(f"unknown bench {name!r} (have {bench_names()})")


def run_benches(
    tier: str,
    repeats: int = 3,
    progress: bool = True,
    isolate: bool = False,
    only: Optional[List[str]] = None,
) -> List[BenchResult]:
    """Run the selected tier(s); each bench reports its best-of-``repeats``
    (benches registered with a pinned repeat count keep it).

    ``isolate=True`` runs every bench in a fresh subprocess — heap growth
    and allocator fragmentation left behind by one bench measurably inflate
    the next (~10% on the 10k churn cell), and it is what makes
    ``peak_rss_mb`` a per-bench measurement — so the CLI isolates by
    default; the in-process path stays for the perf-regression smoke test,
    whose bands absorb the difference.

    ``only`` restricts the run to the named benches (any tier), so a single
    bench — e.g. ``large_scale_1m`` — can be re-measured or re-baselined
    without paying for the whole suite.
    """
    if only:
        known = set(bench_names())
        unknown = [n for n in only if n not in known]
        if unknown:
            raise KeyError(f"unknown bench(es) {unknown} (have {sorted(known)})")
    results: List[BenchResult] = []
    for name, bench_tier, _pinned, _fn in _REGISTRY:
        if only:
            if name not in only:
                continue
        elif tier != "all" and bench_tier != tier:
            continue
        if isolate:
            result = _run_isolated(name, repeats)
        else:
            result = run_one(name, repeats, measure_rss=False)
        results.append(result)
        if progress:
            print(
                f"{result.name:<24} [{result.tier:>5}] {result.seconds:9.3f}s  "
                f"build {result.build_seconds:7.3f}s  rss {result.peak_rss_mb:7.1f}MB  "
                f"(best of {result.repeats})",
                flush=True,
            )
    return results


def _run_isolated(name: str, repeats: int) -> BenchResult:
    """Run one bench in a fresh interpreter and parse its JSON result."""
    import subprocess

    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--run-one", name,
         "--repeat", str(repeats)],
        capture_output=True,
        text=True,
        check=True,
    )
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    return BenchResult(
        name=payload["name"],
        tier=payload["tier"],
        seconds=float(payload["seconds"]),
        repeats=int(payload["repeats"]),
        build_seconds=float(payload.get("build_seconds", 0.0)),
        peak_rss_mb=float(payload.get("peak_rss_mb", 0.0)),
        extra={k: float(v) for k, v in payload.get("extra", {}).items()},
    )


def load_baseline(path: Path = BASELINE_PATH) -> Dict[str, object]:
    if not path.exists():
        return {"benches": {}, "reference": {}}
    return json.loads(path.read_text())


def check_against_baseline(
    results: List[BenchResult], baseline: Dict[str, object]
) -> List[str]:
    """Violation strings for benches outside their tolerance bands (empty = ok).

    Three independent bands per bench, each optional in the baseline entry:
    ``seconds`` × ``tolerance``, ``build_seconds`` × ``build_tolerance`` and
    ``peak_rss_mb`` × ``rss_tolerance`` (memory needs the tightest band —
    RSS is far less machine-sensitive than wall time).
    """
    bands: Dict[str, Dict[str, float]] = baseline.get("benches", {})  # type: ignore[assignment]
    violations: List[str] = []
    for result in results:
        band = bands.get(result.name)
        if band is None:
            continue
        limit = float(band["seconds"]) * float(band.get("tolerance", 3.0))
        if result.seconds > limit:
            violations.append(
                f"{result.name}: {result.seconds:.3f}s exceeds band "
                f"{band['seconds']}s x {band.get('tolerance', 3.0)} = {limit:.3f}s"
            )
        build_band = band.get("build_seconds")
        if build_band is not None:
            # Absolute floor: millisecond-scale build phases are scheduler
            # noise, not signal — a multiplicative band on 7 ms flakes under
            # any load.  Only regressions past max(band, 50 ms) can trip.
            build_limit = max(
                float(build_band) * float(band.get("build_tolerance", 3.0)), 0.05
            )
            if result.build_seconds > build_limit:
                violations.append(
                    f"{result.name}: build {result.build_seconds:.3f}s exceeds band "
                    f"{build_band}s x {band.get('build_tolerance', 3.0)} = {build_limit:.3f}s"
                )
        rss_band = band.get("peak_rss_mb")
        if rss_band is not None and result.peak_rss_mb > 0:
            rss_limit = float(rss_band) * float(band.get("rss_tolerance", 1.5))
            if result.peak_rss_mb > rss_limit:
                violations.append(
                    f"{result.name}: peak RSS {result.peak_rss_mb:.1f}MB exceeds band "
                    f"{rss_band}MB x {band.get('rss_tolerance', 1.5)} = {rss_limit:.1f}MB"
                )
        # Acceptance floors on extras (e.g. the serving layer's 10x
        # speedup-vs-object bar): unlike the bands above these are absolute
        # minima, not re-pinned by --update-baseline.
        for extra_key, floor in band.get("extra_min", {}).items():
            measured = result.extra.get(extra_key)
            if measured is None:
                violations.append(
                    f"{result.name}: extra {extra_key!r} not reported "
                    f"(floor {floor} required)"
                )
            elif float(measured) < float(floor):
                violations.append(
                    f"{result.name}: {extra_key} {float(measured):.2f} below "
                    f"required floor {floor}"
                )
    return violations


def speedup_summary(
    results: List[BenchResult], baseline: Dict[str, object]
) -> Dict[str, float]:
    """Headline speedups vs the recorded pre-optimisation reference."""
    reference: Dict[str, float] = baseline.get("reference", {})  # type: ignore[assignment]
    summary: Dict[str, float] = {}
    seed_10k = reference.get("matrix_churn_10k_seed_seconds")
    object_1m = reference.get("large_scale_1m_object_seconds")
    for result in results:
        if result.name == "matrix_churn_10k" and seed_10k:
            summary["matrix_churn_10k_speedup_vs_seed"] = round(
                float(seed_10k) / result.seconds, 2
            )
        if result.name == "large_scale_1m" and object_1m:
            summary["large_scale_1m_speedup_vs_object"] = round(
                float(object_1m) / result.seconds, 2
            )
        if result.name == "serving_churn_100k":
            speedup = result.extra.get("speedup_vs_object")
            if speedup:
                summary["serving_100k_speedup_vs_object"] = round(float(speedup), 2)
    return summary


def write_report(
    results: List[BenchResult],
    baseline: Dict[str, object],
    violations: List[str],
    out_path: Path = OUTPUT_PATH,
) -> Dict[str, object]:
    """Write ``BENCH_perf.json``, merging over an existing report.

    Partial runs (``--tier small``, ``--only <bench>``) update just their own
    entries so the archived artifact keeps the latest measurement of every
    bench; ``violations``/``ok`` describe the benches of *this* run.
    """
    merged: Dict[str, object] = {}
    merged_speedups: Dict[str, float] = {}
    if out_path.exists():
        try:
            previous = json.loads(out_path.read_text())
            merged = dict(previous.get("results", {}))
            merged_speedups = dict(previous.get("speedups", {}))
        except (json.JSONDecodeError, AttributeError):
            merged, merged_speedups = {}, {}
    # Drop entries for benches that no longer exist, then merge this run.
    known = set(bench_names())
    merged = {name: entry for name, entry in merged.items() if name in known}
    merged.update({r.name: r.to_json() for r in results})
    merged_speedups.update(speedup_summary(results, baseline))
    payload: Dict[str, object] = {
        "benchmark": "named perf benches (see docs/PERF.md)",
        "environment": environment_block(),
        "results": merged,
        "speedups": merged_speedups,
        "baseline": {
            "path": str(BASELINE_PATH.name),
            "violations": violations,
            "ok": not violations,
        },
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def update_baseline(
    results: List[BenchResult],
    baseline: Dict[str, object],
    path: Path = BASELINE_PATH,
) -> None:
    """Re-pin the bands to the current measurements (tolerances preserved).

    Only the benches that actually ran are re-pinned (so ``--only <bench>
    --update-baseline`` touches one entry); build/memory bands are recorded
    whenever the bench reported them.
    """
    bands: Dict[str, Dict[str, object]] = dict(baseline.get("benches", {}))  # type: ignore[arg-type]
    for result in results:
        previous = bands.get(result.name, {})
        band: Dict[str, object] = {
            "seconds": round(result.seconds, 4),
            "tolerance": previous.get("tolerance", 3.0),
        }
        if result.build_seconds > 0:
            band["build_seconds"] = round(result.build_seconds, 4)
            band["build_tolerance"] = previous.get("build_tolerance", 3.0)
        elif "build_seconds" in previous:
            # This run had no build phase to measure; keep the recorded band
            # rather than silently deleting the protection.
            band["build_seconds"] = previous["build_seconds"]
            band["build_tolerance"] = previous.get("build_tolerance", 3.0)
        if result.peak_rss_mb > 0:
            band["peak_rss_mb"] = round(result.peak_rss_mb, 1)
            band["rss_tolerance"] = previous.get("rss_tolerance", 1.5)
        elif "peak_rss_mb" in previous:
            # peak_rss_mb=0 means "not measured" (in-process --no-isolate
            # run), not "no memory": preserve the existing memory band.
            band["peak_rss_mb"] = previous["peak_rss_mb"]
            band["rss_tolerance"] = previous.get("rss_tolerance", 1.5)
        if "extra_min" in previous:
            # Acceptance floors are absolute bars, not measurements — carry
            # them over untouched rather than re-pinning (or dropping) them.
            band["extra_min"] = previous["extra_min"]
        bands[result.name] = band
    baseline = dict(baseline)
    baseline["benches"] = bands
    # Record the environment the bands were (re-)pinned on; partial re-pins
    # overwrite it deliberately — the freshest pin defines the reference.
    baseline["environment"] = environment_block()
    path.write_text(json.dumps(baseline, indent=2) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tier", choices=[SMALL, FULL, "all"], default=SMALL)
    parser.add_argument("--repeat", type=int, default=3, help="best-of repetitions")
    parser.add_argument("--out", type=Path, default=OUTPUT_PATH)
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="re-pin perf_baseline.json bands to the current measurements",
    )
    parser.add_argument(
        "--no-isolate",
        action="store_true",
        help="run benches in-process instead of one fresh subprocess each",
    )
    parser.add_argument(
        "--run-one",
        metavar="NAME",
        default=None,
        help="run a single bench and print its JSON result (isolation worker)",
    )
    parser.add_argument(
        "--only",
        metavar="NAME",
        action="append",
        default=None,
        help="run only the named bench (repeatable; overrides --tier), e.g. "
        "--only large_scale_1m --update-baseline to re-pin one band",
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")

    if args.run_one:
        result = run_one(args.run_one, repeats=args.repeat)
        print(json.dumps(dict(result.to_json(), name=result.name)))
        return 0

    baseline = load_baseline()
    results = run_benches(
        args.tier, repeats=args.repeat, isolate=not args.no_isolate, only=args.only
    )
    violations = check_against_baseline(results, baseline)
    payload = write_report(results, baseline, violations, out_path=args.out)
    print(f"wrote {args.out}")
    for name, value in payload.get("speedups", {}).items():  # type: ignore[union-attr]
        print(f"{name}: {value}x")
    if args.update_baseline:
        update_baseline(results, baseline)
        print(f"updated {BASELINE_PATH}")
        return 0
    if violations:
        print("PERF REGRESSION:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
