"""Closed-loop query load interleaved with churn.

The serving benchmark's traffic source: query batches are scheduled on the
harness's event wheel *between* the churn workload's joins/leaves/failures,
so reads and writes contend on one simulated timeline — every batch may
land mid-round-sequence and the snapshot layer has to prove its frames are
still coherent.  Closed-loop: the next batch is scheduled only after the
current one drains, so the generator measures sustainable throughput rather
than queueing itself to death.

Two modes share the harness wiring and the measurement path:

``batched``
    The serving front-end — batched submit/drain over epoch-consistent
    snapshot frames with columnar fan-out routing.
``object``
    The pinned reference — one :class:`MembershipQueryService` call per
    query, re-merging leader views every time.  This is what the serving
    layer's speedup is measured against.

Per-query wall-clock latencies are recorded per scheme (the first query
after an invalidation pays the frame capture — tail latencies are honest)
and summarised as qps / p50 / p99 plus the frontend's snapshot counters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.query import MembershipQueryService, MembershipScheme

__all__ = ["QueryLoadConfig", "QueryLoadGenerator", "run_query_load"]

_SCHEMES = {scheme.name: scheme for scheme in MembershipScheme}


@dataclass(frozen=True)
class QueryLoadConfig:
    """Shape of the interleaved query load."""

    batch_size: int = 24
    batches: int = 8
    interval: float = 2.0
    start: float = 1.0
    schemes: Tuple[str, ...] = ("TMS", "BMS", "IMS")
    mode: str = "batched"  # "batched" (serving frontend) | "object" (reference)
    intermediate_tier: Optional[int] = None
    seed: int = 0

    def scheme_cycle(self) -> List[MembershipScheme]:
        return [_SCHEMES[name] for name in self.schemes]


def _percentile_ms(sorted_seconds: List[float], pct: float) -> float:
    """Nearest-rank percentile, reported in milliseconds."""
    if not sorted_seconds:
        return 0.0
    rank = max(1, -(-int(pct * len(sorted_seconds)) // 100))
    return sorted_seconds[min(rank, len(sorted_seconds)) - 1] * 1e3


class QueryLoadGenerator:
    """Schedules query batches through the harness's interleave seam."""

    def __init__(self, harness, config: Optional[QueryLoadConfig] = None) -> None:
        self.harness = harness
        self.config = config if config is not None else QueryLoadConfig()
        cfg = self.config
        if cfg.mode not in ("batched", "object"):
            raise ValueError(f"unknown query load mode: {cfg.mode!r}")
        rng = random.Random(cfg.seed)
        aps = harness.hierarchy.access_proxies()
        self.entry_point = aps[rng.randrange(len(aps))]
        self.frontend = None
        self.service: Optional[MembershipQueryService] = None
        if cfg.mode == "batched":
            self.frontend = harness.serving_frontend(intermediate_tier=cfg.intermediate_tier)
        else:
            self.service = MembershipQueryService(harness.kernel, entry_point=self.entry_point)
        self._cycle = cfg.scheme_cycle()
        self._batches_fired = 0
        self.latencies: Dict[str, List[float]] = {name: [] for name in cfg.schemes}
        self.member_counts: Dict[str, List[int]] = {name: [] for name in cfg.schemes}

    # -- scheduling ---------------------------------------------------------

    def install(self) -> None:
        """Put the first batch on the event wheel."""
        self.harness.schedule_call(self.config.start, self._fire_batch, label="query-batch")

    def _fire_batch(self) -> None:
        cfg = self.config
        cycle = self._cycle
        plan = [cycle[i % len(cycle)] for i in range(cfg.batch_size)]
        if self.frontend is not None:
            for scheme in plan:
                self.frontend.submit(scheme, self.entry_point)
            timings: List[float] = []
            results = self.frontend.drain(timings=timings)
            for scheme, result, seconds in zip(plan, results, timings):
                self.latencies[scheme.name].append(seconds)
                self.member_counts[scheme.name].append(result.member_count)
        else:
            service = self.service
            for scheme in plan:
                started = perf_counter()
                result = service.query(scheme, intermediate_tier=cfg.intermediate_tier)
                self.latencies[scheme.name].append(perf_counter() - started)
                self.member_counts[scheme.name].append(result.member_count)
        self._batches_fired += 1
        if self._batches_fired < cfg.batches:
            self.harness.schedule_call(
                self.harness.engine.now + cfg.interval, self._fire_batch, label="query-batch"
            )

    # -- results ------------------------------------------------------------

    def results(self) -> Dict[str, object]:
        """Per-scheme qps / p50 / p99 / view sizes plus serving counters."""
        per_scheme: Dict[str, Dict[str, float]] = {}
        total_queries = 0
        total_seconds = 0.0
        for name in self.config.schemes:
            lats = sorted(self.latencies[name])
            counts = self.member_counts[name]
            seconds = sum(lats)
            total_queries += len(lats)
            total_seconds += seconds
            per_scheme[name] = {
                "queries": len(lats),
                "qps": (len(lats) / seconds) if seconds else 0.0,
                "p50_ms": _percentile_ms(lats, 50),
                "p99_ms": _percentile_ms(lats, 99),
                "mean_members": (sum(counts) / len(counts)) if counts else 0.0,
            }
        out: Dict[str, object] = {
            "mode": self.config.mode,
            "batches": self._batches_fired,
            "total_queries": total_queries,
            "total_query_seconds": total_seconds,
            "overall_qps": (total_queries / total_seconds) if total_seconds else 0.0,
            "schemes": per_scheme,
        }
        if self.frontend is not None:
            out["snapshots"] = self.frontend.stats()
        return out


def run_query_load(harness, config: Optional[QueryLoadConfig] = None) -> Dict[str, object]:
    """Install the generator, run the harness to completion, return results."""
    generator = QueryLoadGenerator(harness, config)
    generator.install()
    harness.run()
    return generator.results()


def run_serving_cell(
    num_proxies: int,
    mode: str = "batched",
    backend: str = "columnar",
    events: int = 24,
    seed: int = 0,
    config: Optional[QueryLoadConfig] = None,
) -> Dict[str, object]:
    """One serving measurement: a churn matrix cell with interleaved queries.

    Builds the standard churn cell for ``num_proxies`` (same shapes and
    seeded workload as ``run_matrix_cell``), installs the query load in the
    requested ``mode`` and runs the whole thing to quiescence.  Returns the
    load generator's results plus cell provenance and harness build time —
    the shared cell runner behind ``benchmarks/perf.py``'s serving benches
    and ``run_bench.py --serving``.
    """
    from time import perf_counter

    from repro.workloads.matrix import MatrixCell, _build_harness, _gc_paused
    from repro.workloads.spec import schedule_script

    cell = MatrixCell(
        scenario="churn", num_proxies=num_proxies, loss=0.0, seed=seed, backend=backend
    )
    load = config if config is not None else QueryLoadConfig(mode=mode)
    if load.mode != mode:
        load = replace(load, mode=mode)
    with _gc_paused():
        build_start = perf_counter()
        harness = _build_harness(cell)
        schedule_script(harness, cell.script(events))
        build_seconds = perf_counter() - build_start
        result = run_query_load(harness, load)
    result["num_proxies"] = num_proxies
    result["backend"] = backend
    result["events"] = events
    result["build_seconds"] = build_seconds
    return result
