#!/usr/bin/env python
"""Kernel performance trajectory: one-round propagation throughput.

Measures the ops/s of full One-Round Token Passing propagations on the
paper's regular hierarchies at r=8 for h in {3, 4, 5} (n = 512 / 4096 /
32768 access proxies) on both the batched-delta and the seed per-operation
apply paths, and writes the results to ``BENCH_kernel.json`` next to this
script so future PRs can track the perf trajectory.

With ``--matrix``, sweeps the event-driven scenario matrix instead
(:mod:`repro.workloads.matrix`) and records per-cell throughput in
``BENCH_matrix.json``.

With ``--ablation``, replays the same seeded workloads through every
membership protocol behind the :class:`repro.baselines.driver` seam (RGB,
flat ring, gossip, tree) and archives the head-to-head per-change costs —
hops, on-the-wire messages, convergence rounds, wall time — in
``BENCH_ablation.json``, alongside the paper's closed-form HCN values.

With ``--serving``, runs the queries-under-churn serving benchmark: the
same seeded churn cell served once by the batched epoch-consistent
front-end (:mod:`repro.serving`) and once by the per-query object path,
archiving per-scheme qps / p50 / p99 and the snapshot cache counters in
``BENCH_serving.json``.

With ``--perf``, runs the named perf-bench tier (``benchmarks/perf.py``)
through this entry point, including bench-name filtering (``--only``) and
baseline re-pinning (``--update-baseline``) — so a single bench can be
re-measured or re-baselined without the full suite.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--joins N] [--out PATH]
    PYTHONPATH=src python benchmarks/run_bench.py --matrix [--matrix-sizes 1000 10000]
    PYTHONPATH=src python benchmarks/run_bench.py --matrix --family flash_crowd
    PYTHONPATH=src python benchmarks/run_bench.py --ablation [--ablation-sizes 1000 10000]
    PYTHONPATH=src python benchmarks/run_bench.py --ablation \\
        --ablation-scenarios churn correlated_failure --ablation-sizes 64
    PYTHONPATH=src python benchmarks/run_bench.py --serving [--serving-sizes 1000 10000]
    PYTHONPATH=src python benchmarks/run_bench.py --perf --perf-tier small
    PYTHONPATH=src python benchmarks/run_bench.py --perf --only large_scale_1m --update-baseline
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.core.config import ProtocolConfig
from repro.core.hierarchy import HierarchyBuilder
from repro.core.one_round import OneRoundEngine

RING_SIZE = 8
HEIGHTS = (3, 4, 5)


def measure_configuration(height: int, joins: int, batched: bool) -> dict:
    """Propagate a ``joins``-sized burst on the r=8, h=``height`` hierarchy."""
    config = ProtocolConfig(batched_apply=batched)
    build_start = time.perf_counter()
    hierarchy = HierarchyBuilder("bench").regular(ring_size=RING_SIZE, height=height)
    engine = OneRoundEngine(hierarchy, config=config)
    build_seconds = time.perf_counter() - build_start
    aps = hierarchy.access_proxies()
    stride = max(1, len(aps) // joins)
    for index in range(joins):
        engine.member_join(aps[(index * stride) % len(aps)], f"bench-{index:06d}")
    start = time.perf_counter()
    report = engine.propagate()
    elapsed = time.perf_counter() - start
    return {
        "ring_size": RING_SIZE,
        "height": height,
        "access_proxies": len(aps),
        "rings": hierarchy.total_rings,
        "batched_apply": batched,
        "joins": joins,
        "build_seconds": round(build_seconds, 4),
        "propagate_seconds": round(elapsed, 4),
        "ops_per_second": round(joins / elapsed, 2) if elapsed > 0 else None,
        "rounds": report.round_count,
        "hop_count": report.hop_count,
        "hops_per_second": round(report.hop_count / elapsed, 1) if elapsed > 0 else None,
    }


def run_matrix(sizes, events, out_path: Path, jobs: int = 1, scenarios=None) -> None:
    """Sweep the event-driven scenario matrix and archive cell throughput."""
    from repro.analysis.tables import render_matrix
    from repro.workloads.matrix import LOSS_RATES, SCENARIOS, ScenarioMatrix
    from repro.workloads.parallel import run_matrix as run_matrix_parallel
    from repro.workloads.spec import get_family

    scenarios = tuple(scenarios) if scenarios else tuple(SCENARIOS)
    for name in scenarios:
        get_family(name)  # fail fast, listing the registered families
    matrix = ScenarioMatrix(sizes=tuple(sizes), events_per_cell=events, scenarios=scenarios)
    report = run_matrix_parallel(matrix, jobs=jobs, progress=True)
    report.raise_if_failed()
    results = report.results
    print()
    print(render_matrix([r.record for r in results]))
    payload = {
        "benchmark": "scenario-matrix throughput (event-driven harness)",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scenarios": list(scenarios),
        "loss_rates": list(LOSS_RATES),
        "sizes": list(sizes),
        "events_per_cell": events,
        "jobs": jobs,
        "cells": [
            dict(
                r.record.to_json(),
                wall_seconds=round(r.wall_seconds, 4),
                dispatched_events=r.dispatched_events,
                events_per_second=round(r.events_per_second, 1),
                converged=r.converged,
                ring_agreement=r.ring_agreement,
            )
            for r in results
        ],
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")


def run_serving(sizes, events, out_path: Path) -> None:
    """Queries-under-churn: batched serving vs the per-query object path.

    For every size, runs the seeded churn cell twice — served by the
    batched columnar front-end and by the per-query object reference — and
    archives per-scheme qps / p50 / p99 plus the snapshot cache counters in
    ``BENCH_serving.json``.  The object pass issues fewer queries (qps is
    computed from per-query latencies, so counts don't skew it); sizes at
    and above 10k keep the per-query BMS fan-out affordable that way.
    """
    from repro.analysis.tables import render_serving
    from repro.workloads.query_load import QueryLoadConfig, run_serving_cell

    rows = []
    for size in sizes:
        for mode, backend, load in (
            (
                "batched",
                "columnar",
                QueryLoadConfig(mode="batched", batch_size=24, batches=8, interval=2.0),
            ),
            (
                "object",
                "object",
                QueryLoadConfig(mode="object", batch_size=6, batches=2, interval=2.0),
            ),
        ):
            result = run_serving_cell(
                num_proxies=size, mode=mode, backend=backend, events=events, config=load
            )
            rows.append(result)
            print(
                f"n={size:>7} [{mode:>7}]: {result['overall_qps']:10.1f} qps over "
                f"{result['total_queries']} queries",
                flush=True,
            )
    print()
    print(render_serving(rows))
    pairs = {}
    for row in rows:
        pairs.setdefault(row["num_proxies"], {})[row["mode"]] = row["overall_qps"]
    speedups = {
        str(size): round(modes["batched"] / modes["object"], 2)
        for size, modes in sorted(pairs.items())
        if modes.get("object") and "batched" in modes
    }
    for size, speedup in speedups.items():
        print(f"n={size}: batched serving {speedup}x object path")
    payload = {
        "benchmark": "membership queries under churn (serving layer vs object path)",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "sizes": list(sizes),
        "events_per_cell": events,
        "speedup_batched_vs_object": speedups,
        "cells": rows,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")


def run_ablation(sizes, losses, scenarios, events, out_path: Path, jobs: int = 1) -> None:
    """Drive every protocol through the same workloads; archive the costs."""
    from repro.analysis.scalability import hcn_ring, hcn_tree
    from repro.analysis.tables import render_ablation, render_family_head_to_head
    from repro.baselines.driver import (
        PROTOCOL_NAMES,
        ring_shape_for_proxies,
        tree_shape_for_leaves,
    )
    from repro.workloads.matrix import AblationSweep
    from repro.workloads.parallel import run_ablation as run_ablation_parallel

    sweep = AblationSweep(
        sizes=tuple(sizes), losses=tuple(losses), scenarios=tuple(scenarios),
        events_per_cell=events,
    )
    report = run_ablation_parallel(sweep, jobs=jobs, progress=True)
    report.raise_if_failed()
    results = report.results
    print()
    print(render_ablation([r.record for r in results]))
    print()
    print(render_family_head_to_head([r.record for r in results]))

    closed_form = []
    for n in sizes:
        r, h = ring_shape_for_proxies(n)
        branching, tree_h = tree_shape_for_leaves(n)
        closed_form.append(
            {
                "n": n,
                "hcn_ring": hcn_ring(h, r),
                "hcn_tree": hcn_tree(tree_h, branching),
                "hcn_flat": n,
            }
        )
    payload = {
        "benchmark": "protocol ablation (same workload through every membership driver)",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "protocols": list(PROTOCOL_NAMES),
        "sizes": list(sizes),
        "loss_rates": list(losses),
        "scenarios": list(scenarios),
        "events_per_cell": events,
        "jobs": jobs,
        "closed_form_hcn": closed_form,
        "cells": [
            dict(
                r.record.to_json(),
                wall_seconds=round(r.wall_seconds, 4),
                converged=r.converged,
            )
            for r in results
        ],
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--joins", type=int, default=32, help="joins per measured burst")
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent / "BENCH_kernel.json",
        help="output JSON path",
    )
    parser.add_argument(
        "--matrix",
        action="store_true",
        help="run the scenario matrix sweep instead of the kernel benchmark",
    )
    parser.add_argument(
        "--matrix-sizes",
        type=int,
        nargs="+",
        default=[1_000],
        help="proxy counts for the matrix sweep (1000 / 10000 / 100000)",
    )
    parser.add_argument(
        "--matrix-events", type=int, default=24, help="workload events per matrix cell"
    )
    parser.add_argument(
        "--matrix-out",
        type=Path,
        default=Path(__file__).resolve().parent / "BENCH_matrix.json",
        help="matrix output JSON path",
    )
    parser.add_argument(
        "--family",
        nargs="+",
        default=None,
        metavar="NAME",
        help="with --matrix: restrict the sweep to these scenario families "
        "(any of `python -m repro.workloads.spec --list`)",
    )
    parser.add_argument(
        "--ablation",
        action="store_true",
        help="run the head-to-head protocol ablation instead of the kernel benchmark",
    )
    parser.add_argument(
        "--ablation-sizes",
        type=int,
        nargs="+",
        default=[1_000, 10_000],
        help="proxy counts for the ablation sweep",
    )
    parser.add_argument(
        "--ablation-losses",
        type=float,
        nargs="+",
        default=[0.0, 0.01],
        help="per-link loss rates for the ablation sweep",
    )
    parser.add_argument(
        "--ablation-scenarios",
        nargs="+",
        default=["churn"],
        help="scenarios for the ablation sweep",
    )
    parser.add_argument(
        "--ablation-events", type=int, default=24, help="workload events per ablation cell"
    )
    parser.add_argument(
        "--ablation-out",
        type=Path,
        default=Path(__file__).resolve().parent / "BENCH_ablation.json",
        help="ablation output JSON path",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for --matrix/--ablation sweeps "
        "(cell results are bit-identical to --jobs 1)",
    )
    parser.add_argument(
        "--serving",
        action="store_true",
        help="run the queries-under-churn serving benchmark (batched "
        "front-end vs per-query object path) instead of the kernel benchmark",
    )
    parser.add_argument(
        "--serving-sizes",
        type=int,
        nargs="+",
        default=[1_000],
        help="proxy counts for the serving benchmark (1000 / 10000 / 100000)",
    )
    parser.add_argument(
        "--serving-events",
        type=int,
        default=24,
        help="churn events interleaved with query batches per serving cell",
    )
    parser.add_argument(
        "--serving-out",
        type=Path,
        default=Path(__file__).resolve().parent / "BENCH_serving.json",
        help="serving output JSON path",
    )
    parser.add_argument(
        "--perf",
        action="store_true",
        help="run the named perf-bench tier (benchmarks/perf.py) instead of "
        "the kernel benchmark",
    )
    parser.add_argument(
        "--perf-tier",
        choices=["small", "full", "all"],
        default="small",
        help="perf tier for --perf",
    )
    parser.add_argument(
        "--only",
        metavar="NAME",
        action="append",
        default=None,
        help="with --perf: run only the named bench (repeatable, overrides "
        "--perf-tier)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="with --perf: re-pin perf_baseline.json bands to the benches "
        "that ran (works together with --only — no full-suite run needed)",
    )
    args = parser.parse_args(argv)
    if args.joins < 1:
        parser.error(f"--joins must be >= 1, got {args.joins}")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if (args.only or args.update_baseline) and not args.perf:
        parser.error("--only/--update-baseline require --perf")
    if args.family and not args.matrix:
        parser.error("--family requires --matrix")
    if args.perf and (args.matrix or args.ablation or args.serving):
        parser.error("--perf cannot be combined with --matrix/--ablation/--serving")
    if args.serving and (args.matrix or args.ablation):
        parser.error("--serving cannot be combined with --matrix/--ablation")

    if args.perf:
        # Delegate to benchmarks/perf.py in-process (same directory).
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import perf

        perf_argv = ["--tier", args.perf_tier]
        for name in args.only or ():
            perf_argv += ["--only", name]
        if args.update_baseline:
            perf_argv.append("--update-baseline")
        return perf.main(perf_argv)

    if args.serving:
        run_serving(args.serving_sizes, args.serving_events, args.serving_out)
        return 0

    if args.matrix:
        run_matrix(
            args.matrix_sizes,
            args.matrix_events,
            args.matrix_out,
            jobs=args.jobs,
            scenarios=args.family,
        )
        return 0

    if args.ablation:
        run_ablation(
            args.ablation_sizes,
            args.ablation_losses,
            args.ablation_scenarios,
            args.ablation_events,
            args.ablation_out,
            jobs=args.jobs,
        )
        return 0

    results = []
    for height in HEIGHTS:
        for batched in (True, False):
            row = measure_configuration(height, args.joins, batched)
            results.append(row)
            mode = "batched" if batched else "per-op"
            print(
                f"r={RING_SIZE} h={height} n={row['access_proxies']:>6} [{mode:>7}]: "
                f"{row['propagate_seconds']:.3f}s, {row['ops_per_second']} ops/s, "
                f"{row['rounds']} rounds"
            )

    payload = {
        "benchmark": "one-round propagation throughput (Table I hierarchies, r=8)",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
