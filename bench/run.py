#!/usr/bin/env python3
"""The benchmark of record: one command, five workloads, every metric by name.

Three ways in:

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One measurement in this process (the shape ``BENCHMARK.json`` declares):
    iterations of the workload are repeated for ``S`` seconds, outputs are
    checked against the generator's oracle, and the last line printed is one
    JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
    end-to-end metrics with ``--trace 0``, the per-layer metrics with
    ``--trace 1``.

``python3 bench/run.py [--workload NAME] [--repeats N] [--seed S] [--trace]``
    Every workload (or one), each repeat in a fresh subprocess, one at a
    time; prints the median and min-max spread of every metric and writes
    ``bench/out/results.json``.

``python3 bench/run.py --compare A.json B.json``
    Two result files side by side, one row per workload and metric, with the
    verdict a perf change is judged by.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

from schema import END_TO_END, PER_LAYER  # noqa: E402  (bench/ is sys.path[0])
from workloads import WORKLOADS, substream  # noqa: E402


def _load_program() -> None:
    """Put this checkout's ``src/`` first on the path and refuse any other
    copy of ``repro`` — the benchmark measures the tree it sits in."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ModuleNotFoundError as exc:
        raise SystemExit(f"bench: the program is not in this checkout ({exc}); expected {src}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: repro was imported from {repro.__file__}, not {src}")


def _contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the serving bench's definition)."""
    rank = max(1, math.ceil(pct * len(sorted_values) / 100.0))
    return sorted_values[min(rank, len(sorted_values)) - 1]


# ----------------------------------------------------------------------
# one measurement, in this process
# ----------------------------------------------------------------------


def _iteration_metrics(iteration) -> Dict[str, float]:
    """One iteration's own value of each time-like end-to-end metric (printed
    per iteration so a reader sees what the box added to a run)."""
    latencies = iteration.reads.latencies
    bms = sorted(latencies["BMS"])
    seconds = [s for samples in latencies.values() for s in samples]
    return {
        "setup_s": iteration.setup_s,
        "changes_per_s": iteration.changes / iteration.write_wall,
        "cpu_ms_per_change": 1e3 * iteration.write_cpu / iteration.changes,
        "query_qps": len(seconds) / sum(seconds),
        "bms_p50_ms": 1e3 * percentile(bms, 50),
        "bms_p99_ms": 1e3 * percentile(bms, 99),
    }


def _end_to_end(iterations, per_iteration, peak_rss_mb: float) -> Dict[str, float]:
    """Times are the median over the run's iterations; latencies are
    percentiles over the samples of all iterations pooled."""
    latencies = [it.reads.latencies for it in iterations]
    bms = sorted(s for lat in latencies for s in lat["BMS"])
    seconds = [s for lat in latencies for samples in lat.values() for s in samples]
    out = {
        name: statistics.median(values[name] for values in per_iteration)
        for name in ("setup_s", "changes_per_s", "cpu_ms_per_change")
    }
    out["query_qps"] = len(seconds) / sum(seconds)
    out["bms_p50_ms"] = 1e3 * percentile(bms, 50)
    out["bms_p99_ms"] = 1e3 * percentile(bms, 99)
    out["peak_rss_mb"] = peak_rss_mb
    return out


def _per_layer(iterations, traced, tracer, totals, probe_values, overhead) -> Dict[str, float]:
    """Counts come from iteration 0 (the seed's first script, so they repeat
    exactly); times from the traced iterations and the probes; a layer the
    workload bypasses reads 0."""
    out = {metric.name: 0.0 for metric in PER_LAYER}
    out.update(iterations[0].layer)
    n = len(traced)

    def inclusive_per_call(name: str, scale: float) -> float:
        calls, seconds, _own = totals.get(name, (0, 0.0, 0.0))
        return scale * seconds / calls if calls else 0.0

    def own(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    events = sum(it.layer.get("sim.engine.events", 0) for it in traced)
    if events:
        out["sim.engine.self_us_per_event"] = 1e6 * own("sim.engine.run") / events
    out["sim.transport.us_per_send"] = inclusive_per_call("sim.transport.send", 1e6)
    out["sim.harness.self_s"] = (own("sim.harness.round") + own("sim.harness.on_message")) / n
    if "core.hierarchy.build_s" not in iterations[0].layer:
        out["core.hierarchy.build_s"] = inclusive_per_call("core.hierarchy.build", 1.0)
    round_calls, round_seconds = tracer.rounds()
    if round_calls:
        out["core.kernel.us_per_round"] = 1e6 * round_seconds / round_calls
    out["core.kernel.us_per_repair"] = inclusive_per_call("core.kernel.repair_ring", 1e6)
    out["core.columnar.store_build_s"] = inclusive_per_call("core.columnar.store_build", 1.0)
    warm_queries = sum(it.reads.warm_queries for it in iterations)
    if warm_queries:
        out["serving.frontend.hit_us_per_query"] = (
            1e6 * sum(it.reads.warm_seconds for it in iterations) / warm_queries
        )
    for scheme, name in (("TMS", "tms_p50_ms"), ("IMS", "ims_p50_ms")):
        samples = sorted(s for it in iterations for s in it.reads.latencies[scheme])
        out[f"serving.frontend.{name}"] = 1e3 * percentile(samples, 50)
    out.update(probe_values)
    out["trace.overhead_share"] = overhead
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool, corrupt: bool) -> dict:
    """Repeat iterations of one workload for ``seconds`` and summarise them."""
    _load_program()
    from execute import run_iteration
    from probes import run_probes
    from tracing import Tracer, install

    spec = WORKLOADS[name]
    rng = substream(seed, name)
    workdir = os.path.join(OUT_DIR, f"live-{os.getpid()}")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer()
    iterations, per_iteration, walls = [], [], []
    # A traced run keeps a share of its time for the probes, runs iteration 0
    # untraced (the base of trace.overhead_share) and at least one traced.
    budget = seconds * (0.75 if trace else 1.0)
    started = perf_counter()
    try:
        while True:
            index = len(iterations)
            if trace and index == 1:
                install(tracer)
            tracer.trace_id = f"iteration-{index}"
            if iterations:
                # Free the previous system first: two 100k harnesses alive at
                # once double the RSS and slow the next build.  Only the last
                # one is kept, for the probes.
                iterations[-1].system = None
            iteration_start = perf_counter()
            iteration = run_iteration(
                spec,
                spec.inputs(rng, smoke),
                seed,
                workdir,
                tracer=tracer if trace and index >= 1 else None,
                corrupt_oracle=corrupt,
            )
            walls.append(perf_counter() - iteration_start)
            iterations.append(iteration)
            per_iteration.append(_iteration_metrics(iteration))
            print(
                f"# iteration {index}: "
                + ", ".join(f"{key} {value:.6g}" for key, value in per_iteration[-1].items())
                + f", failed {iteration.failed}"
                + "".join(f"; {note}" for note in iteration.notes)
            )
            enough = len(iterations) >= (2 if trace else 1)
            if enough and perf_counter() - started + 0.5 * walls[-1] >= budget:
                break
    finally:
        tracer.uninstall()

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = max(usage, children) / 1024.0
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    if trace:
        traced = iterations[1:]
        overhead = statistics.median(walls[1:]) / walls[0] - 1.0
        probe_values = run_probes(spec.probes, iterations[-1].system)
        totals = tracer.totals()
        metrics = _per_layer(iterations, traced, tracer, totals, probe_values, overhead)
        declared = PER_LAYER
        trace_path = os.path.join(OUT_DIR, f"trace-{name}.json")
        tracer.dump(trace_path, name, totals)
        print(f"# {len(tracer.names)} spans over {len(traced)} traced iterations -> {trace_path}")
    else:
        metrics = _end_to_end(iterations, per_iteration, peak_rss_mb)
        declared = END_TO_END
    print(
        f"# {name}: seed {seed}, {len(iterations)} iterations in "
        f"{perf_counter() - started:.1f} s, ops attempted {attempted}, failed {failed}, "
        f"failed_share {failed / attempted:.6f}"
    )
    for metric in declared:
        print(f"{metric.name:<40} {metrics[metric.name]:>16.6g} {metric.unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric.name: {"value": metrics[metric.name], "unit": metric.unit}
            for metric in declared
        },
    }


# ----------------------------------------------------------------------
# every workload, each repeat in a fresh subprocess
# ----------------------------------------------------------------------


def _machine() -> Dict[str, object]:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def _run_child(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    command = [
        sys.executable, os.path.join(BENCH_DIR, "run.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            f"bench: {name} printed no result (exit {done.returncode})\n{done.stderr[-2000:]}"
        )
    record = json.loads(lines[-1])
    record["exit_code"] = done.returncode
    return record


def _summarise(runs: List[dict]) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "runs": values,
        }
    return out


def _print_summary(title: str, summary: Dict[str, dict]) -> None:
    print(f"  {title}")
    for name, entry in summary.items():
        runs = entry["runs"]
        spread = f"n={len(runs)} min {min(runs):.6g} max {max(runs):.6g}"
        print(f"    {name:<40} {entry['median']:>14.6g} {entry['unit']:<6} {spread}")


def run_all(args) -> int:
    contract = _contract()
    seconds = 2 if args.smoke else contract["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {
        "seed": args.seed,
        "run_seconds": seconds,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "machine": _machine(),
        "workloads": {},
    }
    status = 0
    for name in names:
        runs = [_run_child(name, args.seed, seconds, False, args.smoke) for _ in range(args.repeats)]
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        entry = {
            "why": WORKLOADS[name].why,
            "correct": all(run["correct"] and run["exit_code"] == 0 for run in runs),
            "ops_attempted": attempted,
            "ops_failed": failed,
            "failed_share": failed / attempted,
            "end_to_end": _summarise(runs),
        }
        print(f"{name}: ops attempted {attempted}, failed {failed}, "
              f"failed_share {entry['failed_share']:.6f}")
        _print_summary("end to end (tracing off)", entry["end_to_end"])
        if args.trace:
            traced = _run_child(name, args.seed, seconds, True, args.smoke)
            entry["per_layer"] = _summarise([traced])
            entry["correct"] = entry["correct"] and traced["correct"]
            _print_summary("per layer (traced pass)", entry["per_layer"])
        if not entry["correct"]:
            status = 1
            print(f"  FAILED: {name} did not converge to its oracle")
        results["workloads"][name] = entry
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = args.out or os.path.join(OUT_DIR, "results.json")
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"results written to {out_path}")
    return status


# ----------------------------------------------------------------------
# compare two result files
# ----------------------------------------------------------------------


def _verdict(base: List[float], new: List[float], better: str, bound: float):
    """(verdict, spread): spread is the wider side's (max - min) / median."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    worse_by = sign * (new_median - base_median) / base_median
    spread = max(
        (max(runs) - min(runs)) / statistics.median(runs) for runs in (base, new)
    )
    if spread > bound:
        clean_win = (
            max(new) < min(base) if better == "lower" else min(new) > max(base)
        )
        if not clean_win:
            return "unresolved", spread
    return ("regression" if worse_by > bound else "within bound"), spread


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    bounds = {metric.name: metric for metric in END_TO_END}
    status = 0
    print(f"base A = {path_a}\nnew  B = {path_b}")
    header = f"{'workload':<20} {'metric':<20} {'A median':>12} {'B median':>12} {'B/A':>7} {'spread':>7} {'bound':>6}  verdict"
    print(header)
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric, stats_a in entry_a["end_to_end"].items():
            stats_b = entry_b["end_to_end"][metric]
            declared = bounds[metric]
            runs_a, runs_b = stats_a["runs"], stats_b["runs"]
            verdict, spread = _verdict(runs_a, runs_b, declared.better, declared.bound)
            if verdict == "regression":
                status = 1
            print(
                f"{name:<20} {metric:<20} {stats_a['median']:>12.5g} {stats_b['median']:>12.5g} "
                f"{stats_b['median'] / stats_a['median']:>7.3f} {spread:>7.1%} "
                f"{declared.bound:>6.0%}  {verdict}"
            )
        if entry_b["ops_failed"] > entry_a["ops_failed"]:
            status = 1
            print(f"{name:<20} failed ops rose from {entry_a['ops_failed']} to {entry_b['ops_failed']}")
    print("ratios are B/A with A as base; spread is (max-min)/median of the wider side")
    return status


# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure one workload in this process for this long")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true", help="small shapes, for bench/test_bench.py")
    parser.add_argument("--out", default=None, help="result file (default bench/out/results.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="self-test: add a ghost member to the oracle; the run must fail")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds measures one workload in this process: name it with --workload")
        record = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
            args.corrupt_oracle,
        )
        print(json.dumps(record))
        return 0 if record["correct"] else 1
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
