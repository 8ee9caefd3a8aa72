"""Every metric the benchmark declares: name, unit, direction and bound.

``BENCHMARK.json`` at the repo root lists the same names (``test_bench.py``
checks the two agree); this module adds what the contract file has no field
for — the definition of each end-to-end metric and, for each layer metric,
the end-to-end metric it should move and on which workload.
"""

from __future__ import annotations

from typing import List, NamedTuple

__all__ = ["END_TO_END", "PER_LAYER", "EndToEnd", "LayerMetric"]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str


END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "median over the run's iterations of construction before the first scripted event: "
        "hierarchy, harness or engine, serving frontend, script scheduling "
        "(live: LiveScenarioRunner + build_configs)",
    ),
    EndToEnd(
        "changes_per_s", "1/s", "higher", 0.25,
        "scripted membership changes / wall seconds of the run phase to quiescence, reader "
        "time subtracted; median over iterations",
    ),
    EndToEnd(
        "cpu_ms_per_change", "ms", "lower", 0.25,
        "user+sys CPU of the benchmark process and every shard process over the run phase "
        "(reader CPU subtracted) / scripted changes; median over iterations",
    ),
    EndToEnd(
        "query_qps", "1/s", "higher", 0.25,
        "queries answered / sum of per-query seconds, one closed-loop client, all iterations pooled",
    ),
    EndToEnd(
        "bms_p50_ms", "ms", "lower", 0.25,
        "median BMS answer time, all iterations pooled: the frame-hit cost at the widest fan-out",
    ),
    EndToEnd(
        "bms_p99_ms", "ms", "lower", 0.25,
        "99th percentile BMS answer time (nearest rank), all iterations pooled: the revalidate "
        "or capture cost after a commit",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10,
        "ru_maxrss of the benchmark process, or of its largest shard process if that is larger",
    ),
]


def _layer(prefix: str, *metrics: tuple) -> List[LayerMetric]:
    return [LayerMetric(f"{prefix}.{name}", unit, better) for name, unit, better in metrics]


PER_LAYER: List[LayerMetric] = [
    *_layer(
        "sim.engine",
        ("events", "count", "lower"),
        ("self_us_per_event", "us", "lower"),
        ("probe_us_per_event", "us", "lower"),
    ),
    *_layer(
        "sim.transport",
        ("sends", "count", "lower"),
        ("retransmissions", "count", "lower"),
        ("dropped", "count", "lower"),
        ("delivered_share", "ratio", "higher"),
        ("us_per_send", "us", "lower"),
    ),
    *_layer(
        "sim.harness",
        ("rounds", "count", "lower"),
        ("notify_resends", "count", "lower"),
        ("notify_rerouted", "count", "lower"),
        ("notify_dead_lettered", "count", "lower"),
        ("stale_ops_dropped", "count", "lower"),
        ("self_s", "s", "lower"),
    ),
    *_layer("core.hierarchy", ("build_s", "s", "lower"), ("entities", "count", "lower")),
    *_layer(
        "core.kernel",
        ("rounds", "count", "lower"),
        ("hops_per_round", "ratio", "lower"),
        ("us_per_round", "us", "lower"),
        ("repairs", "count", "lower"),
        ("us_per_repair", "us", "lower"),
        ("mq_salvaged", "count", "higher"),
    ),
    *_layer(
        "core.columnar",
        ("store_build_s", "s", "lower"),
        ("us_per_round", "us", "lower"),
        ("dirty_round_share", "ratio", "lower"),
        ("dirty_at_end", "count", "lower"),
    ),
    *_layer("core.deltas", ("compile_apply_us", "us", "lower")),
    *_layer("core.query", ("bms_object_ms", "ms", "lower")),
    *_layer("serving.columnar_query", ("fanout_ms", "ms", "lower")),
    *_layer(
        "serving.snapshots",
        ("captures", "count", "lower"),
        ("hits", "count", "higher"),
        ("revalidations", "count", "lower"),
        ("invalidations", "count", "lower"),
        ("hit_share", "ratio", "higher"),
        ("capture_ms", "ms", "lower"),
        ("revalidate_ms", "ms", "lower"),
        ("members_sort_ms", "ms", "lower"),
    ),
    *_layer(
        "serving.frontend",
        ("queries", "count", "higher"),
        ("batches", "count", "higher"),
        ("hit_us_per_query", "us", "lower"),
        ("tms_p50_ms", "ms", "lower"),
        ("ims_p50_ms", "ms", "lower"),
    ),
    *_layer(
        "runtime.wire",
        ("encode_us", "us", "lower"),
        ("decode_us", "us", "lower"),
        ("bytes_per_datagram", "B", "lower"),
        ("errors", "count", "lower"),
    ),
    *_layer("runtime.loop", ("timer_us", "us", "lower"), ("udp_rtt_us", "us", "lower")),
    *_layer(
        "runtime.dispatch",
        ("token_datagrams", "count", "lower"),
        ("holder_ack_datagrams", "count", "lower"),
        ("notify_duplicates", "count", "lower"),
        ("dead_letters", "count", "lower"),
        ("datagrams_per_change", "ratio", "lower"),
    ),
    *_layer(
        "runtime.heartbeat",
        ("suspicions", "count", "lower"),
        ("evictions", "count", "lower"),
        ("readmissions", "count", "lower"),
    ),
    *_layer("runtime.node", ("rounds", "count", "lower"), ("link_gaps", "count", "lower")),
    *_layer("runtime.supervisor", ("wall_overrun_s", "s", "lower")),
    *_layer("workloads.spec", ("schedule_s", "s", "lower")),
    LayerMetric("trace.overhead_share", "ratio", "lower"),
]
