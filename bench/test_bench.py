"""Self-test of the benchmark of record, at ``--smoke`` scale.

Run explicitly — ``python3 -m pytest bench/test_bench.py -q`` — since
``bench/`` is outside the tier-1 ``testpaths``.  About 30 s: it spawns the
2-shard fleet three times.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
from schema import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, substream  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_contract_lists_exactly_what_the_benchmark_declares():
    contract = _contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["bench"]
    assert contract["workloads"] == [
        {"name": spec.name, "why": spec.why} for spec in WORKLOADS.values()
    ]
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    names = [m.name for m in END_TO_END] + [m.name for m in PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(spec.why) <= 200 and "\n" not in spec.why for spec in WORKLOADS.values())
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    assert max(END_TO_END, key=lambda m: m.bound).bound == END_TO_END[0].bound  # setup_s


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_seeded_and_their_oracle_follows_from_the_script(name):
    spec = WORKLOADS[name]
    first = spec.inputs(substream(12, name), smoke=True)
    assert first == spec.inputs(substream(12, name), smoke=True)
    assert first != spec.inputs(substream(13, name), smoke=True)
    present = {}
    crashed = set()
    for change in first.changes:
        if change.kind in ("join", "handoff"):
            present[change.member] = change.site
        elif change.kind in ("leave", "failure"):
            del present[change.member]
        elif change.tier == 1:
            crashed.add(change.site)
            present = {m: s for m, s in present.items() if s != change.site}
    assert frozenset(present) == first.oracle
    assert not crashed & set(present.values())
    times = [change.time for change in first.changes]
    assert times == sorted(times)


def _check_record(record: dict, declared) -> None:
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert list(record["metrics"]) == [m.name for m in declared]
    for metric in declared:
        entry = record["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert math.isfinite(entry["value"]), metric.name


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_emits_every_declared_metric_and_meets_its_oracle(name):
    for seed in (12, 13):
        record = run.measure(name, seed, 0.5, trace=False, smoke=True, corrupt=False)
        _check_record(record, END_TO_END)
        assert all(entry["value"] > 0 for entry in record["metrics"].values())
    traced = run.measure(name, 12, 0.5, trace=True, smoke=True, corrupt=False)
    _check_record(traced, PER_LAYER)
    trace_file = os.path.join(run.OUT_DIR, f"trace-{name}.json")
    with open(trace_file) as handle:
        spans = json.load(handle)
    assert spans["workload"] == name and spans["spans"] and spans["totals"]


def test_exact_counts_repeat_for_the_same_seed():
    counts = ("sim.engine.events", "sim.transport.sends", "core.kernel.rounds",
              "serving.snapshots.captures")
    runs = [
        run.measure("crash_repair_10k", 12, 0.5, trace=True, smoke=True, corrupt=False)
        for _ in range(2)
    ]
    for name in counts:
        assert runs[0]["metrics"][name]["value"] == runs[1]["metrics"][name]["value"] > 0
    assert 0 < runs[0]["metrics"]["core.columnar.dirty_round_share"]["value"] <= 1


def test_corrupted_oracle_fails_the_run():
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "propagate_100k",
         "--seconds", "0.2", "--smoke", "--corrupt-oracle"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    record = json.loads(done.stdout.strip().splitlines()[-1])
    assert not record["correct"] and record["failed"] > 0
    assert record["failed"] / record["attempted"] > 0


def test_compare_flags_a_regression_and_an_unresolved_spread(tmp_path, capsys):
    def results(changes_per_s, qps):
        return {"workloads": {"w": {"ops_failed": 0, "end_to_end": {
            "changes_per_s": {"unit": "1/s", "median": changes_per_s[1], "runs": changes_per_s},
            "query_qps": {"unit": "1/s", "median": qps[1], "runs": qps},
        }}}}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(results([10.0, 10.1, 10.2], [100.0, 101.0, 102.0])))
    b.write_text(json.dumps(results([7.0, 7.1, 7.2], [70.0, 101.0, 130.0])))
    assert run.compare(str(a), str(b)) == 1
    rows = capsys.readouterr().out.splitlines()
    assert any("changes_per_s" in row and row.endswith("regression") for row in rows)
    assert any("query_qps" in row and row.endswith("unresolved") for row in rows)
    assert run.compare(str(a), str(a)) == 0
