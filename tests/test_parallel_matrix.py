"""Parallel-vs-sequential equivalence of the scenario-matrix runner.

The contract under test (``repro.workloads.parallel``): sharding matrix cells
across a ``multiprocessing`` pool changes *nothing* about the results — every
``RunRecord`` (converged state, cost totals, counters) is bit-identical to the
sequential sweep, lossless and lossy alike.  This only holds because no cell
draws from process-global mutable state; the regression tests at the bottom
pin the specific leak the pool runner surfaced (the module-level token-id
counter in ``repro.core.token``).
"""

from __future__ import annotations

import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis_profiles import examples

from repro.core.identifiers import GroupId, NodeId, _Identifier
from repro.core.token import Token
from repro.sim.harness import HarnessConfig, ScenarioHarness
from repro.workloads.matrix import MatrixCell, ScenarioMatrix, run_matrix_cell
from repro.workloads.parallel import (
    CellFailure,
    record_fingerprint,
    result_fingerprint,
    run_cells,
    run_matrix,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Small shapes (r**h) that keep a pool-per-example affordable.
SMALL_SIZES = (9, 16, 25)


def _fingerprints(report):
    return [result_fingerprint(r) for r in report.results]


# ---------------------------------------------------------------------------
# hypothesis-driven equivalence: jobs=1 == jobs=4, lossless and 5% loss
# ---------------------------------------------------------------------------


@settings(
    max_examples=examples(6),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scenario=st.sampled_from(("churn", "handoff_storm", "partition_merge")),
    size=st.sampled_from(SMALL_SIZES),
    loss=st.sampled_from((0.0, 0.05)),
    seed=st.integers(min_value=0, max_value=10_000),
    events=st.integers(min_value=4, max_value=10),
)
def test_parallel_matrix_bit_identical_to_sequential(scenario, size, loss, seed, events):
    cells = [
        MatrixCell(scenario=scenario, num_proxies=size, loss=loss, seed=seed),
        MatrixCell(scenario=scenario, num_proxies=size, loss=loss, seed=seed + 1),
    ]
    sequential = run_cells(cells, events=events, jobs=1)
    parallel = run_cells(cells, events=events, jobs=4)
    assert sequential.ok and parallel.ok
    assert parallel.jobs > 1
    assert _fingerprints(sequential) == _fingerprints(parallel)


def test_full_small_matrix_equivalence_lossless_and_lossy():
    """A whole ScenarioMatrix (both loss points of the satellite spec)."""
    matrix = ScenarioMatrix(
        sizes=(16,),
        losses=(0.0, 0.05),
        scenarios=("churn", "mobility_trace"),
        events_per_cell=8,
    )
    sequential = run_matrix(matrix, jobs=1)
    parallel = run_matrix(matrix, jobs=4)
    assert sequential.ok and parallel.ok
    assert len(sequential.results) == len(matrix.cells())
    assert _fingerprints(sequential) == _fingerprints(parallel)


def test_ablation_cells_equivalent_across_pool():
    cells = [
        MatrixCell(scenario="churn", num_proxies=16, loss=loss, seed=3, protocol=protocol)
        for protocol in ("rgb", "flat_ring", "gossip", "tree")
        for loss in (0.0, 0.05)
    ]
    sequential = run_cells(cells, events=6, jobs=1, ablation=True)
    parallel = run_cells(cells, events=6, jobs=3, ablation=True)
    assert sequential.ok and parallel.ok
    assert _fingerprints(sequential) == _fingerprints(parallel)


# ---------------------------------------------------------------------------
# ordering, failure isolation, fingerprints
# ---------------------------------------------------------------------------


def test_results_come_back_in_input_order():
    cells = [
        MatrixCell(scenario="churn", num_proxies=16, loss=0.0, seed=s) for s in range(5)
    ]
    report = run_cells(cells, events=4, jobs=4)
    assert report.ok
    assert [r.cell for r in report.results] == cells


def test_failure_is_isolated_per_cell(monkeypatch):
    import repro.workloads.parallel as parallel_mod

    real = parallel_mod.run_matrix_cell

    def explode(cell, events=24, snapshot=None):
        if cell.seed == 1:
            raise RuntimeError("boom in worker")
        return real(cell, events=events, snapshot=snapshot)

    monkeypatch.setattr(parallel_mod, "run_matrix_cell", explode)
    cells = [
        MatrixCell(scenario="churn", num_proxies=16, loss=0.0, seed=s) for s in range(3)
    ]
    report = run_cells(cells, events=4, jobs=1)
    assert len(report.results) == 2
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert isinstance(failure, CellFailure)
    assert failure.cell.seed == 1
    assert "boom in worker" in failure.error
    assert "RuntimeError" in failure.traceback
    with pytest.raises(RuntimeError, match="boom in worker"):
        report.raise_if_failed()


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
def test_failure_is_isolated_per_cell_in_pool(monkeypatch):
    """Same isolation through a real fork pool (workers inherit the patch)."""
    import repro.workloads.parallel as parallel_mod

    real = parallel_mod.run_matrix_cell

    def explode(cell, events=24, snapshot=None):
        if cell.seed == 1:
            raise RuntimeError("boom in worker")
        return real(cell, events=events, snapshot=snapshot)

    monkeypatch.setattr(parallel_mod, "run_matrix_cell", explode)
    cells = [
        MatrixCell(scenario="churn", num_proxies=16, loss=0.0, seed=s) for s in range(3)
    ]
    report = run_cells(cells, events=4, jobs=3)
    assert len(report.results) == 2
    assert [f.cell.seed for f in report.failures] == [1]


def test_record_fingerprint_drops_only_wall_clock_fields():
    cell = MatrixCell(scenario="churn", num_proxies=16, loss=0.0, seed=0)
    record = run_matrix_cell(cell, events=4).record
    fingerprint = record_fingerprint(record)
    assert "wall_seconds" in record.values
    assert "wall_seconds" not in fingerprint["values"]
    assert "events_per_second" not in fingerprint["values"]
    # Everything else survives.
    kept = set(fingerprint["values"])
    assert kept == {
        k
        for k in record.values
        if k not in ("wall_seconds", "build_seconds", "events_per_second")
    }
    assert fingerprint["counters"] == dict(sorted(record.counters.items()))


# ---------------------------------------------------------------------------
# worker-unsafe-state regressions (the leaks the pool runner surfaced)
# ---------------------------------------------------------------------------


def test_token_default_id_is_not_process_global():
    """``Token()`` must not consume module-level mutable state.

    The seed's module-level ``itertools.count`` meant a forked worker
    inherited the parent's counter position, so identical cells produced
    different token ids (visible in traces) depending on pool scheduling.
    """
    token_a = Token(group=GroupId("g"), holder=NodeId("a"), ring_id="r")
    token_b = Token(group=GroupId("g"), holder=NodeId("a"), ring_id="r")
    assert token_a.token_id == 0
    assert token_b.token_id == 0
    assert token_a.fresh(NodeId("b")).token_id == 0
    assert token_a.fresh(NodeId("b"), token_id=7).token_id == 7


def _traced_dump(seed: int) -> str:
    harness = ScenarioHarness(
        HarnessConfig(
            ring_size=3, height=2, seed=seed, loss=0.0,
            latency_std=0.0, trace_enabled=True,
        )
    )
    aps = harness.access_proxies()
    harness.schedule_join(1.0, aps[0], guid="m-0")
    harness.schedule_join(2.0, aps[1], guid="m-1")
    harness.run()
    return harness.trace.canonical_dump()


def test_same_cell_trace_is_identical_despite_interleaved_work():
    """Two same-seeded runs in one process dump byte-identical traces even
    when unrelated protocol work runs in between (the global token counter
    would have shifted the second run's token ids)."""
    first = _traced_dump(seed=5)
    run_matrix_cell(MatrixCell(scenario="churn", num_proxies=9, loss=0.0, seed=0), events=4)
    second = _traced_dump(seed=5)
    assert first == second


def _intern_population() -> int:
    tables = [_Identifier._intern]
    stack = list(_Identifier.__subclasses__())
    while stack:
        cls = stack.pop()
        tables.append(cls._intern)
        stack.extend(cls.__subclasses__())
    return sum(len(t) for t in tables)


def test_sweeps_release_interned_identifiers():
    """Matrix/worker sweeps must not pin interned node/GUID identifiers.

    Before the per-cell ``clear_intern_tables()`` reset, every cell of a
    long sweep left its whole topology's identifiers interned for the life
    of the process (or pool worker) — unbounded growth across a matrix run.
    """
    from repro.core.identifiers import clear_intern_tables

    clear_intern_tables()
    baseline = _intern_population()

    matrix = ScenarioMatrix(
        sizes=(16,), losses=(0.0,), scenarios=("churn",), events_per_cell=4
    )
    matrix.run()
    assert _intern_population() == baseline

    # The pool-worker path (jobs=1 runs the worker in-process, so the same
    # reset is observable here; forked workers get the identical finally).
    report = run_cells(
        [MatrixCell(scenario="churn", num_proxies=16, loss=0.0, seed=0)],
        events=4,
        jobs=1,
    )
    assert report.ok
    assert _intern_population() == baseline


def test_same_seed_identical_and_different_seeds_independent_across_processes():
    """Same-seeded cells agree across workers; differently seeded cells do
    not correlate (their seeded workloads diverge)."""
    same = [
        MatrixCell(scenario="churn", num_proxies=16, loss=0.0, seed=42),
        MatrixCell(scenario="churn", num_proxies=16, loss=0.0, seed=42),
    ]
    report = run_cells(same, events=6, jobs=2)
    assert report.ok
    fingerprints = _fingerprints(report)
    assert fingerprints[0]["record"] == fingerprints[1]["record"]

    different = [
        MatrixCell(scenario="churn", num_proxies=16, loss=0.0, seed=1),
        MatrixCell(scenario="churn", num_proxies=16, loss=0.0, seed=2),
    ]
    report = run_cells(different, events=6, jobs=2)
    assert report.ok
    fingerprints = _fingerprints(report)
    assert fingerprints[0]["record"] != fingerprints[1]["record"]
