"""Bulk-construction and topology-snapshot equivalence (PR 5).

The bulk build path (vectorised interned identifiers, trusted ring
registration, raw-slot entity states, lockstep kernel wiring) must produce
state indistinguishable from the seed's incremental construction, and a
matrix cell rehydrated from a :class:`repro.sim.harness.TopologySnapshot`
must be bit-identical (by record fingerprint) to a fresh-build cell, both
sequentially and across pool workers.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis_profiles import examples
from reference.incremental_build import build_entity_states_incremental, regular_incremental
from reference.per_op import coverage

from repro.core.hierarchy import HierarchyBuilder
from repro.core.identifiers import NodeId
from repro.core.kernel import TokenRoundKernel
from repro.sim.harness import (
    HarnessConfig,
    HarnessError,
    ScenarioHarness,
    TopologySnapshot,
    build_topology_snapshot,
)
from repro.workloads.matrix import (
    MatrixCell,
    TopologySnapshotCache,
    run_matrix_cell,
)
from repro.workloads.parallel import result_fingerprint, run_cells

#: (ring_size, height) shapes spanning the 1k and 10k scales the bulk path
#: must match the reference construction on, plus skinny/deep outliers.
SHAPES = [(10, 3), (4, 5), (2, 10), (10, 4)]


# ---------------------------------------------------------------------------
# bulk build == incremental build
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=examples(8))
@given(shape=st.sampled_from(SHAPES))
def test_bulk_regular_hierarchy_equals_incremental(shape):
    ring_size, height = shape
    bulk = HierarchyBuilder("prop").regular(ring_size, height)
    incremental = regular_incremental("prop", ring_size, height)

    assert list(bulk.rings) == list(incremental.rings)
    for ring_id, bulk_ring in bulk.rings.items():
        reference = incremental.rings[ring_id]
        assert bulk_ring.members == reference.members
        assert bulk_ring.leader == reference.leader
        assert bulk_ring.tier == reference.tier
    assert bulk.parent_node == incremental.parent_node
    assert bulk.child_rings == incremental.child_rings
    assert bulk.ring_of_node == incremental.ring_of_node
    assert bulk.tier_labels == incremental.tier_labels
    # The bulk path skips construction-time validation; its output must still
    # pass the deep validator.
    bulk.validate()

    # Successor/predecessor maps agree for every node of every ring.
    for ring_id, bulk_ring in bulk.rings.items():
        reference = incremental.rings[ring_id]
        for node in bulk_ring.members:
            assert bulk_ring.successor(node) == reference.successor(node)
            assert bulk_ring.predecessor(node) == reference.predecessor(node)


@settings(deadline=None, max_examples=examples(8))
@given(shape=st.sampled_from(SHAPES))
def test_bulk_entity_states_equal_incremental(shape):
    ring_size, height = shape
    hierarchy = HierarchyBuilder("prop").regular(ring_size, height)
    bulk_states = hierarchy.build_entity_states()
    reference_states = build_entity_states_incremental(hierarchy)

    assert list(bulk_states) == list(reference_states)
    for node, bulk_state in bulk_states.items():
        assert bulk_state.summary() == reference_states[node].summary()
        assert bulk_state.aggregate_mq == reference_states[node].aggregate_mq


@settings(deadline=None, max_examples=examples(6))
@given(shape=st.sampled_from(SHAPES[:3]))
def test_bulk_kernel_coverage_matches_incremental_and_ancestor_walk(shape):
    ring_size, height = shape
    bulk_kernel = TokenRoundKernel(HierarchyBuilder("prop").regular(ring_size, height))
    reference_kernel = TokenRoundKernel(regular_incremental("prop", ring_size, height))
    aps = [node for node in bulk_kernel.hierarchy.access_proxies()]
    for ring_id in bulk_kernel.hierarchy.rings:
        covered = coverage(bulk_kernel, ring_id)
        assert covered == coverage(reference_kernel, ring_id)
        # The batched apply path's ancestor-chain test is a drop-in
        # replacement for the materialised coverage sets.
        walked = {ap.value for ap in aps if bulk_kernel.ring_covers(ring_id, ap)}
        assert walked == covered


def test_ring_covers_tracks_repair():
    """Coverage verdicts follow hierarchy surgery immediately."""
    kernel = TokenRoundKernel(HierarchyBuilder("repair").regular(4, 3))
    victim = kernel.hierarchy.access_proxies()[0]
    ring_id = kernel.hierarchy.ring_of(victim).ring_id
    top_ring_id = kernel.hierarchy.topmost_ring().ring_id
    assert kernel.ring_covers(ring_id, victim)
    assert kernel.ring_covers(top_ring_id, victim)
    kernel.fail_entity(victim)
    kernel.detect_and_repair(victim)
    assert not kernel.ring_covers(ring_id, victim)
    assert not kernel.ring_covers(top_ring_id, victim)
    for rid in kernel.hierarchy.rings:
        walked = {
            ap.value
            for ap in kernel.hierarchy.access_proxies()
            if kernel.ring_covers(rid, ap)
        }
        assert walked == coverage(kernel, rid)


# ---------------------------------------------------------------------------
# topology snapshots
# ---------------------------------------------------------------------------


def test_snapshot_harness_equals_fresh_harness():
    snapshot = build_topology_snapshot(4, 3)
    config = HarnessConfig(ring_size=4, height=3, seed=7, loss=0.01)
    fresh = ScenarioHarness(config)
    rehydrated = ScenarioHarness(config, snapshot=snapshot)

    assert list(fresh.hierarchy.rings) == list(rehydrated.hierarchy.rings)
    for ring_id, ring in fresh.hierarchy.rings.items():
        assert ring.members == rehydrated.hierarchy.rings[ring_id].members
        assert ring.leader == rehydrated.hierarchy.rings[ring_id].leader
    assert list(fresh.kernel.entities) == list(rehydrated.kernel.entities)
    for node, state in fresh.kernel.entities.items():
        assert state.summary() == rehydrated.kernel.entities[node].summary()
    # Interned identifiers are shared process-wide across both builds.
    sample = next(iter(fresh.kernel.entities))
    assert sample is next(iter(rehydrated.kernel.entities))
    # Every entity starts up, and the rehydrated cell owns its latency model.
    assert fresh.faults.down == rehydrated.faults.down == {}
    assert rehydrated.transport.latency.loss == config.loss


def test_snapshot_shape_mismatch_is_rejected():
    snapshot = build_topology_snapshot(4, 2)
    with pytest.raises(HarnessError):
        ScenarioHarness(HarnessConfig(ring_size=4, height=3), snapshot=snapshot)


def test_snapshot_cache_builds_each_shape_once():
    cache = TopologySnapshotCache()
    a = cache.for_cell(MatrixCell(scenario="churn", num_proxies=16, loss=0.0))
    b = cache.for_cell(MatrixCell(scenario="churn", num_proxies=16, loss=0.05))
    assert a is b and len(cache) == 1
    assert isinstance(a, TopologySnapshot)
    baseline_cell = MatrixCell(scenario="churn", num_proxies=16, loss=0.0, protocol="gossip")
    assert cache.for_cell(baseline_cell) is None


def test_snapshot_cells_bit_identical_to_fresh_under_jobs_1_and_4():
    """record_fingerprint(fresh build) == rehydrated, sequential and pooled."""
    cells = [
        MatrixCell(scenario=scenario, num_proxies=256, loss=loss, seed=seed)
        for scenario in ("churn", "partition_merge")
        for loss in (0.0, 0.05)
        for seed in (0, 3)
    ]
    fresh = [
        result_fingerprint(run_matrix_cell(cell, events=8, snapshot=None))
        for cell in cells
    ]
    sequential = run_cells(cells, events=8, jobs=1)
    pooled = run_cells(cells, events=8, jobs=4)
    assert sequential.ok and pooled.ok
    assert [result_fingerprint(r) for r in sequential.results] == fresh
    assert [result_fingerprint(r) for r in pooled.results] == fresh
