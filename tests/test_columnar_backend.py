"""Object-vs-columnar kernel backend equivalence.

The contract under test (``repro.core.columnar``): the columnar backend is a
pure execution-strategy change.  Every observable — membership views, ring
seen-sets, applied-sequence maps, holder pointers, hop/round counters, the
full :class:`RunRecord` of a harness run — is bit-identical to the object
kernel, across scenarios, loss rates, failures/repairs, and parallel
sharding.  The fast path may only ever *decline* (fall back to the object
round); it must never change state.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis_profiles import examples

from repro.core.columnar import ColumnarKernel, ColumnarStore
from repro.core.config import SimulationConfig
from repro.core.hierarchy import HierarchyBuilder
from repro.core.identifiers import clear_intern_tables
from repro.core.kernel import TokenRoundKernel, create_kernel
from repro.core.one_round import OneRoundEngine
from repro.core.simulation import RGBSimulation
from repro.sim.harness import HarnessConfig, ScenarioHarness, build_topology_snapshot
from repro.workloads.matrix import MatrixCell, run_matrix_cell
from repro.workloads.parallel import record_fingerprint, result_fingerprint, run_cells

SCENARIOS = ("churn", "handoff_storm", "partition_merge", "mobility_trace")
LOSSES = (0.0, 0.01, 0.05)


# ---------------------------------------------------------------------------
# structural engine: full protocol state must match
# ---------------------------------------------------------------------------


def _engine_state(kernel, reports) -> dict:
    """Everything observable about a kernel run, in comparable form."""
    top_leader = kernel.entity(kernel.hierarchy.topmost_ring().leader)
    return {
        "guids": sorted(str(m.guid) for m in top_leader.ring_members.members()),
        "rounds": [
            (
                len(rep.rounds),
                sum(r.token_hops for r in rep.rounds),
                sum(r.notify_hops for r in rep.rounds),
                sum(r.ack_hops for r in rep.rounds),
                sum(r.retransmissions for r in rep.rounds),
                [
                    str(n)
                    for r in rep.rounds
                    for n in ([r.ring_id, r.holder] + list(r.visited))
                ],
            )
            for rep in reports
        ],
        "counters": {name: c.value for name, c in sorted(kernel.metrics.counters.items())},
        "applied": {
            rid: dict(sorted(m.items()))
            for rid, m in sorted(kernel.ring_applied_seq.items())
        },
        "seen": {rid: sorted(s) for rid, s in sorted(kernel.ring_seen.items())},
        "holders": {rid: str(n) for rid, n in sorted(kernel._ring_holder.items())},
        "views": {
            str(node): (
                sorted(str(m.guid) for m in e.ring_members.members())
                if e.ring_live
                else None,
                sorted(str(m.guid) for m in e.local_members.members())
                if e.local_live
                else None,
            )
            for node, e in sorted(kernel.entities.items(), key=lambda kv: str(kv[0]))
        },
    }


def _run_structural_workout(backend: str) -> dict:
    """Joins, handoffs, leaves, a failure, a repair, and post-repair traffic."""
    clear_intern_tables()
    hierarchy = HierarchyBuilder().regular(ring_size=4, height=3)
    engine = OneRoundEngine(hierarchy, backend=backend)
    bottom = [r for r in hierarchy.rings.values() if r.tier == hierarchy.bottom_tier()]
    aps = [r.members[0] for r in bottom]
    reports = []
    for i, ap in enumerate(aps[:6]):
        engine.member_join(ap, f"guid-{i}")
    reports.append(engine.propagate())
    engine.kernel.handoff("guid-0", aps[3], aps[0], now=0.0)
    engine.member_leave(aps[1], "guid-1")
    engine.member_join(aps[4], "guid-late")
    reports.append(engine.propagate())
    victim = bottom[2].members[1]
    engine.fail_entity(victim, now=1.0)
    engine.member_join(aps[2], "guid-post-fail")
    reports.append(engine.propagate(now=1.0))
    engine.detect_and_repair(victim, now=2.0)
    reports.append(engine.propagate(now=2.0))
    engine.member_join(aps[5], "guid-after-repair")
    engine.kernel.handoff("guid-late", aps[0], aps[4], now=0.0)
    reports.append(engine.propagate(now=3.0))
    return _engine_state(engine.kernel, reports)


def test_structural_workout_identical():
    assert _run_structural_workout("object") == _run_structural_workout("columnar")


#: ``("regular", ring_size, height)``: ``HierarchyBuilder.regular`` shapes.
REGULAR_SHAPES = [("regular", r, h) for r in (3, 4) for h in (2, 3)]
#: ``("facade", num_aps, ring_size)``: the irregular three-tier hierarchies
#: ``RGBSimulation`` builds through ``HierarchyBuilder.from_topology``
#: (partly filled rings, rings of different sizes within one tier).
FACADE_SHAPES = [("facade", 13, 3), ("facade", 25, 5), ("facade", 40, 4)]


def _hierarchy(shape):
    kind, a, b = shape
    if kind == "regular":
        return HierarchyBuilder().regular(ring_size=a, height=b)
    config = SimulationConfig(num_aps=a, ring_size=b, hosts_per_ap=0)
    return RGBSimulation(config).build().hierarchy


#: Shapes and op traces shared by the backend-identity and re-sync properties.
TRACES = dict(
    shape=st.sampled_from(REGULAR_SHAPES + FACADE_SHAPES),
    trace=st.lists(
        st.tuples(
            st.sampled_from(
                ("join", "leave", "failure", "handoff", "crash", "fail", "wave")
            ),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=3,
        max_size=14,
    ),
)
trace_settings = settings(
    max_examples=examples(10),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run_trace(shape, trace, backend: str, kernel_hook=None) -> dict:
    """Drive one op trace through a structural engine; ``kernel_hook`` sees
    the kernel right after construction."""
    clear_intern_tables()
    hierarchy = _hierarchy(shape)
    engine = OneRoundEngine(hierarchy, backend=backend)
    if kernel_hook is not None:
        kernel_hook(engine.kernel)
    aps = hierarchy.access_proxies()
    guids: list = []
    crashed: set = set()
    reports = []
    counter = 0
    for kind, pick in trace:
        if kind == "join":
            guid = f"m-{counter}"
            counter += 1
            ap = aps[pick % len(aps)]
            engine.member_join(ap, guid)
            guids.append((guid, ap))
        elif kind == "leave" and guids:
            guid, ap = guids.pop(pick % len(guids))
            engine.member_leave(ap, guid)
        elif kind == "failure" and guids:
            guid, ap = guids.pop(pick % len(guids))
            engine.kernel.fail_member(guid, ap, now=0.0)
        elif kind == "handoff" and guids:
            index = pick % len(guids)
            guid, old_ap = guids[index]
            new_ap = aps[(pick // 7) % len(aps)]
            if new_ap != old_ap:
                engine.kernel.handoff(guid, new_ap, old_ap, now=0.0)
                guids[index] = (guid, new_ap)
        elif kind in ("crash", "fail"):
            # Crash a non-AP entity, and repair it now ("crash") or when a
            # round or forward next meets it ("fail"): exercises the
            # object-path fallback, and the re-sync after surgery with and
            # without failed members still in their rings.
            upper = [
                ring
                for ring in hierarchy.rings.values()
                if ring.tier != hierarchy.bottom_tier() and len(ring.members) > 2
            ]
            if upper:
                ring = upper[pick % len(upper)]
                victim = ring.members[pick % len(ring.members)]
                if victim not in crashed and victim != ring.leader:
                    engine.fail_entity(victim, now=1.0)
                    crashed.add(victim)
                    if kind == "crash":
                        engine.detect_and_repair(victim, now=1.0)
        elif kind == "wave":
            reports.append(engine.propagate())
    reports.append(engine.propagate())
    return _engine_state(engine.kernel, reports)


@trace_settings
@given(**TRACES)
# One wave whose operations cancel in MQ aggregation: the parent ring's queue
# empties after the sweep verified it, so the sweep must re-check for work.
@example(
    shape=("regular", 3, 2), trace=[("join", 12), ("handoff", 28), ("leave", 0)]
)
@example(
    shape=("regular", 3, 2),
    trace=[("join", 0), ("join", 463), ("leave", 0), ("handoff", 1155), ("leave", 0)],
)
# A tier-2 member crashes and is repaired, then join, leave and handoff run in
# the same tier-2 subtree: after the re-sync, the subtree's uncovered bottom
# rings take fused rounds on batches that carry the repair's NE_FAILURE.
@example(
    shape=("regular", 3, 3),
    trace=[("crash", 5), ("join", 7), ("join", 4), ("handoff", 28), ("leave", 0)],
)
@example(
    shape=("regular", 3, 3),
    trace=[
        ("join", 13),
        ("crash", 10),
        ("join", 16),
        ("join", 12),
        ("leave", 1),
        ("handoff", 84),
    ],
)
# A repair right before a sweep: the sweep's aliases of the dense rows must
# see the re-sync that runs at its top (rows are refilled in place).
@example(shape=("regular", 3, 2), trace=[("join", 0), ("join", 6), ("crash", 1)])
def test_random_op_traces_identical(shape, trace):
    """Random capture/failure traces produce identical state on both backends."""
    assert _run_trace(shape, trace, "object") == _run_trace(shape, trace, "columnar")


#: The columns ``ColumnarStore.from_hierarchy`` derives from the hierarchy.
STRUCTURAL_COLUMNS = (
    "ring_ids",
    "ring_index",
    "ring_start",
    "ring_tier",
    "ring_parent_ring",
    "ring_parent_pos",
    "ring_leader_pos",
    "ring_version0",
    "ring_child_total",
    "bottom_tier",
)


def _views_hold_state(kernel, ring) -> bool:
    """The exact view scan: some member holds a non-empty view."""
    return any(
        (entity.local_live and len(entity.local_members))
        or (entity.neighbor_live and len(entity.neighbor_members))
        or (entity.ring_live and len(entity.ring_members))
        for entity in (kernel.entities[node] for node in ring.members)
    )


def _install_resync_checks(kernel) -> list:
    """Check the store after every re-sync the kernel runs; the returned
    list grows by one per re-sync."""
    store = kernel.store
    resync = kernel._resync
    resyncs: list = []

    def checked() -> None:
        resync()
        resyncs.append(1)
        assert kernel.store is store and not store.structure_dirty
        fresh = ColumnarStore.from_hierarchy(kernel.hierarchy)
        for name in STRUCTURAL_COLUMNS:
            assert getattr(store, name) == getattr(fresh, name), name
        assert not kernel._unplanned  # repair keeps every forward plan valid
        for ring_id, ring in kernel.hierarchy.rings.items():
            r = store.ring_index[ring_id]
            dead = [node in kernel.failed for node in ring.members]
            start, stop = store.ring_start[r], store.ring_start[r + 1]
            assert store.alive[start:stop] == [not d for d in dead]
            assert store.ring_dead[r] == sum(dead)
            assert store.ring_has_state[r] == _views_hold_state(kernel, ring), ring_id

    kernel._resync = checked
    return resyncs


@trace_settings
@given(**TRACES)
# A repair leaves the store dirty while another member has failed but is
# still in its ring: the re-sync must recount it as dead.
@example(
    shape=("regular", 3, 3),
    trace=[("join", 7), ("wave", 0), ("crash", 5), ("fail", 10), ("join", 13)],
)
def test_resync_rebuilds_store_in_place(shape, trace):
    """Every re-sync leaves the same store object equal to a fresh build,
    with liveness recounted and ``ring_has_state`` exact; between re-syncs
    the flag never misses a ring that holds view state."""
    kernels: list = []

    def hook(kernel) -> None:
        kernels.append(kernel)
        _install_resync_checks(kernel)

    _run_trace(shape, trace, "columnar", hook)
    kernel = kernels[0]
    store = kernel.store
    for ring_id, ring in kernel.hierarchy.rings.items():
        if _views_hold_state(kernel, ring):
            assert store.ring_has_state[store.ring_index[ring_id]], ring_id
    assert not store.structure_dirty  # propagate settles before it returns


def _run_decline_case(case: str, backend: str) -> dict:
    """Joins and a leave from APs outside one tier-2 ring's subtree.

    ``misrouted_parent``: that ring's leader points at a sibling of its
    build-time parent, so the ring's parent forward plan fails validation.
    ``reversed_entities``: the entity map arrives out of (ring, member)
    order, so the dense entity rows come from per-node lookups.
    """
    clear_intern_tables()
    hierarchy = HierarchyBuilder().regular(ring_size=3, height=3)
    states = hierarchy.build_entity_states()
    ring = next(r for r in hierarchy.rings.values() if r.tier == 2)
    if case == "misrouted_parent":
        leader = states[ring.leader]
        leader.parent = next(
            node for node in hierarchy.topmost_ring().members if node != leader.parent
        )
    else:
        states = dict(reversed(list(states.items())))
    kernel = create_kernel(hierarchy, backend=backend, entities=states)
    if backend == "columnar" and case == "misrouted_parent":
        store = kernel.store
        assert store.ring_has_state[store.ring_index[ring.ring_id]]
    subtree = {rid for node in ring.members for rid in hierarchy.child_rings.get(node, ())}
    aps = [ap for ap in hierarchy.access_proxies() if hierarchy.ring_of_node[ap] not in subtree]
    reports = []
    for i, ap in enumerate(aps[:4]):
        kernel.capture(ap, kernel.make_join_op(ap, f"m-{i}"), 0.0)
    reports.append(kernel.propagate())
    kernel.leave("m-1", aps[1], now=1.0)
    kernel.capture(aps[5], kernel.make_join_op(aps[5], "m-late"), 1.0)
    reports.append(kernel.propagate(now=1.0))
    return _engine_state(kernel, reports)


@pytest.mark.parametrize("case", ["misrouted_parent", "reversed_entities"])
def test_columnar_decline_paths_identical(case):
    """Rings the fast path cannot plan for fall back without diverging."""
    assert _run_decline_case(case, "object") == _run_decline_case(case, "columnar")


def test_declines_account_for_every_object_round(monkeypatch):
    """Crash-then-churn harness cell: the store re-syncs after the repair,
    no round ever declines for a dirty store, and ``state``, ``covered`` and
    ``dead`` account for every object round."""
    object_rounds: list = []
    real_round = TokenRoundKernel.run_round

    def counting_round(self, ring_id, holder=None, now=0.0):
        object_rounds.append(ring_id)
        return real_round(self, ring_id, holder=holder, now=now)

    monkeypatch.setattr(TokenRoundKernel, "run_round", counting_round)
    clear_intern_tables()
    harness = ScenarioHarness(HarnessConfig(ring_size=4, height=3, backend="columnar"))
    resyncs = _install_resync_checks(harness.kernel)
    aps = harness.access_proxies()
    for i in range(6):
        harness.schedule_join(0.1 * (i + 1), aps[(7 * i) % len(aps)], guid=f"m-{i}")
    tier2 = next(r for r in harness.hierarchy.rings.values() if r.tier == 2)
    harness.schedule_crash(1.0, str(tier2.members[1]))
    for i in range(6):
        harness.schedule_join(2.0 + 0.1 * i, aps[(5 * i + 3) % len(aps)], guid=f"late-{i}")
    harness.schedule_leave(3.0, "m-0")
    harness.schedule_handoff(3.5, "m-1", aps[2])
    assert harness.run().converged

    kernel = harness.kernel
    declines = kernel.declines
    assert harness.counter_values()["repairs.ring"] == 1
    assert resyncs and not kernel.store.structure_dirty
    assert declines["dirty"] == 0
    assert declines["state"] + declines["covered"] + declines["dead"] == len(object_rounds)
    assert sum(declines.values()) == len(object_rounds)
    # Fused rounds carried the rest.
    assert harness.counter_values()["rounds.completed"] > len(object_rounds)
    # The decline counts stay off the registry (and so off the RunRecord).
    assert not any("decline" in name for name in kernel.metrics.counters)


# ---------------------------------------------------------------------------
# harness matrix cells: full RunRecord fingerprints must match
# ---------------------------------------------------------------------------


def _cell_fingerprint(scenario: str, size: int, loss: float, backend: str, events: int):
    clear_intern_tables()
    cell = MatrixCell(
        scenario=scenario, num_proxies=size, loss=loss, seed=0, backend=backend
    )
    result = run_matrix_cell(cell, events=events)
    fp = record_fingerprint(result.record)
    assert "backend" not in fp["params"], "backend must stay out of the fingerprint"
    return fp


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_matrix_cell_fingerprints_identical_1k(scenario, loss):
    assert _cell_fingerprint(scenario, 1_000, loss, "object", 10) == _cell_fingerprint(
        scenario, 1_000, loss, "columnar", 10
    )


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("RUN_SLOW_BENCHES"),
    reason="10k-proxy cross-backend sweep: run with RUN_SLOW_BENCHES=1 (slow CI tier)",
)
@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_matrix_cell_fingerprints_identical_10k(scenario, loss):
    assert _cell_fingerprint(scenario, 10_000, loss, "object", 12) == _cell_fingerprint(
        scenario, 10_000, loss, "columnar", 12
    )


def test_columnar_cells_shard_bit_identically():
    """jobs=1 == jobs=4 for columnar cells (the parallel-runner contract)."""
    cells = [
        MatrixCell(
            scenario=scenario, num_proxies=16, loss=loss, seed=3, backend="columnar"
        )
        for scenario in ("churn", "mobility_trace")
        for loss in (0.0, 0.05)
    ]
    sequential = run_cells(cells, events=8, jobs=1)
    parallel = run_cells(cells, events=8, jobs=4)
    assert sequential.ok and parallel.ok
    assert [result_fingerprint(r) for r in sequential.results] == [
        result_fingerprint(r) for r in parallel.results
    ]


# ---------------------------------------------------------------------------
# snapshots and configuration
# ---------------------------------------------------------------------------


def test_snapshot_rehydrated_columnar_cell_matches_fresh_build():
    def run(with_snapshot):
        clear_intern_tables()
        config = HarnessConfig(ring_size=4, height=2, backend="columnar")
        harness = ScenarioHarness(
            config, snapshot=build_topology_snapshot(4, 2) if with_snapshot else None
        )
        assert isinstance(harness.kernel, ColumnarKernel)
        harness.schedule_join(0.1, ap=harness.access_proxies()[0], guid="m-0")
        harness.schedule_join(0.2, ap=harness.access_proxies()[5], guid="m-1")
        outcome = harness.run()
        return record_fingerprint(harness.run_record("snap", scenario="snap")), outcome

    (fresh_record, fresh_outcome) = run(False)
    (snap_record, snap_outcome) = run(True)
    assert fresh_record == snap_record
    assert fresh_outcome.converged and snap_outcome.converged


def test_harness_config_rejects_unknown_backend():
    with pytest.raises(Exception):
        HarnessConfig(backend="vectorised")
    with pytest.raises(ValueError):
        MatrixCell(scenario="churn", num_proxies=16, loss=0.0, backend="vectorised")
