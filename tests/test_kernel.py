"""Unit tests for the unified token-round kernel and the batched paths."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis_profiles import examples
from reference.per_op import coverage, use_per_op

from repro.core.config import ProtocolConfig, SimulationConfig
from repro.core.handoff import HandoffManager
from repro.core.hierarchy import HierarchyBuilder
from repro.core.identifiers import NodeId
from repro.core.kernel import ProtocolError, TokenRoundKernel
from repro.core.one_round import OneRoundEngine
from repro.core.simulation import RGBSimulation
from repro.workloads.scenarios import run_large_scale_scenario


def make_engine(ring_size=3, height=2, **protocol_kwargs) -> OneRoundEngine:
    hierarchy = HierarchyBuilder("kernel-test").regular(ring_size=ring_size, height=height)
    return OneRoundEngine(hierarchy, config=ProtocolConfig(**protocol_kwargs))


class TestKernelSharedMachinery:
    def test_both_drivers_expose_the_same_kernel_type(self):
        structural = make_engine()
        event = RGBSimulation(
            SimulationConfig(num_aps=6, ring_size=3, hosts_per_ap=0)
        ).build()
        assert type(structural.kernel) is type(event.kernel) is TokenRoundKernel

    def test_coverage_matches_ancestry_definition(self):
        engine = make_engine(ring_size=3, height=3)
        kernel = engine.kernel
        hierarchy = engine.hierarchy
        for ring_id, ring in hierarchy.rings.items():
            expected = set()
            members = set(ring.members)
            for ap in hierarchy.access_proxies():
                if ap in members or any(a in members for a in hierarchy.ancestry(ap)):
                    expected.add(ap.value)
            assert coverage(kernel, ring_id) == expected
            aps = hierarchy.access_proxies()
            assert {ap.value for ap in aps if kernel.ring_covers(ring_id, ap)} == expected

    def test_drain_for_round_reports_out_of_ring_senders(self):
        """The round's queue drain aggregates every queued operation and
        names only out-of-ring senders as Holder-Acknowledgement targets."""
        engine = make_engine()
        kernel = engine.kernel
        ring = engine.hierarchy.bottom_rings()[0]
        holder = ring.members[0]
        op = kernel.make_join_op(holder, "alice")
        outside = engine.hierarchy.topmost_ring().members[0]
        inside = ring.members[1]
        kernel.entity(holder).mq.insert(op, sender=outside, now=0.0)
        kernel.entity(holder).mq.insert(kernel.make_join_op(holder, "bob"), sender=inside, now=0.0)
        result = kernel.run_round(ring.ring_id, holder=holder)
        assert op in result.operations and len(result.operations) == 2
        # Only the out-of-ring sender is a Holder-Acknowledgement target.
        assert result.ack_hops == 1

    def test_upward_target_requires_leader_and_healthy_parent(self):
        engine = make_engine()
        kernel = engine.kernel
        ring = engine.hierarchy.bottom_rings()[0]
        leader_entity = kernel.entity(ring.leader)
        follower = next(n for n in ring.members if n != ring.leader)
        assert kernel.upward_target(leader_entity, ring.leader) == leader_entity.parent
        assert kernel.upward_target(kernel.entity(follower), ring.leader) is None
        leader_entity.parent_ok = False
        assert kernel.upward_target(leader_entity, ring.leader) is None

    def test_ack_targets_dedupe_preserving_order(self):
        engine = make_engine()
        a, b = NodeId("a"), NodeId("b")
        assert engine.kernel.ack_targets([b, a, b, a]) == [b, a]

    def test_capture_requires_known_entity(self):
        engine = make_engine()
        with pytest.raises(ProtocolError):
            engine.kernel.capture("no-such-node", engine.kernel.make_join_op(
                engine.hierarchy.access_proxies()[0], "ghost"
            ), 0.0)


#: Capture traces: an op kind plus a number that picks its proxy / member.
#: ``crash`` fails a non-leader above the bottom tier, repaired when a round
#: or a notification meets it; ``wave`` propagates mid-trace.
TRACE = st.lists(
    st.tuples(
        st.sampled_from(("join", "leave", "failure", "handoff", "crash", "wave")),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=60,
)


def _run_trace(trace, per_op: bool) -> dict:
    """Drive one trace through an r=3, h=3 engine; return what it observed."""
    engine = make_engine(ring_size=3, height=3)
    if per_op:
        use_per_op(engine)
    hierarchy = engine.hierarchy
    aps = hierarchy.access_proxies()
    members: list = []  # (guid, ap) of every member currently joined
    crashed: set = set()
    hops = []
    for index, (kind, pick) in enumerate(trace):
        if kind == "join":
            ap = aps[pick % len(aps)]
            engine.member_join(ap, f"m-{index:03d}")
            members.append((f"m-{index:03d}", ap))
        elif kind in ("leave", "failure") and members:
            guid, ap = members.pop(pick % len(members))
            if kind == "leave":
                engine.member_leave(ap, guid)
            else:
                engine.kernel.fail_member(guid, ap, now=0.0)
        elif kind == "handoff" and members:
            slot = pick % len(members)
            guid, old_ap = members[slot]
            new_ap = aps[(pick // 7) % len(aps)]
            if new_ap != old_ap:
                engine.kernel.handoff(guid, new_ap, old_ap, now=0.0)
                members[slot] = (guid, new_ap)
        elif kind == "crash":
            upper = [
                ring
                for ring in hierarchy.rings.values()
                if ring.tier != hierarchy.bottom_tier() and len(ring.members) > 2
            ]
            if upper:
                ring = upper[pick % len(upper)]
                victim = ring.members[pick % len(ring.members)]
                if victim not in crashed and victim != ring.leader:
                    engine.fail_entity(victim)
                    crashed.add(victim)
        elif kind == "wave":
            hops.append(engine.propagate().hop_count)
    hops.append(engine.propagate().hop_count)
    return {
        "hops": hops,
        "guids": engine.global_guids(),
        "views": {
            str(node): tuple(
                sorted(view.members(), key=lambda m: m.guid.value)
                for view in (entity.local_members, entity.neighbor_members, entity.ring_members)
            )
            for node, entity in engine.entities.items()
        },
    }


class TestBatchedEquivalenceInEngines:
    @pytest.mark.parametrize("batched", [True, False])
    def test_propagation_same_views_and_hops(self, batched):
        """Nine joins, one per access proxy: either apply path reaches every
        ring and matches the other path's hops, membership and views."""
        engine = make_engine(ring_size=3, height=3)
        if not batched:
            use_per_op(engine)
        aps = engine.hierarchy.access_proxies()
        for index, ap in enumerate(aps[:9]):
            engine.member_join(ap, f"m-{index:03d}")
        report = engine.propagate()
        assert len(engine.global_guids()) == 9
        for ring_id in engine.hierarchy.rings:
            assert engine.ring_agreement(ring_id)
        trace = [("join", index) for index in range(9)]
        observed = _run_trace(trace, per_op=not batched)
        assert observed["hops"] == [report.hop_count]
        assert observed["guids"] == engine.global_guids()
        assert observed == _run_trace(trace, per_op=batched)

    @settings(max_examples=examples(10), deadline=None)
    @given(trace=TRACE)
    def test_random_traces_same_views_and_hops(self, trace):
        """The batched delta and the seed's per-op apply (``tests/reference``)
        leave the same hop counts, global membership and entity views."""
        assert _run_trace(trace, per_op=True) == _run_trace(trace, per_op=False)

    def test_handoff_batch_propagates_once(self):
        engine, one_by_one = make_engine(ring_size=3, height=2), make_engine(ring_size=3, height=2)
        aps = [str(a) for a in engine.hierarchy.access_proxies()]
        for driver in (engine, one_by_one):
            for i in range(3):
                driver.member_join(aps[i], f"m-{i}")
            driver.propagate()
        manager = HandoffManager(engine)
        moves = [(f"m-{i}", aps[i], aps[(i + 1) % len(aps)]) for i in range(3)]
        for guid, from_ap, to_ap in moves:
            manager.classify(guid, from_ap, to_ap, now=1.0)
        for guid, from_ap, to_ap in moves:
            engine.kernel.handoff(guid, to_ap, from_ap, now=1.0)
        report = engine.propagate(now=1.0)
        sequential = 0
        for guid, from_ap, to_ap in moves:
            one_by_one.kernel.handoff(guid, to_ap, from_ap, now=1.0)
            sequential += one_by_one.propagate(now=1.0).round_count
        # The storm aggregates into shared rounds.
        assert 0 < report.round_count < sequential
        assert manager.stats.total == 3
        assert sorted(engine.global_guids()) == ["m-0", "m-1", "m-2"]
        for i in range(3):
            record = engine.entity(aps[(i + 1) % len(aps)]).local_members.get(f"m-{i}")
            assert record is not None


class TestLargeScaleScenarioSmall:
    def test_small_configuration_runs_end_to_end(self):
        result = run_large_scale_scenario(ring_size=3, height=2, joins=5, verify_rings=4)
        assert result.final_membership == 5
        assert result.details["access_proxies"] == 9
        assert result.details["sampled_ring_agreement"] is True
        assert result.details["rounds"] >= result.details["rings"]
