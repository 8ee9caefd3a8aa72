"""Unit tests for the unified token-round kernel and the batched paths."""

from __future__ import annotations

import pytest

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
            assert kernel.coverage(ring_id) == expected

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


class TestBatchedEquivalenceInEngines:
    @pytest.mark.parametrize("batched", [True, False])
    def test_propagation_same_views_and_hops(self, batched):
        engine = make_engine(ring_size=3, height=3, batched_apply=batched)
        aps = engine.hierarchy.access_proxies()
        for index, ap in enumerate(aps[:9]):
            engine.member_join(ap, f"m-{index:03d}")
        report = engine.propagate()
        assert len(engine.global_guids()) == 9
        for ring_id in engine.hierarchy.rings:
            assert engine.ring_agreement(ring_id)
        # Hop counts are a pure protocol property — identical in both modes.
        reference = make_engine(ring_size=3, height=3, batched_apply=not batched)
        for index, ap in enumerate(aps[:9]):
            reference.member_join(ap, f"m-{index:03d}")
        assert reference.propagate().hop_count == report.hop_count
        assert reference.global_guids() == engine.global_guids()

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
        engine.capture_many([("handoff", *move) for move in moves], now=1.0)
        report = engine.propagate(now=1.0)
        sequential = sum(
            one_by_one.handoff_and_propagate(*move, now=1.0).round_count for move in moves
        )
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
