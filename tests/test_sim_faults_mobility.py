"""Unit tests for fault injection and the mobility model."""

from __future__ import annotations

import pytest

from repro.sim.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.sim.mobility import AttachmentEvent, HandoffEvent, MobilityModel
from repro.sim.network import NodeState
from repro.sim.rng import RandomStreams


class TestFaultPlan:
    def test_crash_and_disconnect_builders(self):
        plan = FaultPlan().crash("ap-1", time=3.0).disconnect("ap-2", time=1.0, duration=5.0)
        assert len(plan) == 2
        ordered = plan.sorted_events()
        assert ordered[0].target == "ap-2"
        assert ordered[1].kind is FaultKind.CRASH

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(time=-1.0, kind=FaultKind.CRASH, target="x")

    def test_non_positive_duration_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, kind=FaultKind.DISCONNECT, target="x", duration=0.0)

    def test_uniform_node_faults_probability_zero(self, streams):
        plan = FaultPlan.uniform_node_faults(["a", "b", "c"], 0.0, streams.stream("f"))
        assert len(plan) == 0

    def test_uniform_node_faults_probability_one(self, streams):
        plan = FaultPlan.uniform_node_faults(["a", "b", "c"], 1.0, streams.stream("f"))
        assert len(plan) == 3

    def test_uniform_node_faults_invalid_probability(self, streams):
        with pytest.raises(ValueError):
            FaultPlan.uniform_node_faults(["a"], 1.5, streams.stream("f"))

    def test_uniform_node_faults_expected_fraction(self, streams):
        nodes = [f"n{i}" for i in range(4000)]
        plan = FaultPlan.uniform_node_faults(nodes, 0.25, streams.stream("f"))
        assert 0.2 < len(plan) / len(nodes) < 0.3


class TestFaultInjector:
    def test_crash_marks_node_failed(self, engine):
        injector = FaultInjector(engine)
        injector.apply_plan(FaultPlan().crash("a", time=2.0))
        engine.run()
        assert injector.down == {"a": NodeState.FAILED}

    def test_disconnect_then_reconnect(self, engine):
        injector = FaultInjector(engine)
        injector.apply_plan(FaultPlan().disconnect("b", time=1.0, duration=4.0))
        engine.run(until=2.0)
        assert injector.down == {"b": NodeState.DISCONNECTED}
        engine.run()
        assert injector.down == {}

    def test_crashed_node_does_not_reconnect(self, engine):
        injector = FaultInjector(engine)
        plan = FaultPlan()
        plan.disconnect("b", time=1.0, duration=10.0)
        plan.crash("b", time=2.0)
        injector.apply_plan(plan)
        engine.run()
        assert injector.down == {"b": NodeState.FAILED}

    def test_listeners_are_notified(self, engine):
        injector = FaultInjector(engine)
        seen = []
        injector.on_fault(lambda event: seen.append(event.kind))
        injector.apply_plan(FaultPlan().crash("c"))
        engine.run()
        assert seen == [FaultKind.CRASH]
        assert injector.metrics.counter("faults.crash").value == 1


class TestMobilityModel:
    def _model(self, seed=5, **kwargs):
        aps = [f"ap-{i}" for i in range(6)]
        neighbors = {ap: [a for a in aps if a != ap][:2] for ap in aps}
        return MobilityModel(aps, RandomStreams(seed), neighbor_map=neighbors, **kwargs)

    def test_host_trace_starts_with_attach_and_ends_with_detach(self):
        trace = self._model().generate_host("mh-1", arrival_time=10.0)
        events = trace.all_events()
        first, last = events[0], events[-1]
        assert isinstance(first, AttachmentEvent) and first.attach
        assert isinstance(last, AttachmentEvent) and not last.attach
        assert first.time == 10.0
        assert last.time > first.time

    def test_handoffs_move_between_distinct_aps(self):
        trace = self._model(mean_residency=10.0, mean_session=500.0).generate_host("mh-1", 0.0)
        for handoff in trace.handoffs:
            assert handoff.from_ap != handoff.to_ap

    def test_handoff_chain_is_consistent(self):
        trace = self._model(mean_residency=5.0, mean_session=300.0).generate_host("mh-1", 0.0)
        current = trace.attachments[0].ap_id
        for handoff in trace.handoffs:
            assert handoff.from_ap == current
            current = handoff.to_ap
        assert trace.attachments[-1].ap_id == current

    def test_population_counts(self):
        trace = self._model().generate_population(num_hosts=20, arrival_rate=0.5)
        attaches = [e for e in trace.attachments if e.attach]
        assert len(attaches) == 20

    def test_population_horizon_clips_events(self):
        trace = self._model().generate_population(num_hosts=20, arrival_rate=0.5, horizon=30.0)
        assert all(e.time <= 30.0 for e in trace.all_events())

    def test_deterministic_given_seed(self):
        t1 = self._model(seed=9).generate_population(5, 1.0)
        t2 = self._model(seed=9).generate_population(5, 1.0)
        assert [(e.time, e.host_id) for e in t1.all_events()] == [
            (e.time, e.host_id) for e in t2.all_events()
        ]

    def test_events_for_host(self):
        trace = self._model().generate_population(5, 1.0)
        events = [e for e in trace.all_events() if e.host_id == "mh-00002"]
        assert events and all(e.host_id == "mh-00002" for e in events)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MobilityModel([], RandomStreams(0))
        with pytest.raises(ValueError):
            self._model(mean_residency=-1.0)
        with pytest.raises(ValueError):
            self._model().generate_population(0, 1.0)
        with pytest.raises(ValueError):
            self._model().generate_population(1, 0.0)
