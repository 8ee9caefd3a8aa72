"""Regression tests: stochastic processes draw from independent substreams.

The fault injector's Poisson-crash process and its transient-disconnection
process used to share the single ``"faults"`` stream, so generating one plan
shifted the draws — and therefore the schedule — of the other.  Each process
now owns a named substream (``faults.poisson`` / ``faults.transient``), and
the mobility model can be pointed at a dedicated stream, so adding one
workload to a scenario can never perturb another workload's draws under the
same master seed.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationEngine
from repro.sim.faults import FaultInjector
from repro.sim.mobility import MobilityModel
from repro.sim.network import Network, NetworkNode
from repro.sim.rng import RandomStreams

NODES = ["n0", "n1", "n2", "n3", "n4"]


def build_injector(streams: RandomStreams) -> FaultInjector:
    network = Network()
    network.add_nodes(NetworkNode(node_id=name, kind="AP") for name in NODES)
    return FaultInjector(SimulationEngine(), network, streams)


def crash_times(injector: FaultInjector):
    plan = injector.poisson_crashes(NODES, rate_per_node=0.4, horizon=50.0)
    return [(str(e.target), e.time) for e in plan.sorted_events()]


def disconnect_times(injector: FaultInjector):
    plan = injector.transient_disconnections(
        NODES, rate_per_node=0.3, mean_downtime=4.0, horizon=50.0
    )
    return [(str(e.target), e.time, e.duration) for e in plan.sorted_events()]


class TestFaultProcessIndependence:
    def test_crash_plan_does_not_shift_disconnections(self):
        """Generating a crash plan first must not change the transient plan."""
        alone = disconnect_times(build_injector(RandomStreams(77)))
        injector = build_injector(RandomStreams(77))
        crash_times(injector)  # extra workload added to the same run
        combined = disconnect_times(injector)
        assert combined == alone

    def test_disconnections_do_not_shift_crash_plan(self):
        alone = crash_times(build_injector(RandomStreams(77)))
        injector = build_injector(RandomStreams(77))
        disconnect_times(injector)
        combined = crash_times(injector)
        assert combined == alone

    def test_each_process_is_still_seed_deterministic(self):
        assert crash_times(build_injector(RandomStreams(5))) == crash_times(
            build_injector(RandomStreams(5))
        )
        assert crash_times(build_injector(RandomStreams(5))) != crash_times(
            build_injector(RandomStreams(6))
        )


class TestMobilityStreamIndependence:
    def test_fault_draws_do_not_shift_mobility_trace(self):
        """Mobility shares the master seed with faults yet draws independently."""
        streams_alone = RandomStreams(41)
        alone = MobilityModel(NODES, streams_alone).generate_population(
            num_hosts=6, arrival_rate=0.5, horizon=300.0
        )

        streams_mixed = RandomStreams(41)
        injector = build_injector(streams_mixed)
        crash_times(injector)
        disconnect_times(injector)
        mixed = MobilityModel(NODES, streams_mixed).generate_population(
            num_hosts=6, arrival_rate=0.5, horizon=300.0
        )
        assert mixed.attachments == alone.attachments
        assert mixed.handoffs == alone.handoffs

    def test_named_mobility_streams_are_independent(self):
        streams = RandomStreams(41)
        first = MobilityModel(NODES, streams, stream_name="mobility.a")
        second = MobilityModel(NODES, streams, stream_name="mobility.b")
        trace_a = first.generate_host("h", 0.0)
        trace_b = second.generate_host("h", 0.0)
        # Different streams: same seed but independent draw sequences.
        assert (
            trace_a.attachments[-1].time != trace_b.attachments[-1].time
            or trace_a.handoffs != trace_b.handoffs
        )
        # And a second model on the *same* name continues that stream, while a
        # fresh family reproduces it from scratch.
        fresh = RandomStreams(41)
        again = MobilityModel(NODES, fresh, stream_name="mobility.a").generate_host("h", 0.0)
        assert again.attachments == trace_a.attachments
        assert again.handoffs == trace_a.handoffs


class TestSubstreamHelper:
    def test_substream_names_compose(self):
        streams = RandomStreams(3)
        sub = streams.substream("faults", "poisson")
        assert "faults.poisson" in streams
        direct = RandomStreams(3).stream("faults.poisson")
        assert sub.random(4).tolist() == direct.random(4).tolist()

    def test_substream_rejects_empty_parts(self):
        streams = RandomStreams(3)
        with pytest.raises(ValueError):
            streams.substream("", "poisson")
        with pytest.raises(ValueError):
            streams.substream("faults", "")

    def test_substream_independent_of_base_stream(self):
        streams = RandomStreams(9)
        base_draws = streams.stream("faults").random(5).tolist()
        sub_draws = streams.substream("faults", "poisson").random(5).tolist()
        assert base_draws != sub_draws
