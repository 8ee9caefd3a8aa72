"""Regression tests: stochastic processes draw from independent streams.

Every component draws from its own named stream of one master seed, so
adding one workload to a scenario can never perturb another workload's draws:
fault draws leave the mobility trace unchanged, and two mobility models on
different stream names draw independently.
"""

from __future__ import annotations

from repro.sim.faults import FaultPlan
from repro.sim.mobility import MobilityModel
from repro.sim.rng import RandomStreams

NODES = ["n0", "n1", "n2", "n3", "n4"]


class TestMobilityStreamIndependence:
    def test_fault_draws_do_not_shift_mobility_trace(self):
        """Mobility shares the master seed with faults yet draws independently."""
        streams_alone = RandomStreams(41)
        alone = MobilityModel(NODES, streams_alone).generate_population(
            num_hosts=6, arrival_rate=0.5, horizon=300.0
        )

        streams_mixed = RandomStreams(41)
        faults = FaultPlan.uniform_node_faults(NODES, 0.5, streams_mixed.stream("faults"))
        assert len(faults) > 0  # the faults really drew from the shared family
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
