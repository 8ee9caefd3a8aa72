"""Unit tests for the network graph, latency models and message transport."""

from __future__ import annotations

import pytest

from repro.sim.network import (
    INTER_AS,
    INTRA_AS,
    LatencyModel,
    NetworkNode,
    NodeState,
)
from repro.sim.transport import Transport, TransportError


# ---------------------------------------------------------------------------
# LatencyModel
# ---------------------------------------------------------------------------


class TestLatencyModel:
    def test_deterministic_when_std_zero(self, streams):
        model = LatencyModel(mean=5.0, std=0.0)
        rng = streams.stream("x")
        assert model.sample_delay(rng) == 5.0

    def test_delay_respects_minimum(self, streams):
        model = LatencyModel(mean=0.5, std=10.0, min_delay=0.2)
        rng = streams.stream("x")
        for _ in range(50):
            assert model.sample_delay(rng) >= 0.2

    def test_zero_loss_never_drops(self, streams):
        model = LatencyModel(mean=1.0, loss=0.0)
        rng = streams.stream("x")
        assert not any(model.sample_loss(rng) for _ in range(100))

    def test_high_loss_drops_often(self, streams):
        model = LatencyModel(mean=1.0, loss=0.9)
        rng = streams.stream("x")
        drops = sum(model.sample_loss(rng) for _ in range(200))
        assert drops > 120

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mean": 0.0},
            {"mean": 1.0, "std": -1.0},
            {"mean": 1.0, "loss": 1.0},
            {"mean": 1.0, "min_delay": 0.0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            LatencyModel(**kwargs)

    def test_tier_presets_exist(self):
        assert INTER_AS.mean > INTRA_AS.mean


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


class TestNetwork:
    def test_add_and_lookup_nodes(self, small_network):
        assert len(small_network) == 5
        assert small_network.node("a").kind == "AP"
        assert small_network.has_node("a")
        assert not small_network.has_node("zzz")

    def test_duplicate_node_rejected(self, small_network):
        with pytest.raises(ValueError):
            small_network.add_nodes([NetworkNode(node_id="a", kind="AP")])

    def test_link_requires_known_nodes(self, small_network):
        with pytest.raises(KeyError):
            small_network.add_links([("a", "nope", INTRA_AS)])

    def test_self_link_rejected(self, small_network):
        with pytest.raises(ValueError):
            small_network.add_links([("a", "a", INTRA_AS)])

    def test_duplicate_link_rejected(self, small_network):
        with pytest.raises(ValueError):
            small_network.add_links([("a", "b", INTRA_AS)])

    def test_bulk_adds_return_empty_list_for_empty_batch(self, small_network):
        assert small_network.add_nodes([]) == []
        assert small_network.add_links([]) == []

    def test_bulk_node_batch_raises_on_later_duplicate(self, small_network):
        batch = [NetworkNode(node_id="f", kind="AP"), NetworkNode(node_id="a", kind="AP")]
        with pytest.raises(ValueError):
            small_network.add_nodes(batch)
        # The insert before the bad item stays, and links can reach it.
        assert small_network.has_node("f")
        small_network.add_links([("e", "f", INTRA_AS)])
        assert small_network.neighbors("f") == ["e"]

    @pytest.mark.parametrize(
        "bad, error",
        [(("a", "b"), ValueError), (("c", "c"), ValueError), (("c", "nope"), KeyError)],
    )
    def test_bulk_link_batch_raises_on_later_bad_link(self, small_network, bad, error):
        assert "c" not in small_network.neighbors("a")
        with pytest.raises(error):
            small_network.add_links([("a", "c", INTRA_AS), (*bad, INTRA_AS)])
        # The link before the bad item stays; nothing after it is added.
        assert small_network.link("a", "c").other("a") == "c"
        assert len(small_network.links()) == 6

    def test_neighbors(self, small_network):
        assert sorted(small_network.neighbors("a")) == ["b", "e"]

    def test_kind_filter(self, small_network):
        assert len(small_network.nodes("AP")) == 5
        assert small_network.nodes("BR") == []

    def test_connected_components_when_partitioned(self, small_network):
        small_network.set_node_state("b", NodeState.FAILED)
        small_network.set_node_state("e", NodeState.FAILED)
        components = small_network.connected_components()
        assert sorted(len(c) for c in components) == [1, 2]

    def test_operational_nodes_excludes_failed(self, small_network):
        small_network.set_node_state("a", NodeState.FAILED)
        assert len([n for n in small_network.nodes() if n.is_operational]) == 4

    def test_link_other_endpoint(self, small_network):
        link = small_network.link("a", "b")
        assert link.other("a") == "b"
        assert link.other("b") == "a"
        with pytest.raises(KeyError):
            link.other("zzz")


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------


class TestTransport:
    def _register_collector(self, transport, node_id, inbox):
        transport.register(node_id, lambda msg: inbox.append(msg))

    def test_basic_delivery(self, engine, transport):
        inbox = []
        self._register_collector(transport, "c", inbox)
        receipt = transport.send("a", "c", "hello", {"x": 1})
        assert receipt.accepted
        engine.run()
        assert len(inbox) == 1
        assert inbox[0].payload["x"] == 1
        assert transport.metrics.counter("transport.delivered").value == 1

    def test_register_unknown_node_rejected(self, transport):
        with pytest.raises(TransportError):
            transport.register("nope", lambda msg: None)

    def test_delivery_takes_time(self, engine, transport):
        inbox = []
        self._register_collector(transport, "d", inbox)
        transport.send("a", "d", "ping")
        engine.run()
        assert engine.now > 0.0

    def test_local_delivery_is_immediate(self, engine, transport):
        inbox = []
        self._register_collector(transport, "a", inbox)
        transport.send("a", "a", "self")
        engine.run()
        assert engine.now == 0.0
        assert len(inbox) == 1

    def test_send_from_failed_source_dropped(self, engine, transport, node_network):
        inbox = []
        self._register_collector(transport, "b", inbox)
        node_network.set_node_state("a", NodeState.FAILED)
        receipt = transport.send("a", "b", "msg")
        assert not receipt.accepted
        assert receipt.reason == "source-not-operational"
        engine.run()
        assert inbox == []

    def test_send_to_failed_destination_dropped(self, engine, transport, node_network):
        node_network.set_node_state("c", NodeState.FAILED)
        receipt = transport.send("a", "c", "msg")
        assert not receipt.accepted
        assert transport.metrics.counter("transport.dropped").value == 1

    def test_destination_fails_in_flight(self, engine, transport, node_network):
        inbox = []
        self._register_collector(transport, "c", inbox)
        transport.send("a", "c", "msg")
        node_network.set_node_state("c", NodeState.FAILED)
        engine.run()
        assert inbox == []
        assert transport.metrics.counter("transport.dropped").value == 1

    def test_no_handler_counts_as_drop(self, engine, transport):
        transport.send("a", "b", "msg")
        engine.run()
        assert transport.metrics.counter("transport.dropped").value == 1

    def test_logical_hop_counting(self, engine, transport):
        inbox = []
        self._register_collector(transport, "b", inbox)
        self._register_collector(transport, "c", inbox)
        transport.send("a", "b", "one")
        transport.send("a", "c", "two")
        transport.send("a", "a", "self")
        engine.run()
        counters = transport.metrics.counters
        # A local delivery is sent but crosses no logical hop.
        assert counters["transport.logical_hops"].value == 2
        assert counters["transport.sent"].value == 3
        assert counters["transport.sent.one"].value == 1

    def test_a_loss_is_dropped_once_counted_and_never_retried(self, engine, node_network, streams):
        lossy_transport = Transport(engine, node_network, streams, LatencyModel(mean=1.0, loss=0.4))
        inbox = []
        lossy_transport.register("b", lambda msg: inbox.append(msg))
        receipts = [lossy_transport.send("a", "b", "msg") for _ in range(40)]
        engine.run()
        lost = [r for r in receipts if not r.accepted]
        assert lost and all(r.reason == "lost" for r in lost)
        counters = lossy_transport.metrics.counters
        assert counters["transport.dropped.lost"].value == len(lost)
        assert counters["transport.dropped"].value == len(lost)
        # Each send is one datagram: delivered once or not at all.
        assert sorted(m.message_id for m in inbox) == [
            r.message.message_id for r in receipts if r.accepted
        ]
        assert len(inbox) + len(lost) == counters["transport.sent"].value == 40

    def test_unregister(self, engine, transport):
        inbox = []
        self._register_collector(transport, "b", inbox)
        transport.unregister("b")
        transport.send("a", "b", "msg")
        engine.run()
        assert inbox == []
        assert transport.metrics.counter("transport.dropped.no-handler").value == 1
