"""Unit tests for the network graph, latency models and the notification transport."""

from __future__ import annotations

import pytest

from repro.core.delivery import Notification
from repro.core.identifiers import NodeId
from repro.sim.network import (
    INTER_AS,
    INTRA_AS,
    LatencyModel,
    NetworkNode,
    NodeState,
)
from repro.sim.transport import Transport


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
        small_network.node("b").state = NodeState.FAILED
        small_network.node("e").state = NodeState.FAILED
        components = small_network.connected_components()
        assert sorted(len(c) for c in components) == [1, 2]

    def test_operational_nodes_excludes_failed(self, small_network):
        small_network.node("a").state = NodeState.FAILED
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


def _note(sender: str, target: str) -> Notification:
    return Notification(NodeId(sender), NodeId(target), (), "ring-0")


class TestTransport:
    def test_basic_delivery(self, engine, transport):
        inbox = []
        entry = _note("a", "c")
        arrival = transport.send(entry, inbox.append)
        assert arrival is not None
        engine.run()
        assert inbox == [entry]
        assert engine.now == arrival
        assert transport.metrics.counter("transport.delivered").value == 1

    def test_delivery_takes_time(self, engine, transport):
        inbox = []
        transport.send(_note("a", "d"), inbox.append)
        engine.run()
        assert engine.now > 0.0
        assert len(inbox) == 1

    def test_local_delivery_is_immediate(self, engine, transport):
        inbox = []
        assert transport.send(_note("a", "a"), inbox.append) == 0.0
        engine.run()
        assert engine.now == 0.0
        assert len(inbox) == 1

    def test_send_from_failed_source_dropped(self, engine, transport, down):
        inbox = []
        down["a"] = NodeState.FAILED
        assert transport.send(_note("a", "b"), inbox.append) is None
        engine.run()
        assert inbox == []
        counters = transport.metrics.counters
        assert counters["transport.dropped.source-not-operational"].value == 1

    def test_send_to_failed_destination_dropped(self, engine, transport, down):
        down["c"] = NodeState.FAILED
        assert transport.send(_note("a", "c"), [].append) is None
        assert transport.metrics.counter("transport.dropped").value == 1

    def test_destination_fails_in_flight(self, engine, transport, down):
        inbox = []
        transport.send(_note("a", "c"), inbox.append)
        down["c"] = NodeState.FAILED
        engine.run()
        assert inbox == []
        counters = transport.metrics.counters
        assert counters["transport.dropped"].value == 1
        assert counters["transport.dropped.destination-down-at-delivery"].value == 1

    def test_a_disconnected_destination_is_sent_to_and_healing_delivers(
        self, engine, transport, down
    ):
        """Only a crash drops a send up front: a disconnected destination may
        heal before the datagram lands."""
        inbox = []
        down["c"] = NodeState.DISCONNECTED
        assert transport.send(_note("a", "c"), inbox.append) is not None
        del down["c"]
        engine.run()
        assert len(inbox) == 1

    def test_logical_hop_counting(self, engine, transport):
        inbox = []
        transport.send(_note("a", "b"), inbox.append)
        transport.send(_note("a", "c"), inbox.append)
        transport.send(_note("a", "a"), inbox.append)
        engine.run()
        counters = transport.metrics.counters
        # A local delivery is sent but crosses no logical hop.
        assert counters["transport.logical_hops"].value == 2
        assert counters["transport.sent"].value == 3
        assert counters["transport.sent.rgb.notify"].value == 3

    def test_a_loss_is_dropped_once_counted_and_never_retried(self, engine, down, streams):
        lossy_transport = Transport(engine, down, streams, LatencyModel(mean=1.0, loss=0.4))
        inbox = []
        sends = [_note("a", "b") for _ in range(40)]
        arrivals = [lossy_transport.send(entry, inbox.append) for entry in sends]
        engine.run()
        lost = [entry for entry, arrival in zip(sends, arrivals) if arrival is None]
        counters = lossy_transport.metrics.counters
        assert lost
        assert counters["transport.dropped.lost"].value == len(lost)
        assert counters["transport.dropped"].value == len(lost)
        # Each send is one datagram: delivered once or not at all.
        assert sorted(map(id, inbox)) == sorted(
            id(entry) for entry, arrival in zip(sends, arrivals) if arrival is not None
        )
        assert len(inbox) + len(lost) == counters["transport.sent"].value == 40
