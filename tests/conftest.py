"""Shared fixtures for the test suite."""

from __future__ import annotations

import hypothesis_profiles  # noqa: F401  (registers the tier1 / explore profiles)
import pytest
from hypothesis import settings

from repro.core.config import ProtocolConfig, SimulationConfig
from repro.core.hierarchy import HierarchyBuilder, RingHierarchy
from repro.core.one_round import OneRoundEngine
from repro.core.simulation import RGBSimulation
from repro.sim.engine import SimulationEngine
from repro.sim.network import INTRA_AS, Network, NetworkNode
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport
from repro.topology.architecture import TopologySpec
from repro.topology.generator import TopologyGenerator

# The default profile; ``--hypothesis-profile=explore`` replaces it after this.
settings.load_profile("tier1")


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(1234)


@pytest.fixture
def engine() -> SimulationEngine:
    return SimulationEngine()


@pytest.fixture
def small_network() -> Network:
    """A five-node line-plus-shortcut network used by transport tests."""
    network = Network()
    for name in ("a", "b", "c", "d", "e"):
        network.add_node(NetworkNode(node_id=name, kind="AP"))
    network.add_link("a", "b", INTRA_AS)
    network.add_link("b", "c", INTRA_AS)
    network.add_link("c", "d", INTRA_AS)
    network.add_link("d", "e", INTRA_AS)
    network.add_link("a", "e", INTRA_AS)
    return network


@pytest.fixture
def transport(engine, small_network, streams) -> Transport:
    return Transport(engine, small_network, streams)


@pytest.fixture
def small_topology():
    spec = TopologySpec(num_border_routers=2, ags_per_br=2, aps_per_ag=3, hosts_per_ap=2)
    return TopologyGenerator(spec, RandomStreams(7)).generate()


@pytest.fixture
def regular_hierarchy() -> RingHierarchy:
    """Regular hierarchy, h=2, r=3: one top ring over three 3-node AP rings."""
    return HierarchyBuilder("test-group").regular(ring_size=3, height=2)


@pytest.fixture
def deep_hierarchy() -> RingHierarchy:
    """Regular hierarchy, h=3, r=3 (27 access proxies, 13 rings)."""
    return HierarchyBuilder("test-group").regular(ring_size=3, height=3)


@pytest.fixture
def one_round_engine(deep_hierarchy) -> OneRoundEngine:
    return OneRoundEngine(deep_hierarchy, config=ProtocolConfig(aggregation_delay=0.0))


@pytest.fixture
def structural_sim() -> RGBSimulation:
    return RGBSimulation(
        SimulationConfig(num_aps=12, ring_size=4, hosts_per_ap=0, seed=3)
    ).build()


@pytest.fixture
def event_sim() -> RGBSimulation:
    return RGBSimulation(
        SimulationConfig(
            num_aps=12,
            ring_size=4,
            hosts_per_ap=0,
            seed=3,
            engine_mode="event",
            protocol=ProtocolConfig(aggregation_delay=1.0),
        )
    ).build()
