"""Shared fixtures for the test suite."""

from __future__ import annotations

from typing import Dict

import hypothesis_profiles  # noqa: F401  (registers the tier1 / explore profiles)
import pytest
from hypothesis import settings

from repro.core.config import SimulationConfig
from repro.core.hierarchy import HierarchyBuilder, RingHierarchy
from repro.core.one_round import OneRoundEngine
from repro.core.simulation import RGBSimulation
from repro.sim.engine import SimulationEngine
from repro.sim.network import INTRA_AS, Network, NetworkNode, NodeState
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
    """A five-node line-plus-shortcut network used by network tests."""
    network = Network()
    network.add_nodes(NetworkNode(node_id=name, kind="AP") for name in "abcde")
    network.add_links((a, b, INTRA_AS) for a, b in ("ab", "bc", "cd", "de", "ae"))
    return network


@pytest.fixture
def down() -> Dict[str, NodeState]:
    """The liveness table a transport reads: every node starts up."""
    return {}


@pytest.fixture
def transport(engine, down, streams) -> Transport:
    return Transport(engine, down, streams, INTRA_AS)


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
    return OneRoundEngine(deep_hierarchy)


@pytest.fixture
def sim() -> RGBSimulation:
    """The facade over 12 access proxies in rings of 4, no members yet."""
    return RGBSimulation(
        SimulationConfig(num_aps=12, ring_size=4, hosts_per_ap=0, seed=3)
    ).build()
