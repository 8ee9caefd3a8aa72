"""Unit tests for the 4-tier topology generation and rendering (Figures 1–2)."""

from __future__ import annotations

import pytest

from repro.core.hierarchy import HierarchyBuilder
from repro.sim.rng import RandomStreams
from repro.topology.architecture import (
    AccessNetworkKind,
    TopologySpec,
)
from repro.topology.generator import TopologyGenerator
from repro.topology.rendering import render_architecture, render_hierarchy, render_tier_counts
from repro.topology.wireless import access_network_profile


class TestTopologySpec:
    def test_derived_sizes(self):
        spec = TopologySpec(num_border_routers=2, ags_per_br=3, aps_per_ag=4, hosts_per_ap=5)
        counts = TopologyGenerator(spec, RandomStreams(0)).generate().architecture.tier_counts()
        assert counts["access_gateways"] == 6
        assert counts["access_proxies"] == 24
        assert counts["mobile_hosts"] == 120

    def test_regular_height_two(self):
        spec = TopologySpec.regular(ring_size=5, height=2)
        assert spec.num_border_routers * spec.ags_per_br * spec.aps_per_ag == 25

    def test_regular_height_three(self):
        spec = TopologySpec.regular(ring_size=5, height=3)
        assert spec.num_border_routers * spec.ags_per_br * spec.aps_per_ag == 125

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            TopologySpec(access_network_mix={AccessNetworkKind.WIRELESS_LAN: 0.5})

    @pytest.mark.parametrize("field,value", [("num_border_routers", 0), ("ags_per_br", 0), ("aps_per_ag", 0), ("hosts_per_ap", -1)])
    def test_invalid_counts_rejected(self, field, value):
        kwargs = {field: value}
        with pytest.raises(ValueError):
            TopologySpec(**kwargs)

    def test_regular_invalid(self):
        with pytest.raises(ValueError):
            TopologySpec.regular(ring_size=1, height=2)
        with pytest.raises(ValueError):
            TopologySpec.regular(ring_size=5, height=1)


class TestWirelessProfiles:
    def test_all_kinds_have_profiles(self):
        for kind in AccessNetworkKind:
            assert access_network_profile(kind).kind is kind

    def test_satellite_has_highest_latency(self):
        sat = access_network_profile(AccessNetworkKind.SATELLITE)
        wlan = access_network_profile(AccessNetworkKind.WIRELESS_LAN)
        assert sat.edge_latency.mean > wlan.edge_latency.mean
        assert sat.mean_cell_residency > wlan.mean_cell_residency


class TestTopologyGenerator:
    def test_tier_counts_match_spec(self, small_topology):
        counts = small_topology.architecture.tier_counts()
        assert counts == {
            "border_routers": 2,
            "access_gateways": 4,
            "access_proxies": 12,
            "mobile_hosts": 24,
        }

    def test_architecture_is_internally_consistent(self, small_topology):
        small_topology.architecture.validate()

    def test_every_ap_has_a_parent_gateway(self, small_topology):
        arch = small_topology.architecture
        for ap in arch.access_proxies:
            assert arch.ap_parent[ap] in arch.access_gateways

    def test_every_host_attached_to_ap_with_wireless_link(self, small_topology):
        arch = small_topology.architecture
        network = small_topology.network
        for mh in arch.mobile_hosts:
            ap = arch.host_attachment[mh]
            assert network.has_link(mh, ap)

    def test_border_routers_fully_meshed(self, small_topology):
        arch = small_topology.architecture
        network = small_topology.network
        brs = arch.border_routers
        for i, a in enumerate(brs):
            for b in brs[i + 1 :]:
                assert network.has_link(a, b)

    def test_all_entities_reachable_from_any_br(self, small_topology):
        arch = small_topology.architecture
        network = small_topology.network
        source = arch.border_routers[0]
        for ap in arch.access_proxies:
            assert network.path(source, ap) is not None

    def test_deterministic_given_seed(self):
        spec = TopologySpec(num_border_routers=2, ags_per_br=2, aps_per_ag=2, hosts_per_ap=1)
        t1 = TopologyGenerator(spec, RandomStreams(3)).generate()
        t2 = TopologyGenerator(spec, RandomStreams(3)).generate()
        assert t1.architecture.ap_access_network == t2.architecture.ap_access_network
        assert t1.architecture.host_device_class == t2.architecture.host_device_class

    def test_ap_neighbors_are_same_gateway_aps(self, small_topology):
        arch = small_topology.architecture
        for ap, ag in arch.ap_parent.items():
            siblings = arch.aps_of_ag(ag)
            assert ap in siblings
            for other in siblings:
                assert arch.ap_parent[other] == ag

    def test_generate_regular_topology_sizes(self):
        spec = TopologySpec.regular(ring_size=3, height=3)
        topo = TopologyGenerator(spec, RandomStreams(0)).generate()
        assert len(topo.access_proxies) == 27
        assert len(topo.border_routers) == 3

    def test_access_network_kinds_assigned(self, small_topology):
        arch = small_topology.architecture
        assert set(arch.ap_access_network) == set(arch.access_proxies)
        assert all(isinstance(v, AccessNetworkKind) for v in arch.ap_access_network.values())


class TestRendering:
    def test_tier_counts_rendering_mentions_all_tiers(self, small_topology):
        text = render_tier_counts(small_topology.architecture)
        for keyword in ("Inter-AS", "Intra-AS", "Wireless Access", "Mobile Host"):
            assert keyword in text

    def test_architecture_rendering_lists_entities(self, small_topology):
        text = render_architecture(small_topology.architecture)
        assert "br-000" in text
        assert "ag-000-000" in text
        assert "ap-000-000-000" in text

    def test_hierarchy_rendering_shows_rings_and_leaders(self, small_topology):
        hierarchy = HierarchyBuilder("g").from_topology(small_topology)
        text = render_hierarchy(hierarchy)
        assert "Border Router Tier" in text
        assert "Access Proxy Tier" in text
        assert "*" in text  # leader marker
        assert "(topmost)" in text
