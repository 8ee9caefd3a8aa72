"""Topology generation: build a simulated network from a :class:`TopologySpec`.

The generated graph mirrors Figure 1 of the paper:

* border routers form a full mesh (the Inter-AS tier — BGP peers);
* each access gateway links to its border router (Intra-AS tier);
* access gateways under the same border router also link to each other
  directly (they sit in the same or peered ASes), which gives the ring layer
  usable physical paths;
* each access proxy links to its access gateway and to the other APs of the
  same gateway (they share the wired side of the access network);
* each mobile host links to its current access proxy over a wireless edge
  whose latency model depends on the access-network kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.sim.network import INTER_AS, INTRA_AS, Network, NetworkNode
from repro.sim.rng import RandomStreams
from repro.topology.architecture import MOBILE_HOST_CLASSES, FourTierArchitecture, TopologySpec
from repro.topology.wireless import access_network_profile


@dataclass
class GeneratedTopology:
    """Result of :meth:`TopologyGenerator.generate`."""

    network: Network
    architecture: FourTierArchitecture

    @property
    def access_proxies(self) -> List[str]:
        return list(self.architecture.access_proxies)

    @property
    def access_gateways(self) -> List[str]:
        return list(self.architecture.access_gateways)

    @property
    def border_routers(self) -> List[str]:
        return list(self.architecture.border_routers)

    @property
    def mobile_hosts(self) -> List[str]:
        return list(self.architecture.mobile_hosts)


class TopologyGenerator:
    """Builds :class:`GeneratedTopology` instances from a spec.

    The generator is deterministic given ``streams``: access-network kinds and
    device classes are sampled from the ``"topology"`` stream.
    """

    def __init__(self, spec: TopologySpec, streams: Optional[RandomStreams] = None) -> None:
        self.spec = spec
        self.streams = streams if streams is not None else RandomStreams(0)
        self._rng = self.streams.stream("topology")

    # -- naming helpers ------------------------------------------------------

    @staticmethod
    def br_id(index: int) -> str:
        return f"br-{index:03d}"

    @staticmethod
    def ag_id(br_index: int, index: int) -> str:
        return f"ag-{br_index:03d}-{index:03d}"

    @staticmethod
    def ap_id(br_index: int, ag_index: int, index: int) -> str:
        return f"ap-{br_index:03d}-{ag_index:03d}-{index:03d}"

    @staticmethod
    def mh_id(index: int) -> str:
        return f"mh-{index:05d}"

    # -- generation -----------------------------------------------------------

    def generate(self) -> GeneratedTopology:
        """Build the network and architecture metadata.

        Whole tiers are assembled as lists and installed through the
        network's batch endpoints (:meth:`repro.sim.network.Network.add_nodes`
        / ``add_links``) with the stochastic attributes drawn as one vector
        per tier — per-node adds and ``choice`` calls made generation the
        dominant cost of large generated topologies.
        """
        spec = self.spec
        network = Network()
        arch = FourTierArchitecture(spec=spec)

        kinds = list(spec.access_network_mix.keys())
        kind_weights = np.array([spec.access_network_mix[k] for k in kinds], dtype=float)
        kind_weights = kind_weights / kind_weights.sum()

        # Inter-AS tier: border routers, full mesh.
        arch.border_routers.extend(self.br_id(b) for b in range(spec.num_border_routers))
        brs = arch.border_routers
        network.add_nodes(NetworkNode(node_id=br, kind="BR", tier=3) for br in brs)
        network.add_links(
            (a, b, INTER_AS) for i, a in enumerate(brs) for b in brs[i + 1 :]
        )

        # Intra-AS tier: access gateways.
        ag_nodes: List[NetworkNode] = []
        ag_links: List[tuple] = []
        for b in range(spec.num_border_routers):
            br = self.br_id(b)
            ags_here = [self.ag_id(b, g) for g in range(spec.ags_per_br)]
            for ag in ags_here:
                ag_nodes.append(NetworkNode(node_id=ag, kind="AG", tier=2))
                arch.ag_parent[ag] = br
                ag_links.append((ag, br, INTRA_AS))
            arch.access_gateways.extend(ags_here)
            # Gateways of the same AS can reach each other directly.
            ag_links.extend(
                (a, other, INTRA_AS)
                for i, a in enumerate(ags_here)
                for other in ags_here[i + 1 :]
            )
        network.add_nodes(ag_nodes)
        network.add_links(ag_links)

        # Wireless access network tier: access proxies.  One vectorised draw
        # decides every AP's access-network kind.
        num_aps = spec.num_border_routers * spec.ags_per_br * spec.aps_per_ag
        kind_draws = self._rng.choice(len(kinds), size=num_aps, p=kind_weights)
        ap_nodes: List[NetworkNode] = []
        ap_links: List[tuple] = []
        draw_index = 0
        for b in range(spec.num_border_routers):
            for g in range(spec.ags_per_br):
                ag = self.ag_id(b, g)
                aps_here = [self.ap_id(b, g, p) for p in range(spec.aps_per_ag)]
                for ap in aps_here:
                    kind = kinds[int(kind_draws[draw_index])]
                    draw_index += 1
                    ap_nodes.append(
                        NetworkNode(
                            node_id=ap,
                            kind="AP",
                            tier=1,
                            metadata={"access_network": kind.value},
                        )
                    )
                    arch.ap_parent[ap] = ag
                    arch.ap_access_network[ap] = kind
                    ap_links.append((ap, ag, INTRA_AS))
                arch.access_proxies.extend(aps_here)
                # APs under one gateway share the access network's wired side.
                ap_links.extend(
                    (a, other, INTRA_AS)
                    for i, a in enumerate(aps_here)
                    for other in aps_here[i + 1 :]
                )
        network.add_nodes(ap_nodes)
        network.add_links(ap_links)

        # Mobile host tier: one vectorised draw for every host's device class.
        num_hosts = len(arch.access_proxies) * spec.hosts_per_ap
        device_draws = (
            self._rng.integers(len(MOBILE_HOST_CLASSES), size=num_hosts)
            if num_hosts
            else ()
        )
        mh_nodes: List[NetworkNode] = []
        mh_links: List[tuple] = []
        host_index = 0
        for ap in arch.access_proxies:
            profile = access_network_profile(arch.ap_access_network[ap])
            for _ in range(spec.hosts_per_ap):
                mh = self.mh_id(host_index)
                device = MOBILE_HOST_CLASSES[int(device_draws[host_index])]
                host_index += 1
                mh_nodes.append(
                    NetworkNode(
                        node_id=mh,
                        kind="MH",
                        tier=0,
                        metadata={"device": device},
                    )
                )
                arch.mobile_hosts.append(mh)
                arch.host_attachment[mh] = ap
                arch.host_device_class[mh] = device
                mh_links.append((mh, ap, profile.edge_latency))
        network.add_nodes(mh_nodes)
        network.add_links(mh_links)

        arch.invalidate_indexes()
        arch.validate()
        return GeneratedTopology(network=network, architecture=arch)
