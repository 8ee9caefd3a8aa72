"""Specification of the 4-tier integrated network architecture.

Paper Section 3 describes four tiers:

* **Mobile Host Tier** — laptops, PDAs, mobile phones, mobile video phones.
* **Wireless Access Network Tier** — wireless LANs, cellular networks and
  satellite networks; their access points / base stations / satellites are
  abstracted as *Access Proxies* (APs).
* **Intra-AS Network Tier** — individual autonomous systems; wireless access
  networks attach to ASes through *Access Gateways* (AGs).
* **Inter-AS Network Tier** — border routers (BRs) interconnecting ASes via
  BGP.

The classes in this module describe *what to generate*; the actual node/link
graph is produced by :class:`repro.topology.generator.TopologyGenerator`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class AccessNetworkKind(enum.Enum):
    """Kinds of wireless access networks named in the paper."""

    WIRELESS_LAN = "wireless-lan"
    CELLULAR = "cellular"
    SATELLITE = "satellite"


#: Mobile host device classes named in Figure 1.
MOBILE_HOST_CLASSES: Tuple[str, ...] = (
    "laptop",
    "pda",
    "mobile-phone",
    "mobile-video-phone",
)


@dataclass(frozen=True)
class TopologySpec:
    """Full specification of a generated 4-tier topology.

    Parameters
    ----------
    num_border_routers:
        Entities in the Inter-AS tier.  The paper's Figure 2 shows a single
        topmost ring of BRs.
    ags_per_br:
        Access gateways attached to each border router (one AS per BR in the
        generated topology — a simplification that keeps the hierarchy regular,
        matching the full/worst-case hierarchy the analysis assumes).
    aps_per_ag:
        Access proxies attached to each access gateway.
    hosts_per_ap:
        Mobile hosts initially attached per access proxy (hosts may later move
        or join/leave through the mobility model).
    access_network_mix:
        Fraction of APs drawn from each access-network kind; must sum to 1.
    """

    num_border_routers: int = 3
    ags_per_br: int = 3
    aps_per_ag: int = 5
    hosts_per_ap: int = 4
    access_network_mix: Dict[AccessNetworkKind, float] = field(
        default_factory=lambda: {
            AccessNetworkKind.WIRELESS_LAN: 0.6,
            AccessNetworkKind.CELLULAR: 0.3,
            AccessNetworkKind.SATELLITE: 0.1,
        }
    )

    def __post_init__(self) -> None:
        for name, value in (
            ("num_border_routers", self.num_border_routers),
            ("ags_per_br", self.ags_per_br),
            ("aps_per_ag", self.aps_per_ag),
        ):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.hosts_per_ap < 0:
            raise ValueError(f"hosts_per_ap must be >= 0, got {self.hosts_per_ap}")
        total = sum(self.access_network_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"access_network_mix must sum to 1, got {total}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def regular(ring_size: int, height: int, hosts_per_ap: int = 0) -> "TopologySpec":
        """The regular (full) topology used by the paper's analysis.

        The analysis assumes a ring-based hierarchy of height ``h`` where every
        ring contains exactly ``r`` nodes, giving ``n = r**h`` access proxies.
        Height 2 means BR ring over AP rings; height 3 adds the AG tier.  For
        ``height > 3`` the extra levels are modelled as sub-tiers of AGs by the
        hierarchy builder; the physical topology generated here always has the
        three network-entity tiers of Figure 1.
        """
        if ring_size < 2:
            raise ValueError(f"ring_size must be >= 2, got {ring_size}")
        if height < 2:
            raise ValueError(f"height must be >= 2, got {height}")
        if height == 2:
            return TopologySpec(
                num_border_routers=ring_size,
                ags_per_br=1,
                aps_per_ag=ring_size,
                hosts_per_ap=hosts_per_ap,
            )
        # height >= 3: r BRs, r AGs per BR, r**(h-2) APs per AG.
        aps_per_ag = ring_size ** (height - 2)
        return TopologySpec(
            num_border_routers=ring_size,
            ags_per_br=ring_size,
            aps_per_ag=aps_per_ag,
            hosts_per_ap=hosts_per_ap,
        )


@dataclass
class FourTierArchitecture:
    """Structural description of one generated architecture instance.

    Holds the identifiers of every entity per tier and the attachment maps
    (AP → AG, AG → BR, MH → AP).  The generator fills this in alongside the
    simulated :class:`repro.sim.network.Network`.

    The parent/attachment maps are treated as **frozen after generation**:
    the children lookups (:meth:`aps_of_ag` and friends) serve from a lazily
    built reverse index, so anything that mutates ``ap_parent`` /
    ``ag_parent`` / ``host_attachment`` directly afterwards must call
    :meth:`invalidate_indexes` or the lookups serve stale children.
    (Dynamic attachment during simulations lives in the protocol state, not
    here — no shipped code mutates these maps post-generate.)
    """

    spec: TopologySpec
    border_routers: List[str] = field(default_factory=list)
    access_gateways: List[str] = field(default_factory=list)
    access_proxies: List[str] = field(default_factory=list)
    mobile_hosts: List[str] = field(default_factory=list)
    ap_parent: Dict[str, str] = field(default_factory=dict)
    ag_parent: Dict[str, str] = field(default_factory=dict)
    host_attachment: Dict[str, str] = field(default_factory=dict)
    ap_access_network: Dict[str, AccessNetworkKind] = field(default_factory=dict)
    host_device_class: Dict[str, str] = field(default_factory=dict)
    #: Version counter for the parent/attachment maps above; bump (or call
    #: :meth:`invalidate_indexes`) after mutating them so the lazily built
    #: children indexes below stay correct.
    _index_version: int = field(default=0, repr=False, compare=False)
    _children_cache: Optional[Tuple[int, Dict[str, Dict[str, List[str]]]]] = field(
        default=None, repr=False, compare=False
    )

    def invalidate_indexes(self) -> None:
        """Drop the cached children indexes after mutating the parent maps."""
        self._index_version += 1
        self._children_cache = None

    def _children(self, relation: str) -> Dict[str, List[str]]:
        """Lazily built parent → children index for one of the parent maps.

        The per-call scans this replaces (``[ap for ap, ag in ... if ...]``)
        made ``HierarchyBuilder.from_topology`` quadratic in the proxy count;
        one pass over each map amortises every subsequent lookup to O(1).
        """
        cached = self._children_cache
        if cached is None or cached[0] != self._index_version:
            indexes: Dict[str, Dict[str, List[str]]] = {"ag": {}, "br": {}, "ap": {}}
            for ap, ag in self.ap_parent.items():
                indexes["ag"].setdefault(ag, []).append(ap)
            for ag, br in self.ag_parent.items():
                indexes["br"].setdefault(br, []).append(ag)
            for mh, ap in self.host_attachment.items():
                indexes["ap"].setdefault(ap, []).append(mh)
            cached = (self._index_version, indexes)
            self._children_cache = cached
        return cached[1][relation]

    def aps_of_ag(self, ag_id: str) -> List[str]:
        """Access proxies whose parent gateway is ``ag_id``."""
        return list(self._children("ag").get(ag_id, ()))

    def ags_of_br(self, br_id: str) -> List[str]:
        """Access gateways whose parent border router is ``br_id``."""
        return list(self._children("br").get(br_id, ()))

    def hosts_of_ap(self, ap_id: str) -> List[str]:
        """Mobile hosts currently attached to ``ap_id``."""
        return list(self._children("ap").get(ap_id, ()))

    def tier_counts(self) -> Dict[str, int]:
        return {
            "border_routers": len(self.border_routers),
            "access_gateways": len(self.access_gateways),
            "access_proxies": len(self.access_proxies),
            "mobile_hosts": len(self.mobile_hosts),
        }

    def validate(self) -> None:
        """Internal consistency checks used by property tests."""
        for ap, ag in self.ap_parent.items():
            if ag not in self.access_gateways:
                raise ValueError(f"AP {ap!r} attached to unknown AG {ag!r}")
        for ag, br in self.ag_parent.items():
            if br not in self.border_routers:
                raise ValueError(f"AG {ag!r} attached to unknown BR {br!r}")
        for mh, ap in self.host_attachment.items():
            if ap not in self.access_proxies:
                raise ValueError(f"MH {mh!r} attached to unknown AP {ap!r}")
        if set(self.ap_parent) != set(self.access_proxies):
            raise ValueError("every access proxy must have exactly one parent gateway")
        if set(self.ag_parent) != set(self.access_gateways):
            raise ValueError("every access gateway must have exactly one parent border router")
