"""Wireless access network profiles.

The Wireless Access Network Tier comprises wireless LANs, cellular networks
and satellite networks (paper Section 3).  Access proxies abstract the access
points / base stations / satellites of those networks; what differs between
the kinds, from the protocol's point of view, is the latency and loss of the
MH ⇄ AP edge and the expected cell residency time (satellite "cells" are huge,
WLAN cells are small — the paper's motivation for frequent handoff is the
trend towards smaller cells).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.network import LatencyModel
from repro.topology.architecture import AccessNetworkKind


@dataclass(frozen=True)
class AccessNetwork:
    """Edge characteristics of one access-network kind."""

    kind: AccessNetworkKind
    edge_latency: LatencyModel
    mean_cell_residency: float
    display_name: str

    def __post_init__(self) -> None:
        if self.mean_cell_residency <= 0:
            raise ValueError(
                f"mean cell residency must be positive, got {self.mean_cell_residency}"
            )


_PROFILES = {
    AccessNetworkKind.WIRELESS_LAN: AccessNetwork(
        kind=AccessNetworkKind.WIRELESS_LAN,
        edge_latency=LatencyModel(mean=5.0, std=2.0, loss=0.0),
        mean_cell_residency=120.0,
        display_name="Wireless LAN",
    ),
    AccessNetworkKind.CELLULAR: AccessNetwork(
        kind=AccessNetworkKind.CELLULAR,
        edge_latency=LatencyModel(mean=40.0, std=15.0, loss=0.0),
        mean_cell_residency=600.0,
        display_name="Cellular network",
    ),
    AccessNetworkKind.SATELLITE: AccessNetwork(
        kind=AccessNetworkKind.SATELLITE,
        edge_latency=LatencyModel(mean=270.0, std=30.0, loss=0.0),
        mean_cell_residency=3600.0,
        display_name="Satellite network",
    ),
}


def access_network_profile(kind: AccessNetworkKind) -> AccessNetwork:
    """Return the built-in profile for an access-network kind."""
    try:
        return _PROFILES[kind]
    except KeyError:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown access network kind {kind!r}") from None
