"""The 4-tier integrated mobile Internet architecture (paper Section 3).

The topology package generates instances of the architecture in Figure 1 —
Mobile Host Tier, Wireless Access Network Tier (access proxies), Intra-AS
Tier (access gateways) and Inter-AS Tier (border routers) — as a
:class:`repro.sim.network.Network` plus structural metadata that the RGB
hierarchy builder and the baselines consume.
"""
