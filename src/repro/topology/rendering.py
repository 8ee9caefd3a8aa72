"""Textual rendering of the architecture (Figure 1) and hierarchy (Figure 2).

The paper's Figures 1 and 2 are diagrams rather than measured results; the
reproduction regenerates them as structured text so the benchmark harness can
show that the generated topology and the constructed ring hierarchy have the
shape the figures describe (tier counts, rings per tier, one leader per ring,
logical links to parents).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.topology.architecture import FourTierArchitecture

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.hierarchy import RingHierarchy


def render_tier_counts(architecture: FourTierArchitecture) -> str:
    """One-line-per-tier summary of an architecture instance."""
    counts = architecture.tier_counts()
    lines = [
        "4-Tier Integrated Network Architecture",
        f"  Inter-AS Network Tier   : {counts['border_routers']:5d} border routers",
        f"  Intra-AS Network Tier   : {counts['access_gateways']:5d} access gateways",
        f"  Wireless Access Tier    : {counts['access_proxies']:5d} access proxies",
        f"  Mobile Host Tier        : {counts['mobile_hosts']:5d} mobile hosts",
    ]
    return "\n".join(lines)


def render_architecture(architecture: FourTierArchitecture, max_children: int = 4) -> str:
    """Indented tree rendering of BR → AG → AP → MH attachment (Figure 1)."""
    lines: List[str] = [render_tier_counts(architecture), ""]
    for br in architecture.border_routers:
        lines.append(f"{br}  [Inter-AS]")
        ags = architecture.ags_of_br(br)
        for ag in _truncate(ags, max_children, lines, indent="  "):
            lines.append(f"  {ag}  [Intra-AS]")
            aps = architecture.aps_of_ag(ag)
            for ap in _truncate(aps, max_children, lines, indent="    "):
                kind = architecture.ap_access_network.get(ap)
                kind_name = kind.value if kind is not None else "unknown"
                hosts = architecture.hosts_of_ap(ap)
                lines.append(f"    {ap}  [{kind_name}]  ({len(hosts)} mobile hosts)")
    return "\n".join(lines)


def _truncate(items: List[str], limit: int, lines: List[str], indent: str) -> List[str]:
    """Return the first ``limit`` items, appending an ellipsis line if cut."""
    if len(items) <= limit:
        return items
    shown = items[:limit]
    lines.append(f"{indent}... ({len(items) - limit} more)")
    return shown


def render_hierarchy(hierarchy: "RingHierarchy", max_rings_per_tier: int = 6) -> str:
    """Rendering of the ring-based hierarchy (Figure 2).

    Shows each tier from the Border Router Tier down, the rings in that tier,
    the ring members in ring order and the ring leader (marked with ``*``), and
    the logical link from each leader to its parent node.
    """
    lines: List[str] = ["Ring-based Hierarchy for Group Membership Management"]
    for tier_index in sorted(hierarchy.tiers(), reverse=True):
        rings = hierarchy.rings_in_tier(tier_index)
        tier_name = hierarchy.tier_name(tier_index)
        lines.append(f"  {tier_name} ({len(rings)} ring{'s' if len(rings) != 1 else ''})")
        shown = rings[:max_rings_per_tier]
        for ring in shown:
            member_bits = []
            for node_id in ring.members_in_order():
                marker = "*" if node_id == ring.leader else ""
                member_bits.append(f"{node_id}{marker}")
            parent = hierarchy.parent_of_ring(ring.ring_id)
            parent_note = f" -> parent {parent}" if parent else " (topmost)"
            lines.append(f"    ring {ring.ring_id}: {' -> '.join(member_bits)}{parent_note}")
        if len(rings) > max_rings_per_tier:
            lines.append(f"    ... ({len(rings) - max_rings_per_tier} more rings)")
    return "\n".join(lines)
