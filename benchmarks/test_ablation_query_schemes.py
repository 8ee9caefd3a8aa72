"""Ablation A1 — TMS vs BMS vs IMS membership maintenance/query schemes.

The paper (Section 4.4) argues TMS queries are cheaper but its maintenance is
more expensive at the top; BMS is the reverse.  The ablation measures query
hops, result completeness and storage footprint per scheme on the same
populated hierarchy.
"""

from __future__ import annotations

from repro.core.hierarchy import HierarchyBuilder
from repro.core.one_round import OneRoundEngine
from repro.core.query import MembershipQueryService, MembershipScheme


def build_populated_engine():
    hierarchy = HierarchyBuilder("a1").regular(ring_size=5, height=3)
    engine = OneRoundEngine(hierarchy)
    for index, ap in enumerate(hierarchy.access_proxies()):
        if index % 5 == 0:
            engine.member_join(ap, f"member-{index:04d}")
    engine.propagate()
    return engine


def test_ablation_query_schemes(benchmark, report):
    engine = build_populated_engine()
    service = MembershipQueryService(engine)

    def run_all():
        return {scheme: service.query(scheme) for scheme in MembershipScheme}

    results = benchmark(run_all)
    guid_sets = {scheme: tuple(result.guids) for scheme, result in results.items()}
    assert len(set(guid_sets.values())) == 1  # all schemes answer identically
    assert results[MembershipScheme.TMS].message_hops < results[MembershipScheme.BMS].message_hops
    assert results[MembershipScheme.IMS].message_hops <= results[MembershipScheme.BMS].message_hops

    lines = [f"{'scheme':<14} {'query hops':>10} {'entities':>9} {'storage records':>16}"]
    for scheme, result in results.items():
        cost = service.maintenance_cost(scheme)
        lines.append(
            f"{scheme.value:<14} {result.message_hops:>10} {len(result.entities_contacted):>9} "
            f"{cost['records']:>16}"
        )
    lines.append(f"members returned by every scheme: {len(results[MembershipScheme.TMS])}")
    report("Ablation A1 — membership maintenance schemes (n=125, 25 members)", lines)
