"""Integration tests: end-to-end scenarios spanning all subsystems."""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis_profiles import examples

from repro.core.config import SimulationConfig
from repro.core.one_round import OneRoundEngine
from repro.core.query import MembershipScheme
from repro.core.simulation import RGBSimulation
from repro.workloads.churn import ChurnKind, ChurnWorkload
from repro.workloads.handoffs import HandoffStorm

#: One trace step: (kind, which member / proxy / entity, handoff target).
_TRACES = st.lists(
    st.tuples(
        st.sampled_from(["join", "join", "leave", "fail", "handoff", "crash"]),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    ),
    max_size=14,
)


def _run_churn(num_aps, ring_size, horizon, seed, join_rate=0.5):
    """Drive a churn workload through the facade, one change at a time to
    quiescence; returns the simulation, the members the workload left joined
    and the number of changes applied."""
    sim = RGBSimulation(
        SimulationConfig(num_aps=num_aps, ring_size=ring_size, hosts_per_ap=0, seed=seed)
    ).build()
    events = ChurnWorkload(
        ap_ids=sim.access_proxies(), join_rate=join_rate, horizon=horizon, seed=seed
    ).generate()
    joined = set()
    for event in events:
        if event.kind is ChurnKind.JOIN:
            sim.join_member(ap_id=event.ap, guid=event.member)
            joined.add(event.member)
        elif event.kind is ChurnKind.LEAVE:
            joined.remove(event.member)
            sim.leave_member(event.member)
        else:
            joined.remove(event.member)
            sim.fail_member(event.member)
        sim.run_until_quiescent()
    return sim, joined, len(events)


class TestPackagedScenarios:
    def test_churn_scenario_tracks_population(self):
        sim, joined, _ = _run_churn(9, 3, horizon=120.0, join_rate=0.4, seed=2)
        assert sim.global_membership().guids() == sorted(joined)

    def test_churn_scenario_deterministic(self):
        a, _, changes_a = _run_churn(9, 3, horizon=80.0, seed=5)
        b, _, changes_b = _run_churn(9, 3, horizon=80.0, seed=5)
        assert changes_a == changes_b
        assert a.global_membership().guids() == b.global_membership().guids()

    def test_conferencing_scenario_keeps_roster_intact(self):
        """A mobile video-conference: participants join, then a
        high-locality handoff storm moves them between cells."""
        sim = RGBSimulation(
            SimulationConfig(num_aps=12, ring_size=4, hosts_per_ap=0, seed=4)
        ).build()
        aps = sim.access_proxies()
        attachment = {f"conf-{i:04d}": aps[i % len(aps)] for i in range(15)}
        for guid, ap in attachment.items():
            sim.join_member(ap_id=ap, guid=guid)
        sim.run_until_quiescent()
        neighbor_map = {
            ap: [str(n) for n in sim.ring_of(ap).members if str(n) != ap] for ap in aps
        }
        storm = HandoffStorm(
            attachment=attachment, neighbor_map=neighbor_map, handoffs=25, locality=0.9, seed=4
        )
        for event in storm.generate():
            sim.handoff_member(event.member, event.to_ap)
            sim.run_until_quiescent()
        assert len(sim.global_membership()) == 15
        stats = sim.handoff_statistics()
        assert stats["handoffs"] == 25
        # High-locality storms mostly hit the neighbour-list fast path.
        assert stats["fast_path_ratio"] > 0.5
        for scheme in MembershipScheme:
            assert sim.query(scheme).message_hops >= 0


class TestEngineEquivalence:
    """The facade (the event-driven harness) and a bare structural
    :class:`OneRoundEngine` over a copy of the same hierarchy agree on
    membership outcomes."""

    @staticmethod
    def _pair():
        sim = RGBSimulation(
            SimulationConfig(num_aps=9, ring_size=3, hosts_per_ap=0, seed=6)
        ).build()
        engine = OneRoundEngine(pickle.loads(pickle.dumps(sim.hierarchy)))
        return sim, engine

    @staticmethod
    def _outcome(view) -> dict:
        return {str(m.guid): str(m.ap) for m in view.members()}

    @staticmethod
    def _engine_view(engine):
        return engine.entity(engine.hierarchy.topmost_ring().leader).ring_members

    @settings(max_examples=examples(60))
    @given(trace=_TRACES)
    def test_same_final_membership(self, trace):
        """Random join / leave / fail / handoff / crash traces, each step run
        to quiescence on both drivers, end with equal global views —
        members and their access proxies alike."""
        sim, engine = self._pair()
        top = sim.hierarchy.topmost_ring().ring_id
        location = {}
        for step, (kind, pick, target) in enumerate(trace):
            aps = sim.access_proxies()
            members = sorted(location)
            if kind == "join":
                guid = f"m{step}"
                ap = aps[pick % len(aps)]
                sim.join_member(ap_id=ap, guid=guid)
                engine.member_join(ap, guid)
                location[guid] = ap
            elif kind in ("leave", "fail") and members:
                guid = members[pick % len(members)]
                if kind == "leave":
                    sim.leave_member(guid)
                    engine.member_leave(location.pop(guid), guid)
                else:
                    sim.fail_member(guid)
                    engine.kernel.fail_member(guid, location.pop(guid), now=0.0)
            elif kind == "handoff" and members:
                guid = members[pick % len(members)]
                to_ap = aps[target % len(aps)]
                if to_ap == location[guid]:
                    continue
                sim.handoff_member(guid, to_ap)
                engine.kernel.handoff(guid, to_ap, location[guid], now=0.0)
                location[guid] = to_ap
            elif kind == "crash":
                # Any entity outside the top ring whose ring keeps at least
                # two survivors (whole-ring death is a known model gap).
                candidates = [
                    str(node)
                    for ring_id, ring in sorted(sim.hierarchy.rings.items())
                    if ring_id != top and len(ring) >= 3
                    for node in ring.members
                ]
                if not candidates:
                    continue
                victim = candidates[pick % len(candidates)]
                sim.crash_entity(victim)
                engine.fail_entity(victim)
                engine.detect_and_repair(victim)
                location = {g: ap for g, ap in location.items() if ap != victim}
            sim.run_until_quiescent()
            engine.propagate()
        facade, structural = sim.global_membership(), self._engine_view(engine)
        assert self._outcome(facade) == self._outcome(structural) == location

    def test_same_member_location_after_handoff(self):
        sim, engine = self._pair()
        aps = sim.access_proxies()
        for guid, ap in (("alice", aps[0]), ("bob", aps[4]), ("carol", aps[8])):
            sim.join_member(ap_id=ap, guid=guid)
            engine.member_join(ap, guid)
        sim.run_until_quiescent()
        engine.propagate()
        sim.handoff_member("alice", aps[5])
        engine.kernel.handoff("alice", aps[5], aps[0], now=0.0)
        sim.run_until_quiescent()
        engine.propagate()
        sim.leave_member("bob")
        engine.member_leave(aps[4], "bob")
        sim.run_until_quiescent()
        engine.propagate()
        assert sim.global_membership().guids() == engine.global_guids() == ["alice", "carol"]
        for view in (sim.global_membership(), self._engine_view(engine)):
            assert str(view.get("alice").ap) == aps[5]


class TestCrashRecoveryEndToEnd:
    def test_structural_gateway_crash_keeps_service_running(self):
        sim = RGBSimulation(
            SimulationConfig(num_aps=16, ring_size=4, hosts_per_ap=1, seed=8)
        ).build()
        before = len(sim.global_membership())
        # Crash an access gateway (a middle-tier entity with child rings).
        gateway = str(sim.hierarchy.rings_in_tier(2)[0].members[0])
        sim.crash_entity(gateway)
        sim.join_member(ap_index=0, guid="after-crash")
        sim.run_until_quiescent()
        assert "after-crash" in sim.global_membership()
        assert len(sim.global_membership()) == before + 1
        assert sim.partition_report().count == 1

    def test_event_mode_survives_multiple_ap_crashes(self):
        sim = RGBSimulation(
            SimulationConfig(num_aps=12, ring_size=4, hosts_per_ap=0, seed=9)
        ).build()
        aps = sim.access_proxies()
        members = {}
        for i, ap in enumerate(aps):
            members[f"m{i}"] = ap
            sim.join_member(ap_id=ap, guid=f"m{i}")
        sim.run_until_quiescent()
        assert len(sim.global_membership()) == len(aps)

        # Crash one AP in each of two different rings.
        rings = {ap: sim.ring_of(ap).ring_id for ap in aps}
        distinct_rings = []
        victims = []
        for ap in aps:
            if rings[ap] not in distinct_rings:
                distinct_rings.append(rings[ap])
                victims.append(ap)
            if len(victims) == 2:
                break
        for victim in victims:
            sim.crash_entity(victim)
        # Fresh traffic in the affected rings triggers detection and repair.
        for victim in victims:
            survivor = next(str(n) for n in sim.ring_of(victim).members if str(n) not in victims)
            sim.join_member(ap_id=survivor, guid=f"trigger-{victim}")
        sim.run_until_quiescent()

        view = sim.global_membership()
        for member, ap in members.items():
            if ap in victims:
                assert member not in view
            else:
                assert member in view
        assert sim.partition_report().count == 1
