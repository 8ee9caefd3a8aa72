"""Serving-layer tests: snapshot consistency, routing memoisation, load gen.

The contract under test (see ``docs/ARCHITECTURE.md``):

* a batched snapshot read during in-flight rounds equals a stop-the-world
  object-path read at the same instant — for all three schemes, both kernel
  backends and a bare engine, at every *event* (captures, handoffs, repairs
  run outside a round, single round commits — no torn or stale reads);
* a warm read costs O(answer): no hierarchy-sized sweep, on any driver;
* results already served from a frame are immutable — later rounds never
  reach into them;
* query routing (entry tier, per-tier leader fan-out, topmost leader) is
  memoised per topology epoch and re-derived after repair surgery.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis_profiles import examples

from repro.core.hierarchy import HierarchyBuilder, RingHierarchy
from repro.core.identifiers import NodeId
from repro.core.membership import GENERATION, LOG_SIZE, MembershipView
from repro.core.one_round import OneRoundEngine
from repro.core.query import MembershipQueryService, MembershipScheme
from repro.serving import frontend as frontend_module
from repro.serving import snapshots as snapshots_module
from repro.serving.columnar_query import _object_fanout, tier_leader_fanout, topmost_leader
from repro.serving.frontend import ServingFrontend
from repro.serving.snapshots import MembershipFrame
from repro.sim.harness import HarnessConfig, ScenarioHarness
from repro.workloads.query_load import (
    QueryLoadConfig,
    QueryLoadGenerator,
    run_query_load,
)

SCHEMES = tuple(MembershipScheme)


def _harness(ring_size: int, height: int, backend: str) -> ScenarioHarness:
    return ScenarioHarness(
        HarnessConfig(ring_size=ring_size, height=height, backend=backend)
    )


def _assert_same_answer(got, want) -> None:
    assert got.scheme is want.scheme
    assert got.guids == want.guids
    assert got.members == want.members
    assert got.message_hops == want.message_hops
    assert got.entities_contacted == want.entities_contacted
    assert got.answered_by_tier == want.answered_by_tier


def _assert_batch_matches_object_path(frontend, store, entry) -> None:
    """One TMS+BMS+IMS batch == a cold object-path read at this instant.

    The reference is read *first*: its scratch merge views move the
    membership generation, so reading it after the batch would push every
    later batch onto the revalidation path and leave the generation hit —
    the path that can go stale — untested.
    """
    service = MembershipQueryService(store, entry_point=entry)
    want = [service.query(scheme) for scheme in SCHEMES]
    for scheme in SCHEMES:
        frontend.submit(scheme, entry)
    kernel, hierarchy = frontend.kernel, frontend.hierarchy
    for got, expected in zip(frontend.drain(), want):
        _assert_same_answer(got, expected)
        # However the frame was reached (hit, revalidation, patch or full
        # capture), it equals one captured from scratch.
        if got.scheme is MembershipScheme.TMS:
            fanout = topmost_leader(kernel, hierarchy)
        else:
            fanout = tier_leader_fanout(kernel, hierarchy, got.answered_by_tier)
        assert got.members == MembershipFrame(got.answered_by_tier, fanout, 0, 0).members()


def _events(*extra_kinds: str):
    """Scripted events: (kind, site pick, member pick).  Small picks keep
    landing on ring leaders and on the same few members, where stale frames
    would show."""
    return st.lists(
        st.tuples(
            st.sampled_from(("join", "join", "leave", "failure", "handoff", "repair") + extra_kinds),
            st.integers(min_value=0, max_value=11),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=1,
        max_size=8,
    )


class TestSnapshotEqualsObjectPath:
    """The hypothesis pin: snapshot batch read == stop-the-world object read."""

    @given(
        ring_size=st.integers(min_value=2, max_value=3),
        height=st.integers(min_value=2, max_value=3),
        backend=st.sampled_from(("object", "columnar")),
        joins=st.integers(min_value=1, max_value=6),
        run_fraction=st.sampled_from((0.3, 0.7, 1.0)),
    )
    @settings(max_examples=examples(10), deadline=None)
    def test_batch_read_matches_object_path_mid_flight(
        self, ring_size, height, backend, joins, run_fraction
    ):
        harness = _harness(ring_size, height, backend)
        aps = harness.access_proxies()
        horizon = 0.2 * joins
        for index in range(joins):
            harness.schedule_join(0.2 * (index + 1), aps[index % len(aps)])
        if joins > 2:
            harness.schedule_leave(horizon + 0.2, "member-0001")
        # Stop mid-horizon: captured operations and scheduled rounds are
        # still in flight — exactly when torn reads would happen.
        harness.run(until=horizon * run_fraction)

        frontend = harness.serving_frontend()
        service = MembershipQueryService(harness.kernel, entry_point=aps[0])
        for scheme in SCHEMES:
            frontend.submit(scheme, aps[0])
        batch = frontend.drain()
        for scheme, got in zip(SCHEMES, batch):
            _assert_same_answer(got, service.query(scheme))

        # Quiesce and compare again: the frames must revalidate/recapture.
        harness.run()
        for scheme in SCHEMES:
            _assert_same_answer(
                frontend.query(scheme, aps[0]), service.query(scheme)
            )

    @pytest.mark.parametrize("backend", ("object", "columnar"))
    def test_every_round_commit_point_matches_object_path(self, backend):
        """No torn reads: probe from inside the harness at every round commit."""
        harness = _harness(3, 2, backend)
        aps = harness.access_proxies()
        service = MembershipQueryService(harness.kernel, entry_point=aps[0])
        frontend = harness.serving_frontend()
        probes = []

        def probe(ring_id: str, now: float) -> None:
            for scheme in SCHEMES:
                got = frontend.query(scheme, aps[0])
                want = service.query(scheme)
                probes.append(
                    (now, scheme.name, got.guids == want.guids,
                     got.message_hops == want.message_hops)
                )

        harness.add_round_listener(probe)
        for index in range(5):
            harness.schedule_join(0.3 * (index + 1), aps[index % len(aps)])
        harness.schedule_leave(2.0, "member-0001")
        harness.schedule_failure(2.5, "member-0002")
        harness.run()
        assert probes, "no rounds committed — the probe never ran"
        bad = [p for p in probes if not (p[2] and p[3])]
        assert not bad, f"snapshot read diverged from object path at: {bad[:3]}"

    @given(
        ring_size=st.integers(min_value=2, max_value=3),
        height=st.integers(min_value=2, max_value=3),
        backend=st.sampled_from(("object", "columnar")),
        events=_events(),
        gap=st.sampled_from((0.4, 3.0)),
    )
    @example(  # a handoff away from a bottom leader, read before its commit
        ring_size=3,
        height=2,
        backend="columnar",
        events=[("join", 0, 0), ("join", 1, 0), ("join", 2, 0), ("handoff", 4, 0)],
        gap=0.4,
    )
    @example(  # a repair outside any round re-elects the topmost leader
        ring_size=3,
        height=2,
        backend="object",
        events=[("join", 1, 0), ("join", 2, 0), ("join", 4, 0), ("repair", 0, 0)],
        gap=0.4,
    )
    @settings(max_examples=examples(40), deadline=None)
    def test_every_event_matches_object_path_on_a_harness(
        self, ring_size, height, backend, events, gap
    ):
        """Reads land between a capture and the next commit, not only on commits."""
        harness = _harness(ring_size, height, backend)
        aps = harness.access_proxies()
        entry = aps[-1]
        frontend = harness.serving_frontend()
        # One direct repair (outside any round) at most, never of the entry
        # point and never of a whole ring.
        victims = [n for n in harness.kernel.entities if n.value != entry]
        repaired = False
        joined = 0

        def repair(victim):
            kernel, now = harness.kernel, harness.engine.now
            kernel.fail_entity(victim, now=now)
            kernel.detect_and_repair(victim, now=now)

        def read():
            _assert_batch_matches_object_path(frontend, harness.kernel, entry)

        for index, (kind, site, pick) in enumerate(events):
            # Overlapping propagations, or one (mostly) settled per event.
            at = gap * (index + 1)
            if kind == "repair" and not repaired:
                repaired = True
                victim = victims[site % len(victims)]
                harness.schedule_call(at, lambda victim=victim: repair(victim))
            elif kind == "join" or joined == 0:
                harness.schedule_join(at, aps[site % len(aps)], guid=f"m{joined}")
                joined += 1
            elif kind == "leave":
                harness.schedule_leave(at, f"m{pick % joined}")
            elif kind == "failure":
                harness.schedule_failure(at, f"m{pick % joined}")
            else:
                harness.schedule_handoff(at, f"m{pick % joined}", aps[site % len(aps)])
            # round_delay is 1.0: both reads fall after this event's capture
            # and before the round that commits it.
            harness.schedule_call(at + 0.05, read)
            harness.schedule_call(at + 0.25, read)
        harness.run()
        read()

    @given(
        ring_size=st.integers(min_value=2, max_value=3),
        height=st.integers(min_value=2, max_value=3),
        backend=st.sampled_from(("object", "columnar")),
        events=_events("burst"),
        rounds_between=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=examples(40), deadline=None)
    def test_every_event_matches_object_path_on_a_bare_engine(
        self, ring_size, height, backend, events, rounds_between
    ):
        """No harness, no listener: reads after every capture, repair, round
        and write burst.  Every read's reference query also writes the object
        path's scratch merge views first."""
        engine = OneRoundEngine(
            HierarchyBuilder("serving-test").regular(ring_size=ring_size, height=height),
            backend=backend,
        )
        aps = engine.hierarchy.access_proxies()
        entry = aps[-1]
        frontend = ServingFrontend(engine)
        victims = [n for n in engine.kernel.entities if n != entry]
        scratch = MembershipView("burst", entry, engine.hierarchy.group)
        record = engine.kernel.make_join_op(entry, "burst").member
        repaired = False
        joined = 0
        location = {}

        def read():
            _assert_batch_matches_object_path(frontend, engine, entry)

        read()
        for kind, site, pick in events:
            ap = aps[site % len(aps)]
            known = sorted(location)
            guid = known[pick % len(known)] if known else None
            if kind == "repair" and not repaired:
                repaired = True
                victim = victims[site % len(victims)]
                engine.fail_entity(victim)
                engine.detect_and_repair(victim)
                # Members attached at a crashed proxy are gone with it.
                location = {g: at for g, at in location.items() if at != victim}
            elif kind == "burst":
                # Commit what is pending, then bury those fan-out writes
                # under more writes than the change log holds.
                engine.propagate()
                for _ in range(LOG_SIZE // 2 + 1):
                    scratch.add(record)
                    scratch.remove(record.guid)
            elif ap in engine.kernel.failed:
                continue
            elif kind == "join" or guid is None:
                guid = f"m{joined}"
                joined += 1
                engine.member_join(ap, guid)
                location[guid] = ap
            elif kind == "handoff":
                if location[guid] != ap:
                    engine.member_handoff(guid, location[guid], ap)
                    location[guid] = ap
            elif kind == "leave":
                engine.member_leave(location.pop(guid), guid)
            else:
                engine.member_failure(location.pop(guid), guid)
            read()
            for ring_id in engine.pending_rings()[:rounds_between]:
                engine.run_round(ring_id)
                read()
        engine.propagate()
        read()


class TestWarmReadCost:
    """A warm hit reads neither the change log nor any version, on any
    driver; a read after a commit touches only the views that moved.

    ``RingHierarchy.tiers`` is deliberately not patched: a BMS query still
    reaches it through ``bottom_tier()`` (see docs/PERF.md, "Serving reads").
    """

    @pytest.mark.parametrize("driver", ("harness", "bare"))
    @pytest.mark.parametrize("backend", ("object", "columnar"))
    def test_warm_drain_never_reads_version_keys(self, driver, backend, monkeypatch):
        if driver == "harness":
            engine = _harness(3, 3, backend)
            engine.schedule_join(0.1, engine.access_proxies()[0], guid="alice")
            engine.run()
        else:
            engine = OneRoundEngine(
                HierarchyBuilder("serving-test").regular(ring_size=3, height=3),
                backend=backend,
            )
            engine.member_join(engine.hierarchy.access_proxies()[0], "alice")
            engine.propagate()
        frontend = ServingFrontend(engine)
        for scheme in SCHEMES:
            frontend.submit(scheme)
        cold = frontend.drain()
        assert frontend.stats()["captures"] == len(SCHEMES)

        def sweep(*_args, **_kwargs):
            raise AssertionError("hierarchy-sized sweep on a warm read")

        monkeypatch.setattr(RingHierarchy, "rings_in_tier", sweep)
        monkeypatch.setattr(MembershipFrame, "moved", sweep)
        monkeypatch.setattr(MembershipFrame, "is_current", sweep)
        monkeypatch.setattr(type(GENERATION), "since", sweep)
        for scheme in SCHEMES:
            frontend.submit(scheme)
        warm = frontend.drain()
        for got, want in zip(warm, cold):
            _assert_same_answer(got, want)
            # Shared per frame, not copied per result.
            assert got.members is want.members
            assert got.entities_contacted is want.entities_contacted
        stats = frontend.stats()
        assert stats["hits"] == len(SCHEMES)
        assert stats["captures"] == len(SCHEMES)
        assert stats["revalidations"] == stats["invalidations"] == 0

    @pytest.mark.parametrize("backend", ("object", "columnar"))
    def test_read_after_a_commit_touches_only_the_views_that_moved(self, backend, monkeypatch):
        engine = OneRoundEngine(
            HierarchyBuilder("serving-test").regular(ring_size=3, height=3),
            backend=backend,
        )
        aps = engine.hierarchy.access_proxies()
        engine.member_join(aps[0], "alice")
        engine.propagate()
        frontend = ServingFrontend(engine)
        for scheme in SCHEMES:
            frontend.submit(scheme)
        frontend.drain()
        assert frontend.stats()["captures"] == len(SCHEMES)

        # Bob joins under another tier-2 ring: each fan-out gains one
        # non-empty view, every other view stays as empty as it was.
        engine.member_join(aps[-1], "bob")
        engine.propagate()
        touched = []
        raw_records = MembershipView.raw_records

        def tracked(view):
            touched.append(view)
            return raw_records(view)

        def resolve(*_args, **_kwargs):
            raise AssertionError("fan-out re-resolved for a patch")

        monkeypatch.setattr(MembershipView, "raw_records", tracked)
        monkeypatch.setattr(RingHierarchy, "rings_in_tier", resolve)
        monkeypatch.setattr(frontend_module, "tier_leader_fanout", resolve)
        monkeypatch.setattr(snapshots_module, "fanout_index", resolve)
        for scheme in SCHEMES:
            frontend.submit(scheme)
        patched = frontend.drain()
        monkeypatch.undo()
        service = MembershipQueryService(engine)
        for got, scheme in zip(patched, SCHEMES):
            _assert_same_answer(got, service.query(scheme))

        stats = frontend.stats()
        assert stats["invalidations"] == len(SCHEMES)
        assert stats["captures"] == 2 * len(SCHEMES)
        # Exactly the fan-out views that hold records, each read once: the
        # one alice was already in and the one bob moved, per frame.
        bottom = engine.hierarchy.bottom_tier()
        _leaders, _rings, views = tier_leader_fanout(engine.kernel, engine.hierarchy, bottom)
        assert len(views) == 9
        filled = [view for view in views if len(view)]
        assert len(filled) == 2
        assert [view for view in touched if view in filled] == filled
        assert len(touched) == len(set(map(id, touched)))
        assert len(touched) == 2 + 2 + 1  # BMS, IMS (tier 2), TMS


class TestTornReadRegression:
    def test_served_results_are_frozen_pre_round_frames(self):
        harness = _harness(3, 2, "columnar")
        aps = harness.access_proxies()
        harness.schedule_join(0.1, aps[0], guid="alice")
        harness.schedule_join(0.2, aps[1], guid="bob")
        harness.run()
        frontend = harness.serving_frontend()
        before = frontend.query(MembershipScheme.BMS)
        assert before.guids == ["alice", "bob"]

        # A later round commits carol; the already-served result must keep
        # showing the pre-round frame, never a mix.
        harness.schedule_join(harness.engine.now + 0.1, aps[2], guid="carol")
        harness.run()
        assert before.guids == ["alice", "bob"]
        assert sorted(m.guid.value for m in before.members) == ["alice", "bob"]

        # A fresh read sees the whole post-round frame and matches the
        # object path; the stale frame was counted as an invalidation.
        after = frontend.query(MembershipScheme.BMS)
        want = MembershipQueryService(harness.kernel).query(MembershipScheme.BMS)
        _assert_same_answer(after, want)
        assert after.guids == ["alice", "bob", "carol"]
        assert frontend.stats()["invalidations"] >= 1

    def test_snapshot_reuse_across_batches_until_a_round_commits(self):
        harness = _harness(3, 2, "columnar")
        aps = harness.access_proxies()
        harness.schedule_join(0.1, aps[0], guid="alice")
        harness.run()
        frontend = harness.serving_frontend()

        def batch():
            for scheme in SCHEMES:
                frontend.submit(scheme)
            frontend.drain()
            return frontend.cache.stats()

        # Two tiers: IMS falls back to the tier below the top, which is the
        # bottom tier, so BMS and IMS share one frame — two frames in all.
        # Batch 1 captures both (TMS, BMS) and IMS hits; batches 2 and 3 are
        # three generation hits each, with no change-log reads.
        for _ in range(3):
            stats = batch()
        assert stats == {"captures": 2, "hits": 7, "revalidations": 0, "invalidations": 0}

        # A write that moves the generation but touches neither frame's views
        # (the object path's scratch merge view): the change log since each
        # frame misses its fan-out, so both revalidate, once, and IMS hits
        # the revalidated frame.
        MembershipQueryService(harness.kernel).query(MembershipScheme.BMS)
        stats = batch()
        assert stats == {"captures": 2, "hits": 8, "revalidations": 2, "invalidations": 0}
        assert batch()["hits"] == 11

        # Committed rounds that do change the leaders' views: both frames
        # are invalidated and patched (counted as captures), and reuse
        # resumes from there.
        harness.schedule_join(harness.engine.now + 0.1, aps[1], guid="bob")
        harness.run()
        stats = batch()
        assert stats == {"captures": 4, "hits": 12, "revalidations": 2, "invalidations": 2}
        assert batch() == {"captures": 4, "hits": 15, "revalidations": 2, "invalidations": 2}

        # An epoch bump alone (no view or ring moved, so the generation did
        # not): the hit compares the epoch too, and a moved epoch sends both
        # frames to a full capture.
        harness.kernel.invalidate_coverage()
        stats = batch()
        assert stats == {"captures": 6, "hits": 16, "revalidations": 2, "invalidations": 4}

    def test_a_moved_fanout_ring_is_captured_in_full(self, monkeypatch):
        engine = OneRoundEngine(HierarchyBuilder("serving-test").regular(ring_size=3, height=2))
        engine.member_join(engine.hierarchy.access_proxies()[0], "alice")
        engine.propagate()
        frontend = ServingFrontend(engine)
        bms = MembershipScheme.BMS
        before = frontend.query(bms)

        # The ring's shape moves (and moves back) with the epoch untouched.
        ring = engine.hierarchy.bottom_rings()[1]
        spare = NodeId("spare")
        ring.insert_member(spare)
        ring.remove_member(spare)
        touched = []
        raw_records = MembershipView.raw_records

        def tracked(view):
            touched.append(view)
            return raw_records(view)

        monkeypatch.setattr(MembershipView, "raw_records", tracked)
        after = frontend.query(bms)
        assert after.guids == before.guids == ["alice"]
        assert len(touched) == len(before.entities_contacted) == 3
        stats = frontend.stats()
        assert (stats["captures"], stats["invalidations"]) == (2, 1)

    @pytest.mark.parametrize("backend", ("object", "columnar"))
    def test_handoff_capture_between_commits_is_not_served_stale(self, backend):
        """A handoff's capture edits the old proxy's lists with no round commit."""
        harness = _harness(4, 3, backend)
        aps = harness.access_proxies()
        ring = harness.hierarchy.bottom_rings()[0]
        away = next(ap for ap in aps if harness.hierarchy.ring_of(ap) is not ring)
        entry = aps[-1]
        harness.schedule_join(0.1, ring.leader, guid="mover")
        harness.run()
        frontend = harness.serving_frontend()
        bms = MembershipScheme.BMS
        assert frontend.query(bms, entry).guids == ["mover"]

        # Read after the capture event, before the round that commits it:
        # the old bottom leader already dropped the member, the new ring has
        # not circulated it yet.
        at = harness.engine.now + 1.0
        harness.schedule_handoff(at, "mover", away)
        reads = []
        harness.schedule_call(
            at + 0.25,
            lambda: reads.append(
                (
                    frontend.query(bms, entry),
                    MembershipQueryService(harness.kernel, entry_point=entry).query(bms),
                )
            ),
        )
        harness.run()
        (got, want), = reads
        assert want.guids == []
        _assert_same_answer(got, want)
        _assert_batch_matches_object_path(frontend, harness.kernel, entry)


class TestRoutingMemoisation:
    def _engine(self, ring_size=3, height=2) -> OneRoundEngine:
        hierarchy = HierarchyBuilder("serving-test").regular(
            ring_size=ring_size, height=height
        )
        return OneRoundEngine(hierarchy)

    def test_tier_leaders_cached_per_epoch(self):
        engine = self._engine()
        service = MembershipQueryService(engine)
        bottom = engine.hierarchy.bottom_tier()
        first = service.tier_leaders(bottom)
        assert service.tier_leaders(bottom) is first  # memo hit, same epoch

    def test_repaired_ring_is_rerouted(self):
        """Satellite regression: a repair must invalidate the routing memo."""
        engine = self._engine()
        ring = engine.hierarchy.bottom_rings()[0]
        leader = ring.leader
        survivor = next(m for m in ring.members if m != leader)
        # Entry at a survivor: the failed leader leaves the hierarchy, and a
        # dead entry point raises on the object path and serving path alike.
        service = MembershipQueryService(engine, entry_point=survivor)
        engine.member_join(survivor, "bob")
        engine.propagate()
        before = service.query(MembershipScheme.BMS)
        assert leader in before.entities_contacted  # memo is warm

        engine.fail_entity(leader)
        engine.member_join(survivor, "carol")
        engine.propagate()  # repair surgery re-elects the ring leader
        assert ring.leader is not None and ring.leader != leader

        after = service.query(MembershipScheme.BMS)
        assert leader not in after.entities_contacted
        assert ring.leader in after.entities_contacted
        # A cold service (no memo to go stale) agrees exactly.
        _assert_same_answer(
            after,
            MembershipQueryService(engine, entry_point=survivor).query(MembershipScheme.BMS),
        )

    def test_frontend_reroutes_after_repair(self):
        engine = self._engine()
        frontend = ServingFrontend(engine)
        ring = engine.hierarchy.bottom_rings()[0]
        leader = ring.leader
        survivor = next(m for m in ring.members if m != leader)
        engine.member_join(survivor, "bob")
        engine.propagate()
        assert leader in frontend.query(
            MembershipScheme.BMS, survivor
        ).entities_contacted

        engine.fail_entity(leader)
        engine.member_join(survivor, "carol")
        engine.propagate()
        after = frontend.query(MembershipScheme.BMS, survivor)
        assert leader not in after.entities_contacted
        assert ring.leader in after.entities_contacted
        _assert_same_answer(
            after,
            MembershipQueryService(engine, entry_point=survivor).query(MembershipScheme.BMS),
        )


    @pytest.mark.parametrize("backend", ("object", "columnar"))
    def test_frontend_reroutes_after_repair_outside_a_round(self, backend):
        """The generation hit must also compare the epoch: a repair that runs
        outside any round re-elects the leader the warm frame still names."""
        harness = _harness(3, 2, backend)
        frontend = harness.serving_frontend()
        ring = harness.hierarchy.bottom_rings()[0]
        leader = ring.leader
        survivor = next(m for m in ring.members if m != leader)
        harness.schedule_join(0.1, survivor, guid="bob")
        harness.run()
        bms = MembershipScheme.BMS
        assert leader in frontend.query(bms, survivor).entities_contacted

        harness.kernel.fail_entity(leader, now=harness.engine.now)
        harness.kernel.detect_and_repair(leader, now=harness.engine.now)
        after = frontend.query(bms, survivor)
        assert leader not in after.entities_contacted
        assert ring.leader in after.entities_contacted
        _assert_same_answer(
            after,
            MembershipQueryService(harness.kernel, entry_point=survivor).query(bms),
        )


class TestColumnarFanout:
    def test_columnar_fanout_matches_hierarchy_walk(self):
        harness = _harness(3, 3, "columnar")
        aps = harness.access_proxies()
        for index in range(4):
            harness.schedule_join(0.2 * (index + 1), aps[index % len(aps)])
        harness.run()
        kernel, hierarchy = harness.kernel, harness.hierarchy
        for tier in hierarchy.tiers():
            leaders, rings, views = tier_leader_fanout(kernel, hierarchy, tier)
            want = [
                ring.leader
                for ring in hierarchy.rings_in_tier(tier)
                if ring.leader is not None
            ]
            assert leaders == want
            assert [r.ring_id for r in rings] == [
                ring.ring_id
                for ring in hierarchy.rings_in_tier(tier)
                if ring.leader is not None
            ]
            for leader, view in zip(leaders, views):
                assert view is kernel.entity(leader).ring_members

    def test_dirty_structure_falls_back_to_object_walk(self):
        harness = _harness(3, 2, "columnar")
        aps = harness.access_proxies()
        harness.schedule_join(0.1, aps[0], guid="alice")
        harness.run()
        # Surgery: fail a leader and let repair re-shape the hierarchy.
        ring = harness.hierarchy.bottom_rings()[0]
        victim = ring.leader
        harness.kernel.fail_entity(victim, now=harness.engine.now)
        harness.kernel.detect_and_repair(victim, now=harness.engine.now)
        assert harness.kernel.store.structure_dirty
        tier = harness.hierarchy.bottom_tier()
        leaders, _rings, _views = tier_leader_fanout(harness.kernel, harness.hierarchy, tier)
        assert leaders == [
            r.leader for r in harness.hierarchy.rings_in_tier(tier) if r.leader is not None
        ]

    @staticmethod
    def _assert_columnar_fanout_after_repair(kernel, hierarchy) -> None:
        # Surgery: fail a leader and let repair re-shape the hierarchy.
        victim = hierarchy.bottom_rings()[0].leader
        kernel.fail_entity(victim, now=1.0)
        kernel.detect_and_repair(victim, now=1.0)
        store = kernel.store
        for tier in hierarchy.tiers():
            # A read never pays the store rebuild: the walk serves meanwhile.
            assert kernel.tier_leader_views(tier) is None
        # The kernel's next round scheduling re-syncs the same store.
        kernel.pending_rings()
        assert kernel.store is store and not store.structure_dirty
        for tier in hierarchy.tiers():
            assert kernel.tier_leader_views(tier) is not None
            got = tier_leader_fanout(kernel, hierarchy, tier)
            assert got == _object_fanout(kernel, hierarchy, tier)
            assert got[0] == [
                r.leader for r in hierarchy.rings_in_tier(tier) if r.leader is not None
            ]

    def test_harness_fanout_is_columnar_again_after_repair(self):
        harness = _harness(3, 2, "columnar")
        aps = harness.access_proxies()
        harness.schedule_join(0.1, aps[0], guid="alice")
        harness.run()
        self._assert_columnar_fanout_after_repair(harness.kernel, harness.hierarchy)

    def test_engine_fanout_is_columnar_again_after_repair(self):
        engine = OneRoundEngine(
            HierarchyBuilder("serving-test").regular(ring_size=3, height=3),
            backend="columnar",
        )
        engine.member_join(engine.hierarchy.access_proxies()[4], "alice")
        engine.propagate()
        self._assert_columnar_fanout_after_repair(engine.kernel, engine.hierarchy)


class TestQueryResultCaching:
    def test_guids_cached_and_len_fast_path(self):
        engine = OneRoundEngine(HierarchyBuilder("serving-test").regular(ring_size=3, height=2))
        ap = engine.hierarchy.access_proxies()[0]
        engine.member_join(ap, "alice")
        engine.propagate()
        result = MembershipQueryService(engine).query(MembershipScheme.TMS)
        assert result.guids == ["alice"]
        assert result.guids is result.guids  # computed once, cached
        assert result.member_count == len(result) == len(result.members) == 1


class TestQueryLoad:
    @pytest.mark.parametrize("mode", ("batched", "object"))
    def test_load_generator_runs_interleaved(self, mode):
        harness = _harness(3, 2, "columnar" if mode == "batched" else "object")
        aps = harness.access_proxies()
        for index in range(4):
            harness.schedule_join(0.3 * (index + 1), aps[index % len(aps)])
        config = QueryLoadConfig(batch_size=6, batches=3, interval=1.0, mode=mode, seed=1)
        result = run_query_load(harness, config)
        assert result["mode"] == mode
        assert result["batches"] == 3
        assert result["total_queries"] == 18
        assert result["overall_qps"] > 0
        for stats in result["schemes"].values():
            assert stats["queries"] == 6
            assert stats["p99_ms"] >= stats["p50_ms"] >= 0
        if mode == "batched":
            assert result["snapshots"]["captures"] >= 1
        else:
            assert "snapshots" not in result

    def test_rejects_unknown_mode(self):
        harness = _harness(2, 2, "object")
        with pytest.raises(ValueError):
            QueryLoadGenerator(harness, QueryLoadConfig(mode="bogus"))
