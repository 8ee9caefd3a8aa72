"""Regression tests for the notification dead-letter path.

The bug: the reroute (now ``ReliableNotifier.reroute``) handled a re-route whose
fallback was unusable (``fallback is None or fallback == target`` — the
sender's whole parent ring died and the repair surgery had nowhere to point
the orphaned subtree) by silently dropping the operations *after* having
un-marked them from the target ring's seen-set.  The members those
operations carried vanished without a counter, a trace line, or any way to
recover them.

The fix dead-letters such notifications: ``harness.notify_dead_lettered``
accounts the event, the entry is stashed, and the next repair surgery that
gives the sender a live parent (observed via the kernel's coverage epoch)
re-injects the operations (``harness.notify_reinjected``).  Entries whose
fallback is still unusable stay stashed — accounted, never dropped.

Layout:

* deterministic tests drive a 2×2 hierarchy into the exact orphaned-subtree
  state (both top-ring entities excluded) and exercise the branch, the
  stash-keeps semantics, and the repair-then-reinject path;
* a hypothesis test runs whole scripted scenarios under crash + loss races
  (every ring keeps a survivor, so every re-route must eventually land) and
  asserts the no-drop invariant: the converged global membership is exactly
  the script's expectation and nothing was abandoned.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.delivery import Notification
from repro.sim.harness import HarnessConfig, ScenarioHarness


def _orphan_harness():
    """A 2×2 harness whose whole top ring has been repaired away.

    Every bottom ring's parent slot then dangles at the last-excluded top
    entity: the re-attachment surgery of the first exclusion points the
    orphans at the surviving top node, and the second exclusion has no
    survivor left to point them at.  Returns (harness, sender, target)
    where ``sender`` is a bottom-ring leader and ``target`` the dangling
    parent — the exact state whose re-route used to silently drop ops.
    """
    harness = ScenarioHarness(HarnessConfig(ring_size=2, height=2, seed=1))
    kernel = harness.kernel
    top = harness.hierarchy.topmost_ring()
    first, second = list(top.members)
    kernel.fail_entity(first)
    kernel.detect_and_repair(first)
    kernel.fail_entity(second)
    kernel.detect_and_repair(second)
    assert not harness.hierarchy.has_node(second)
    sender = next(
        ring.leader
        for ring in harness.hierarchy.rings.values()
        if ring.tier == harness.hierarchy.bottom_tier()
    )
    assert kernel.entities[sender].parent == second
    return harness, sender, second


def _entry(harness, sender, target, guid="dl-member-0"):
    kernel = harness.kernel
    op = kernel.make_join_op(sender, guid)
    ring_id = harness.hierarchy.ring_of_node.get(target)
    # The target was already excised from the hierarchy; the entry recorded
    # its ring at send time, as the dispatch does.
    ring_id = ring_id or harness.hierarchy.topmost_ring().ring_id
    kernel.ring_seen[ring_id].add(op.sequence)
    return Notification(
        sender=sender, target=target, operations=(op,), target_ring_id=ring_id
    )


def test_unusable_fallback_dead_letters_instead_of_dropping():
    harness, sender, target = _orphan_harness()
    entry = _entry(harness, sender, target)
    harness.dispatch.notifier.reroute(entry)

    assert harness.counter_values().get("harness.notify_dead_lettered", 0) == 1
    assert len(harness.dead_letters) == 1
    assert harness.dead_letters[0].operations == entry.operations
    # The ops were un-marked from the seen-set (they never arrived) AND
    # stashed — the old behaviour un-marked then dropped, losing them.
    seen = harness.kernel.ring_seen[entry.target_ring_id]
    assert entry.operations[0].sequence not in seen


def test_dead_letters_stay_stashed_while_fallback_unusable():
    harness, sender, target = _orphan_harness()
    harness.dispatch.notifier.reroute(_entry(harness, sender, target))

    # Same coverage epoch: retry is a no-op.
    assert harness.dispatch.notifier.retry_dead_letters() is False
    assert len(harness.dead_letters) == 1
    # Epoch moved but the parent slot still dangles at the excised target:
    # the entry is re-examined, found unusable, and kept — never dropped.
    harness.kernel.invalidate_coverage()
    assert harness.dispatch.notifier.retry_dead_letters() is False
    assert len(harness.dead_letters) == 1
    assert harness.counter_values().get("harness.notify_reinjected", 0) == 0


def test_repair_reinjects_dead_letters():
    harness, sender, target = _orphan_harness()
    kernel = harness.kernel
    entry = _entry(harness, sender, target)
    harness.dispatch.notifier.reroute(entry)
    assert len(harness.dead_letters) == 1

    # A later repair gives the sender a live parent (here: the other bottom
    # ring's leader stands in for a re-attached subtree root) and bumps the
    # coverage epoch — exactly what real repair surgery does.
    bottom = harness.hierarchy.bottom_tier()
    new_parent = next(
        ring.leader
        for ring in harness.hierarchy.rings.values()
        if ring.tier == bottom and sender not in ring.members
    )
    kernel.entities[sender].set_parent(new_parent)
    kernel.invalidate_coverage()

    assert harness.dispatch.notifier.retry_dead_letters() is True
    assert harness.dead_letters == []
    assert harness.counter_values().get("harness.notify_reinjected", 0) == 1
    # Re-injection went back through forward_notification: the ops are
    # marked seen at the new parent's ring and the transport carries them.
    new_ring = harness.hierarchy.ring_of(new_parent).ring_id
    assert entry.operations[0].sequence in kernel.ring_seen[new_ring]
    harness.engine.run()
    assert harness.counter_values().get("harness.notifications_delivered", 0) >= 1


def test_round_retry_hook_reinjects_after_real_repair():
    """The in-round retry hook (not just the quiescence sweep) re-offers."""
    harness, sender, target = _orphan_harness()
    kernel = harness.kernel
    harness.dispatch.notifier.reroute(_entry(harness, sender, target))

    bottom = harness.hierarchy.bottom_tier()
    new_parent = next(
        ring.leader
        for ring in harness.hierarchy.rings.values()
        if ring.tier == bottom and sender not in ring.members
    )
    kernel.entities[sender].set_parent(new_parent)
    kernel.invalidate_coverage()
    # Queue real work at the sender so the round actually executes, then a
    # round on the sender's ring runs the retry hook.
    kernel.capture(sender, kernel.make_join_op(sender, "dl-extra"), 0.0)
    harness._run_ring_round(harness.hierarchy.ring_of(sender).ring_id)
    assert harness.dead_letters == []
    assert harness.counter_values().get("harness.notify_reinjected", 0) == 1


def test_adjacent_failures_salvage_to_surviving_detector():
    """Two failures adjacent in ring order must not orphan the second's MQ.

    The probe round repairs failures in visiting order; the detector for a
    failed member used to be its ring-order predecessor — which, when two
    failures sit next to each other, is the *other* failed member, so the
    salvage found a dead heir and orphaned the queued operations (dropping
    the member they carried).  The detector is now the last surviving node
    the token visited.
    """
    harness = ScenarioHarness(
        HarnessConfig(ring_size=3, height=3, seed=0, loss=0.0, latency_std=0.0)
    )
    # prop's join notification lands in L2-0001-0000's MQ (the parent AG of
    # ring-T1-0003) at t=4; the AG crashes at t=5 with the op undrained, and
    # its ring-order predecessor L2-0001-0002 is already dead — the t=6
    # probe round must salvage the queue to the surviving L2-0001-0001.
    harness.schedule_join(1.0, "L1-0003-0000", guid="prop-adjacent")
    harness.schedule_crash(1.0, "L2-0001-0002")
    harness.schedule_crash(5.0, "L2-0001-0000")
    harness.run()
    counters = harness.counter_values()
    assert counters.get("repairs.mq_orphaned", 0) == 0
    assert counters.get("repairs.mq_salvaged", 0) >= 1
    assert harness.global_guids() == ["prop-adjacent"]


# ---------------------------------------------------------------------------
# property: no operation is ever dropped under crash + re-route races
# ---------------------------------------------------------------------------


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_no_member_dropped_under_crash_reroute_races(data):
    """Scripted churn + partial-ring crashes + loss: the converged global
    view is *exactly* the script's surviving membership.

    Crashes hit only non-AP entities and every ring keeps at least one
    survivor, so each scripted operation has a live capture point and every
    re-route has a reachable fallback — any missing member can only mean an
    operation was dropped in flight.  Conservation of the dead-letter
    accounting is asserted alongside.
    """
    seed = data.draw(st.integers(min_value=0, max_value=10_000), label="seed")
    loss = data.draw(st.sampled_from([0.0, 0.2]), label="loss")
    harness = ScenarioHarness(
        HarnessConfig(ring_size=3, height=3, seed=seed, loss=loss, latency_std=0.0)
    )
    hierarchy = harness.hierarchy
    bottom = hierarchy.bottom_tier()
    aps = sorted(
        node.value
        for ring in hierarchy.rings.values()
        if ring.tier == bottom
        for node in ring.members
    )

    # Script: joins (tracked), some leaves of joined members.
    joins = data.draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=40.0),
                st.sampled_from(aps),
            ),
            min_size=4,
            max_size=12,
        ),
        label="joins",
    )
    alive = {}
    for index, (when, ap) in enumerate(joins):
        guid = f"prop-{index:03d}"
        harness.schedule_join(when, ap, guid=guid)
        alive[guid] = when
    leave_count = data.draw(st.integers(min_value=0, max_value=len(joins) // 2))
    for guid in sorted(alive)[:leave_count]:
        harness.schedule_leave(alive[guid] + 45.0, guid)
        del alive[guid]

    # Crashes: non-AP entities only, at least one survivor per ring.
    for ring in hierarchy.rings.values():
        if ring.tier == bottom:
            continue
        members = list(ring.members)
        victims = data.draw(
            st.lists(st.sampled_from(members), unique=True, max_size=len(members) - 1),
            label=f"crash:{ring.ring_id}",
        )
        for victim in victims:
            when = data.draw(
                st.floats(min_value=1.0, max_value=60.0),
                label=f"crash_at:{victim}",
            )
            harness.schedule_crash(when, str(victim.value))

    harness.run()
    counters = harness.counter_values()

    # Nothing abandoned, and dead-letter accounting conserves entries:
    # every dead-lettered notification was either re-injected or is still
    # stashed — never silently gone.
    assert counters.get("harness.notify_abandoned", 0) == 0
    assert counters.get("harness.notify_dead_lettered", 0) == counters.get(
        "harness.notify_reinjected", 0
    ) + len(harness.dead_letters)
    assert harness.dead_letters == []

    assert harness.global_guids() == sorted(alive)
