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
  stash-keeps semantics, and the repair-then-reinject path — each body runs
  through the simulator's adapter, against the core alone, and through the
  UDP node's adapter (``delivery_rigs``), because the logic exists once;
* a hypothesis test runs whole scripted scenarios under crash + loss races
  (every ring keeps a survivor, so every re-route must eventually land) and
  asserts the no-drop invariant: the converged global membership is exactly
  the script's expectation and nothing was abandoned.
"""

from __future__ import annotations

import pytest
from delivery_rigs import RIGS, SimRig
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis_profiles import examples

from repro.core.delivery import Notification
from repro.sim.harness import HarnessConfig, ScenarioHarness


def _orphan(rig):
    """Drive a 2×2 rig's whole top ring out of the hierarchy.

    Every bottom ring's parent slot then dangles at the last-excluded top
    entity: the re-attachment surgery of the first exclusion points the
    orphans at the surviving top node, and the second exclusion has no
    survivor left to point them at.  Returns (sender, target) where
    ``sender`` is a bottom-ring leader and ``target`` the dangling parent —
    the exact state whose re-route used to silently drop ops.
    """
    kernel = rig.kernel
    first, second = list(rig.hierarchy.topmost_ring().members)
    kernel.fail_entity(first)
    kernel.detect_and_repair(first)
    kernel.fail_entity(second)
    kernel.detect_and_repair(second)
    assert not rig.hierarchy.has_node(second)
    sender = _bottom_leader(rig)
    assert kernel.entities[sender].parent == second
    return sender, second


def _bottom_leader(rig, other_than=None):
    bottom = rig.hierarchy.bottom_tier()
    return next(
        ring.leader
        for ring in rig.hierarchy.rings.values()
        if ring.tier == bottom and (other_than is None or other_than not in ring.members)
    )


def _entry(rig, sender, target, guid="dl-member-0"):
    kernel = rig.kernel
    op = kernel.make_join_op(sender, guid)
    # An excised target is in no ring any more; the entry recorded its ring
    # at send time, as the dispatch does.
    ring_id = rig.hierarchy.ring_of_node.get(target) or rig.hierarchy.topmost_ring().ring_id
    kernel.ring_seen[ring_id].add(op.sequence)
    return Notification(sender=sender, target=target, operations=(op,), target_ring_id=ring_id)


def _give_live_parent(rig, sender):
    """What a later repair does for an orphaned subtree: a live parent (here
    the other bottom ring's leader stands in for a re-attached subtree root)
    and a coverage-epoch bump."""
    new_parent = _bottom_leader(rig, other_than=sender)
    rig.kernel.entities[sender].set_parent(new_parent)
    rig.kernel.invalidate_coverage()
    return new_parent


def check_unusable_fallback_dead_letters_instead_of_dropping(rig):
    sender, target = _orphan(rig)
    entry = _entry(rig, sender, target)
    rig.notifier.reroute(entry)

    assert rig.counters().get("harness.notify_dead_lettered", 0) == 1
    assert len(rig.notifier.dead_letters) == 1
    assert rig.notifier.dead_letters[0].operations == entry.operations
    # The ops were un-marked from the seen-set (they never arrived) AND
    # stashed — the old behaviour un-marked then dropped, losing them.
    seen = rig.kernel.ring_seen[entry.target_ring_id]
    assert entry.operations[0].sequence not in seen


def check_crashed_but_unexcised_target_dead_letters_instead_of_vanishing(rig):
    """The same loss through the other door: the target is crashed but its
    ring has not been repaired yet, so the reroute reaches it *present*.

    ``forward_notification`` then runs the repair itself, finds the sender's
    parent slot still dangling at the target (whole parent ring dead) and
    returns 0 — which the reroute used to ignore, after having un-marked the
    operations: ``notify_rerouted`` 1, nothing stashed, nothing pending,
    nothing sent.
    """
    kernel = rig.kernel
    first, second = list(rig.hierarchy.topmost_ring().members)
    kernel.fail_entity(first)
    kernel.detect_and_repair(first)
    kernel.fail_entity(second)  # crashed, not excised
    assert rig.hierarchy.has_node(second)
    entry = _entry(rig, _bottom_leader(rig), second)
    rig.notifier.reroute(entry)

    counters = rig.counters()
    assert counters.get("harness.notify_rerouted", 0) == 1
    assert counters.get("harness.notify_dead_lettered", 0) == 1
    assert [e.operations for e in rig.notifier.dead_letters] == [entry.operations]
    assert rig.notifier.pending_count() == 0
    assert entry.operations[0].sequence not in kernel.ring_seen[entry.target_ring_id]


def check_dead_letters_stay_stashed_while_fallback_unusable(rig):
    sender, target = _orphan(rig)
    rig.notifier.reroute(_entry(rig, sender, target))

    # Same coverage epoch: retry is a no-op.
    assert rig.notifier.retry_dead_letters() is False
    assert len(rig.notifier.dead_letters) == 1
    # Epoch moved but the parent slot still dangles at the excised target:
    # the entry is re-examined, found unusable, and kept — never dropped.
    rig.kernel.invalidate_coverage()
    assert rig.notifier.retry_dead_letters() is False
    assert len(rig.notifier.dead_letters) == 1
    assert rig.counters().get("harness.notify_reinjected", 0) == 0


def check_repair_reinjects_dead_letters(rig):
    sender, target = _orphan(rig)
    kernel = rig.kernel
    entry = _entry(rig, sender, target)
    rig.notifier.reroute(entry)
    assert len(rig.notifier.dead_letters) == 1

    new_parent = _give_live_parent(rig, sender)

    assert rig.notifier.retry_dead_letters() is True
    assert rig.notifier.dead_letters == []
    assert rig.counters().get("harness.notify_reinjected", 0) == 1
    # Re-injection went back through forward_notification: the ops are
    # marked seen at the new parent's ring and the transport carries them.
    new_ring = rig.hierarchy.ring_of(new_parent).ring_id
    assert entry.operations[0].sequence in kernel.ring_seen[new_ring]
    rig.settle()
    assert rig.counters().get("harness.notifications_delivered", 0) >= 1


def check_round_retry_hook_reinjects_after_real_repair(rig):
    """The in-round retry hook (not just the quiescence sweep) re-offers."""
    sender, target = _orphan(rig)
    kernel = rig.kernel
    rig.notifier.reroute(_entry(rig, sender, target))

    _give_live_parent(rig, sender)
    # Queue real work at the sender so the round actually executes, then a
    # round on the sender's ring runs the retry hook.
    kernel.capture(sender, kernel.make_join_op(sender, "dl-extra"), 0.0)
    rig.run_round(rig.hierarchy.ring_of(sender).ring_id)
    assert rig.notifier.dead_letters == []
    assert rig.counters().get("harness.notify_reinjected", 0) == 1


def check_downward_reroute_goes_to_the_child_rings_new_leader(rig):
    """A Notification-to-Child whose target was repaired away belongs to the
    child ring's new leader.  The fallback chain used to offer the sender's
    own parent first: the parent ring had already seen the operations,
    filtered them out, and the reroute ended with nothing sent and no
    counter — the child ring never heard of them."""
    kernel, hierarchy = rig.kernel, rig.hierarchy
    child = next(r for r in hierarchy.rings.values() if r.tier == hierarchy.bottom_tier())
    sender = hierarchy.parent_node[child.ring_id]
    grandparent_ring = hierarchy.ring_of(kernel.entities[sender].parent).ring_id
    old_leader = child.leader
    kernel.fail_entity(old_leader)
    kernel.detect_and_repair(old_leader)
    assert child.leader not in (None, old_leader)

    elsewhere = _bottom_leader(rig, other_than=old_leader)
    op = kernel.make_join_op(elsewhere, "dl-downward")
    kernel.ring_seen[child.ring_id].add(op.sequence)
    kernel.ring_seen[grandparent_ring].add(op.sequence)  # it came from above
    rig.notifier.reroute(
        Notification(
            sender=sender, target=old_leader, operations=(op,), target_ring_id=child.ring_id
        )
    )
    rig.settle()
    assert rig.notifier.dead_letters == [] and rig.notifier.pending_count() == 0
    assert rig.counters().get("harness.notifications_delivered", 0) >= 1
    rig.run_round(child.ring_id)
    assert kernel.ring_applied_seq[child.ring_id]["dl-downward"] == op.sequence


def test_unusable_fallback_dead_letters_instead_of_dropping():
    check_unusable_fallback_dead_letters_instead_of_dropping(SimRig())


def test_crashed_but_unexcised_target_dead_letters_instead_of_vanishing():
    rig = SimRig()
    check_crashed_but_unexcised_target_dead_letters_instead_of_vanishing(rig)
    assert len(rig.harness.dead_letters) == 1  # the harness's read surface


def test_dead_letters_stay_stashed_while_fallback_unusable():
    check_dead_letters_stay_stashed_while_fallback_unusable(SimRig())


def test_repair_reinjects_dead_letters():
    check_repair_reinjects_dead_letters(SimRig())


def test_round_retry_hook_reinjects_after_real_repair():
    check_round_retry_hook_reinjects_after_real_repair(SimRig())


@pytest.mark.parametrize("rig", sorted(RIGS))
def test_downward_reroute_goes_to_the_child_rings_new_leader(rig):
    check_downward_reroute_goes_to_the_child_rings_new_leader(RIGS[rig](height=3))


@pytest.mark.parametrize(
    "check",
    [
        check_unusable_fallback_dead_letters_instead_of_dropping,
        check_crashed_but_unexcised_target_dead_letters_instead_of_vanishing,
        check_dead_letters_stay_stashed_while_fallback_unusable,
        check_repair_reinjects_dead_letters,
        check_round_retry_hook_reinjects_after_real_repair,
    ],
    ids=lambda check: check.__name__[len("check_"):],
)
@pytest.mark.parametrize("rig", ["core", "socket"])
def test_dead_letter_cases_on_the_core_and_through_the_socket_adapter(rig, check):
    """The cases above ran through the simulator's adapter; the same bodies
    against the core alone and through ``SocketDispatch``."""
    check(RIGS[rig]())


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
    max_examples=examples(12),
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
