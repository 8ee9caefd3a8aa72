"""The harness's notification lane: every engine event does work, a loss is
resent once, an in-flight crash is rerouted, and the O(1) round gate agrees
with the full queue scan."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis_profiles import examples

from repro.core.kernel import KERNEL_BACKENDS
from repro.sim.harness import HarnessConfig, ScenarioHarness


class ScriptedLatency:
    """A latency model whose loss draws follow a script; records the sim
    time of every send that reached the draws."""

    def __init__(self, harness: ScenarioHarness, losses, delay: float = 2.0) -> None:
        self.harness = harness
        self.losses = list(losses)
        self.delay = delay
        self.sent_at = []

    def sample_delay(self, _rng) -> float:
        self.sent_at.append(self.harness.engine.now)
        return self.delay

    def sample_loss(self, _rng) -> bool:
        return self.losses.pop(0) if self.losses else False


def test_a_lossless_run_dispatches_only_deliveries_rounds_and_scheduled_calls():
    harness = ScenarioHarness(HarnessConfig(ring_size=3, height=3, seed=4))
    aps = harness.access_proxies()
    rounds, checks = [], []
    run_ring_round = harness._run_ring_round
    harness._run_ring_round = lambda ring_id: (rounds.append(ring_id), run_ring_round(ring_id))
    notifier = harness.dispatch.notifier
    check = notifier._check
    notifier._check = lambda notify_id: (checks.append(notify_id), check(notify_id))
    for i, ap in enumerate(aps[::4]):
        harness.schedule_join(float(i), ap)
    harness.schedule_handoff(3.0, "member-000000", aps[-1])

    result = harness.run()

    joins_and_handoff = len(aps[::4]) + 1
    delivered = result.counters["transport.delivered"]
    assert result.ok and delivered > 0
    assert checks == []  # every check was cancelled by its acknowledgement
    assert result.dispatched_events == delivered + len(rounds) + joins_and_handoff
    assert harness.engine.pending() == 0


def test_a_lost_send_is_resent_once_after_the_backoff():
    harness = ScenarioHarness(HarnessConfig(ring_size=3, height=2, seed=1))
    latency = harness.transport.latency = ScriptedLatency(harness, [True])
    harness.schedule_join(0.0, harness.access_proxies()[4], guid="m")

    result = harness.run()

    counters = result.counters
    assert counters["transport.dropped.lost"] == 1
    assert counters["harness.notify_resends"] == 1
    # The lost send's check waits the backoff alone; the resend lands.
    first, resend = latency.sent_at[:2]
    assert resend == first + harness.config.resend_backoff
    assert result.ok and harness.global_guids() == ["m"]


def test_a_target_that_goes_down_in_flight_is_dropped_and_its_check_reroutes():
    harness = ScenarioHarness(
        HarnessConfig(ring_size=3, height=3, seed=2, latency_std=0.0)
    )
    ap = harness.access_proxies()[4]
    ring = harness.hierarchy.ring_of(ap)
    parent = harness.kernel.entities[ring.leader].parent
    harness.schedule_join(0.0, ap, guid="m")
    # The ring's round runs at t=1 and its notification to the parent lands
    # at t=3 (latency 2): crash the parent in between.
    harness.schedule_crash(2.0, parent.value)

    result = harness.run()

    counters = result.counters
    assert counters["transport.dropped.destination-down-at-delivery"] == 1
    assert counters["harness.notify_rerouted"] >= 1
    assert result.ok and harness.global_guids() == ["m"]


def _full_scan(kernel, ring) -> bool:
    return any(
        node not in kernel.failed and kernel.entities[node].has_queued_work()
        for node in ring.members
    )


@settings(max_examples=examples(20), deadline=None)
@given(
    backend=st.sampled_from(KERNEL_BACKENDS),
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["join", "handoff", "leave", "crash"]),
            st.integers(min_value=0, max_value=26),
            st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_the_fast_round_gate_equals_the_full_queue_scan(backend, seed, steps):
    harness = ScenarioHarness(
        HarnessConfig(ring_size=3, height=3, seed=seed, loss=0.05, backend=backend)
    )
    kernel = harness.kernel
    aps = harness.access_proxies()
    entities = sorted(node.value for node in kernel.entities)
    mismatches = []

    def compare(*_args) -> None:
        for ring in kernel.hierarchy.rings.values():
            if kernel._ring_has_work(ring) != _full_scan(kernel, ring):
                mismatches.append((harness.engine.now, ring.ring_id))

    harness.add_round_listener(compare)
    members = []
    for verb, index, time in steps:
        if verb == "join" or not members:
            members.append(harness.schedule_join(time, aps[index]))
        elif verb == "handoff":
            harness.schedule_handoff(time, members[index % len(members)], aps[-1 - index])
        elif verb == "leave":
            harness.schedule_leave(time, members[index % len(members)])
        else:
            harness.schedule_crash(time, entities[(index * 7) % len(entities)])
        harness.schedule_call(time, compare)

    harness.run()
    compare()
    assert mismatches == []
