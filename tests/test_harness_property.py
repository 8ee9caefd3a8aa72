"""Property: a lossy harness run converges to the same final membership
view as the lossless run for the same seed.

Message loss only delays delivery — the transport drops a lost datagram and
the notifier, the one retransmitter, re-sends it after a wait — so the
*final* global view, the per-ring agreement and the member→AP attachment
must be identical to the loss-free execution of the same seeded workload.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis_profiles import examples

from repro.sim.harness import HarnessConfig, ScenarioHarness
from repro.workloads.churn import ChurnKind, ChurnWorkload

WORKLOAD_EVENTS = 14


def run_workload(seed: int, loss: float):
    """One seeded churn-plus-handoff workload; returns the final view."""
    harness = ScenarioHarness(
        HarnessConfig(ring_size=3, height=2, seed=seed, loss=loss)
    )
    aps = harness.access_proxies()
    workload = ChurnWorkload(
        ap_ids=aps,
        join_rate=1.0,
        leave_rate=0.05,
        failure_rate=0.02,
        horizon=60.0,
        seed=seed,
    )
    joined = []
    for index, event in enumerate(workload.generate()[:WORKLOAD_EVENTS]):
        if event.kind is ChurnKind.JOIN:
            harness.schedule_join(event.time, event.ap, guid=event.member)
            joined.append(event.member)
        elif event.kind is ChurnKind.LEAVE:
            harness.schedule_leave(event.time, event.member)
        else:
            harness.schedule_failure(event.time, event.member)
    # A couple of deterministic handoffs exercise the previous-AP move path.
    if joined:
        harness.schedule_handoff(70.0, joined[0], aps[-1])
    result = harness.run()
    view = {str(m.guid): str(m.ap) for m in harness.global_membership()}
    return result, view


@settings(max_examples=examples(12), deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    loss=st.sampled_from([0.01, 0.05, 0.10]),
)
def test_lossy_run_matches_lossless_final_view(seed: int, loss: float):
    lossless_result, lossless_view = run_workload(seed, loss=0.0)
    lossy_result, lossy_view = run_workload(seed, loss=loss)

    assert lossless_result.converged and lossless_result.ring_agreement
    assert lossy_result.converged and lossy_result.ring_agreement
    # Same members, attached at the same access proxies.
    assert lossy_view == lossless_view


@settings(max_examples=examples(6), deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_lossy_run_is_itself_deterministic(seed: int):
    first_result, first_view = run_workload(seed, loss=0.05)
    second_result, second_view = run_workload(seed, loss=0.05)
    assert first_view == second_view
    assert first_result.dispatched_events == second_result.dispatched_events
    assert first_result.sim_time == second_result.sim_time
