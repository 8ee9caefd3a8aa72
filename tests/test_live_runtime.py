"""End-to-end tests for the live UDP runtime.

These spawn real OS processes wired over loopback UDP and are therefore the
slowest tests in the tree (a few seconds each).  They assert the properties
the unit tests cannot: that the socket driver's membership trace is
*equivalent to the simulator's* for the same scenario script, and that the
heartbeat failure detector actually notices real SIGKILL / SIGSTOP events
within its configured windows.
"""

from __future__ import annotations

import dataclasses
import resource
import socket
import tempfile

import pytest

from repro.runtime.heartbeat import HeartbeatConfig
from repro.runtime.runner import LiveScenarioConfig, LiveScenarioRunner
from repro.runtime.supervisor import StopSpec, Supervisor


def _loopback_udp_available() -> bool:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:
        return False


pytestmark = pytest.mark.skipif(
    not _loopback_udp_available(), reason="loopback UDP sockets unavailable"
)


def test_live_run_matches_sim_through_sigkill():
    """Four shard processes, one SIGKILLed mid-scenario: the surviving live
    run must converge to the same global membership as the simulator running
    the identical script with the equivalent crash injected."""
    runner = LiveScenarioRunner(LiveScenarioConfig(events=12, seed=7, crash_at=12.0))
    result = runner.run()
    report = result.live_report
    assert report.killed_shards == [runner.victim]
    assert report.clean_shutdown, report.errors
    # Every survivor independently evicted the killed shard via heartbeats,
    # and took every message it read from the socket entitled to send it.
    for shard, res in report.surviving_results().items():
        assert runner.victim in res["evicted_peers"], (shard, res["heartbeat"])
        assert res["counters"].get("runtime.wire_errors", 0) == 0, (shard, res["counters"])
    assert result.live_ring_agreement
    assert result.equal, {"summary": result.summary(), "diff": result.diff}


def test_sigkill_detected_and_repaired_within_window():
    """Kill the shard owning the top ring and check the survivor's failure
    handling end to end: eviction within the heartbeat window, kernel ring
    repair of the dead entities, and dead-lettering (not silent loss) of the
    upward notifications that no longer have a live destination."""
    hb = HeartbeatConfig()  # defaults: suspect 0.3s, evict 0.9s (real time)
    config = LiveScenarioConfig(
        events=8,
        seed=3,
        num_shards=2,
        crash_at=6.0,  # pinned to the quiet-window margin by the runner
        kill_shard=0,  # shard 0 owns only the top ring
        heartbeat=hb,
    )
    runner = LiveScenarioRunner(config)
    assert runner.victim == 0

    with tempfile.TemporaryDirectory(prefix="live-runtime-test-") as scratch:
        report, supervisor = runner.run_live(scratch)
        supervisor.ensure_torn_down()

    assert report.killed_shards == [0]
    assert report.clean_shutdown, report.errors
    survivor = report.results[1]
    # Detected: the dead shard was evicted, and the recorded silence is the
    # eviction window plus at most polling slop — not some much-later fluke.
    assert 0 in survivor["evicted_peers"], survivor["heartbeat"]
    silence = survivor["eviction_silence"]["0"]  # a JSON key
    assert hb.evict_after <= silence <= hb.evict_after + 1.0, silence
    # Repaired: eviction fed fail_entity, and rerouted notifications forced
    # ring repair of the dead top-tier entities.
    counters = survivor["counters"]
    assert counters.get("repairs.ring", 0) >= 1, counters
    # Not silently lost: with the whole top ring dead there is no live
    # destination for upward notifications; they must land in the dead-letter
    # stash (visible, re-injectable) rather than vanish.
    assert counters.get("harness.notify_dead_lettered", 0) >= 1, counters
    assert survivor["dead_letters"] >= 1
    assert survivor["ring_agreement"]


def test_sigstop_survivor_readmits_without_eviction():
    """A SIGSTOPped shard (GC-pause / scheduler stall stand-in) must be
    suspected and then readmitted once it resumes — no eviction, no repair,
    and the run still conforms to the simulator's membership trace."""
    hb = HeartbeatConfig(interval=0.06, suspect_after=0.25, evict_after=3.0)
    config = LiveScenarioConfig(events=10, seed=11, heartbeat=hb)
    runner = LiveScenarioRunner(config)

    with tempfile.TemporaryDirectory(prefix="live-runtime-test-") as scratch:
        # at= is virtual scenario time; duration= is real seconds.  0.5s of
        # stop crosses suspect_after on every peer but stays well inside
        # evict_after, so the only legal outcome is suspicion + readmission.
        stops = (StopSpec(shard=2, at=6.0, duration=0.5),)
        report, supervisor = runner.run_live(scratch, stops=stops)
        supervisor.ensure_torn_down()
        harness = runner.run_sim_reference()
        result = runner.compare(report, harness)

    assert report.clean_shutdown, report.errors
    readmissions = sum(r["heartbeat"].get("readmissions", 0) for r in report.results.values())
    evictions = sum(r["heartbeat"].get("evictions", 0) for r in report.results.values())
    assert readmissions >= 1, {s: r["heartbeat"] for s, r in report.results.items()}
    assert evictions == 0, {s: r["heartbeat"] for s, r in report.results.items()}
    for res in report.results.values():
        assert res["evicted_peers"] == []
        assert res["counters"].get("repairs.ring", 0) == 0
    assert result.equal, {"summary": result.summary(), "diff": result.diff}


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def test_shards_are_reaped_children_charged_to_the_supervising_process():
    """Every shard's CPU lands in this process's RUSAGE_CHILDREN: shards are
    its direct children and it reaps them (a forkserver's or zygote's shards
    would be grandchildren, and their CPU would vanish from the benchmark)."""
    runner = LiveScenarioRunner(LiveScenarioConfig(events=6, seed=5, num_shards=2))
    with tempfile.TemporaryDirectory(prefix="live-runtime-test-") as scratch:
        before = _children_cpu()
        report, supervisor = runner.run_live(scratch)  # Supervisor.run tears down
        charged = _children_cpu() - before
        supervisor.ensure_torn_down()

    assert report.clean_shutdown, report.errors
    shard_cpu = [r["cpu_s"] for r in report.surviving_results().values()]
    assert len(shard_cpu) == 2 and all(cpu > 0 for cpu in shard_cpu)
    assert charged >= sum(shard_cpu), (charged, shard_cpu)


def test_shard_that_raises_while_starting_reports_its_traceback():
    runner = LiveScenarioRunner(LiveScenarioConfig(events=4, seed=5, num_shards=2))
    with tempfile.TemporaryDirectory(prefix="live-runtime-test-") as scratch:
        configs = runner.build_configs(scratch)
        configs[1] = dataclasses.replace(configs[1], hierarchy=None)
        supervisor = Supervisor(configs, deadline=20.0)
        report = supervisor.run()
        supervisor.ensure_torn_down()

    assert not report.clean_shutdown
    assert report.exit_codes[1] == 1
    assert report.errors[0] == (
        "SupervisorError: shard 1 exited rc=1 before HELLO: "
        "AttributeError: 'NoneType' object has no attribute 'build_entity_states'"
    )
