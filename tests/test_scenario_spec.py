"""Property suite for the declarative scenario subsystem.

The contracts under test (``repro.workloads.spec``):

* **Round-trip.**  A :class:`ScenarioSpec` serialised to JSON and parsed back
  compiles to the *identical* fault script, and a compiled
  :class:`FaultScript` survives ``dumps``/``loads`` byte-for-byte — specs and
  scripts are pure data, so the wire format loses nothing.
* **Replay.**  A recorded fault script replays to a bit-identical run
  fingerprint (``record_fingerprint``), sequentially and through the pool
  (``--jobs 4``): replaying consumes only event data, never a family RNG
  stream.
* **Diagnosability.**  Unknown families and unknown family params fail at
  compile time with errors that *list* the valid choices, and a script read
  from disk is range-checked against its topology before it runs.

Every matrix scenario is a family, so each property covers all eight.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis_profiles import examples

from repro.baselines.driver import build_protocol, ring_shape_for_proxies
from repro.sim.harness import HarnessConfig, ScenarioHarness
from repro.workloads.families.handoff_storm import block_neighbor_map
from repro.workloads.matrix import (
    SCENARIOS,
    MatrixCell,
    replay_script,
    replay_workload,
    run_matrix_cell,
)
from repro.workloads.parallel import result_fingerprint, run_cells
from repro.workloads.spec import (
    CompileContext,
    FaultScript,
    PASS_PIPELINE,
    ScenarioFamily,
    ScenarioSpec,
    ScriptEvent,
    SpecError,
    available_families,
    compile_spec,
    main as spec_main,
    schedule_script,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

FAMILIES = available_families()
#: The matrix's original families run the generators they always ran, which
#: draw from these substreams of ``RandomStreams(seed)`` themselves.
GENERATOR_STREAMS = {
    "churn": "churn",
    "handoff_storm": "handoff-storm",
    "mobility_trace": "mobility.matrix",
}


# ---------------------------------------------------------------------------
# hypothesis: spec -> JSON -> parse -> compile round-trips identically
# ---------------------------------------------------------------------------


@settings(max_examples=examples(25), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    family=st.sampled_from(FAMILIES),
    seed=st.integers(min_value=0, max_value=100_000),
    events=st.integers(min_value=1, max_value=24),
    loss=st.sampled_from((0.0, 0.05)),
)
def test_spec_json_roundtrip_compiles_identically(family, seed, events, loss):
    spec = ScenarioSpec(family=family, num_proxies=16, loss=loss, seed=seed, events=events)
    wire = json.dumps(spec.to_json(), sort_keys=True)
    parsed = ScenarioSpec.from_json(json.loads(wire))
    assert parsed == spec
    original = compile_spec(spec)
    reparsed = compile_spec(parsed)
    assert original.script.to_json() == reparsed.script.to_json()
    assert (original.ring_size, original.height) == (reparsed.ring_size, reparsed.height)


@settings(max_examples=examples(25), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    family=st.sampled_from(FAMILIES),
    seed=st.integers(min_value=0, max_value=100_000),
    events=st.integers(min_value=1, max_value=24),
)
def test_script_dumps_loads_roundtrip(family, seed, events):
    script = compile_spec(
        ScenarioSpec(family=family, num_proxies=16, seed=seed, events=events)
    ).script
    recovered = FaultScript.loads(script.dumps())
    assert recovered.to_json() == script.to_json()
    assert recovered.events == script.events
    # The full source spec rides in the provenance (the replay contract
    # reconstructs the cell from it alone).
    assert ScenarioSpec.from_json(recovered.provenance["spec"]) == ScenarioSpec(
        family=family, num_proxies=16, seed=seed, events=events
    )


@settings(max_examples=examples(15), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    family=st.sampled_from(FAMILIES),
    seed=st.integers(min_value=0, max_value=100_000),
)
def test_compile_is_deterministic_and_time_sorted(family, seed):
    spec = ScenarioSpec(family=family, num_proxies=16, seed=seed, events=12)
    a = compile_spec(spec).script
    b = compile_spec(spec).script
    assert a.to_json() == b.to_json()
    times = [event.time for event in a.events]
    assert times == sorted(times)
    # Every stream the family drew from is recorded, namespaced to it (or
    # the generator's own substream).
    if family in GENERATOR_STREAMS:
        assert a.provenance["streams"] == [GENERATOR_STREAMS[family]]
    else:
        for name in a.provenance["streams"]:
            assert name.startswith(f"family.{family}.")


# ---------------------------------------------------------------------------
# validation: unknown families / params / malformed events fail loudly
# ---------------------------------------------------------------------------


class TestValidation:
    def test_unknown_family_lists_available(self):
        with pytest.raises(SpecError) as err:
            compile_spec(ScenarioSpec(family="nope", num_proxies=16))
        for name in FAMILIES:
            assert name in str(err.value)

    def test_unknown_param_lists_valid_knobs(self):
        spec = ScenarioSpec(family="flash_crowd", num_proxies=16, params={"typo": 1})
        with pytest.raises(SpecError) as err:
            compile_spec(spec)
        assert "typo" in str(err.value)
        assert "fraction" in str(err.value)

    def test_matrix_unknown_scenario_lists_available(self):
        with pytest.raises(SpecError) as err:
            MatrixCell(scenario="nope", num_proxies=16, loss=0.0)
        assert "churn" in str(err.value)
        assert "flash_crowd" in str(err.value)

    def test_families_registered_as_matrix_scenarios(self):
        assert len(FAMILIES) == 8
        assert set(SCENARIOS) < set(FAMILIES)
        for family in FAMILIES:
            assert MatrixCell(scenario=family, num_proxies=16, loss=0.0).scenario == family

    def test_event_validation(self):
        with pytest.raises(SpecError):
            ScriptEvent(time=1.0, kind="teleport")
        with pytest.raises(SpecError):
            ScriptEvent(time=-1.0, kind="join", member="m", site=0)
        with pytest.raises(SpecError):
            ScriptEvent(time=1.0, kind="join", member="m")  # no site
        with pytest.raises(SpecError):
            ScriptEvent(time=1.0, kind="leave")  # no member
        with pytest.raises(SpecError):
            ScriptEvent(time=1.0, kind="crash", site=0, tier=0)
        for kind in ("crash", "disconnect"):
            with pytest.raises(SpecError, match="site"):
                ScriptEvent(time=1.0, kind=kind)  # no site: would hit aps[-1]
        with pytest.raises(SpecError, match="site"):
            ScriptEvent.from_json({"time": 5, "kind": "crash"})  # from a script on disk
        assert ScriptEvent(time=1.0, kind="probe_partitions").to_json() == {
            "time": 1.0,
            "kind": "probe_partitions",
        }

    def test_finalize_rejects_out_of_range_site_and_tier(self):
        class Rogue(ScenarioFamily):
            name = "rogue"
            defaults = {"mode": "site"}

            def build_workload(self, ctx: CompileContext) -> None:
                if ctx.params["mode"] == "site":
                    ctx.emit(0.0, "join", member="m", site=ctx.num_sites)
                else:
                    ctx.emit(0.0, "crash", site=0, tier=ctx.height + 1)

        ctx = CompileContext(spec=ScenarioSpec(family="flash_crowd", num_proxies=16))
        for _name, pass_fn in PASS_PIPELINE[:2]:
            pass_fn(ctx)
        rogue = Rogue()
        ctx.family = rogue
        ctx.params = {"mode": "site"}
        rogue.build_workload(ctx)
        with pytest.raises(SpecError, match="site"):
            PASS_PIPELINE[-1][1](ctx)
        ctx.events.clear()
        ctx.params = {"mode": "tier"}
        rogue.build_workload(ctx)
        with pytest.raises(SpecError, match="tier"):
            PASS_PIPELINE[-1][1](ctx)

        # A script read from disk, or handed to replay_script, gets the same
        # range checks before anything is scheduled.
        script = compile_spec(ScenarioSpec(family="flash_crowd", num_proxies=16)).script
        for event, match in (
            ({"time": 5.0, "kind": "join", "member": "m", "site": 99}, "site"),
            ({"time": 5.0, "kind": "crash", "site": 0, "tier": 7}, "tier"),
        ):
            data = script.to_json()
            data["events"].append(event)
            with pytest.raises(SpecError, match=match):
                FaultScript.from_json(data)
            rogue = FaultScript(
                events=script.events + (ScriptEvent.from_json(event),),
                provenance=script.provenance,
            )
            with pytest.raises(SpecError, match=match):
                replay_script(rogue)

    def test_script_version_gate(self):
        script = compile_spec(ScenarioSpec(family="flash_crowd", num_proxies=16)).script
        data = script.to_json()
        data["version"] = 99
        with pytest.raises(SpecError, match="version"):
            FaultScript.from_json(data)


# ---------------------------------------------------------------------------
# replay: recorded scripts reproduce bit-identical fingerprints
# ---------------------------------------------------------------------------


class TestReplayContract:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_recorded_script_replays_bit_identically(self, family):
        spec = ScenarioSpec(family=family, num_proxies=16, seed=3, events=10)
        compiled = compile_spec(spec)
        cell = MatrixCell(scenario=family, num_proxies=16, loss=0.0, seed=3)
        fresh = run_matrix_cell(cell, events=10, script=compiled.script)
        # Through the wire: serialise, parse, replay from provenance alone.
        replayed = replay_script(FaultScript.loads(compiled.script.dumps()))
        assert result_fingerprint(replayed) == result_fingerprint(fresh)

    def test_replay_across_toy_protocols_is_deterministic(self):
        script = compile_spec(
            ScenarioSpec(family="correlated_failure", num_proxies=16, seed=1, events=10)
        ).script
        for protocol in ("gossip", "tree", "flat_ring"):
            a = result_fingerprint(replay_script(script, protocol=protocol))
            b = result_fingerprint(replay_script(script, protocol=protocol))
            assert a == b


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
def test_family_cells_jobs4_bit_identical_to_jobs1():
    cells = [
        MatrixCell(scenario=family, num_proxies=16, loss=0.0, seed=0)
        for family in FAMILIES
    ]
    sequential = run_cells(cells, events=10, jobs=1)
    parallel = run_cells(cells, events=10, jobs=4)
    assert sequential.ok and parallel.ok
    assert [result_fingerprint(r) for r in sequential.results] == [
        result_fingerprint(r) for r in parallel.results
    ]


# ---------------------------------------------------------------------------
# CLI: compile --out then --run round-trips through a script file
# ---------------------------------------------------------------------------


class TestCli:
    def test_list(self, capsys):
        assert spec_main(["--list"]) == 0
        out = capsys.readouterr().out
        for family in FAMILIES:
            assert family in out

    def test_compile_and_run(self, tmp_path, capsys):
        path = tmp_path / "fc.script.json"
        assert (
            spec_main(
                [
                    "--family",
                    "flash_crowd",
                    "--proxies",
                    "16",
                    "--events",
                    "8",
                    "--param",
                    "fraction=0.25",
                    "--out",
                    str(path),
                ]
            )
            == 0
        )
        script = FaultScript.loads(path.read_text())
        assert script.family == "flash_crowd"
        assert script.provenance["params"]["fraction"] == 0.25
        assert spec_main(["--run", str(path), "--protocol", "gossip"]) == 0
        out = capsys.readouterr().out
        assert "flash_crowd/gossip" in out

    def test_module_lists_every_family(self):
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-m", "repro.workloads.spec", "--list"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert [line.split()[0] for line in out.splitlines()] == list(FAMILIES)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_dumps_and_runs_to_its_cell_verdict(self, family, tmp_path, capsys):
        path = tmp_path / f"{family}.script.json"
        args = ["--family", family, "--proxies", "16", "--events", "12"]
        assert spec_main(args + ["--out", str(path)]) == 0
        cell = run_matrix_cell(MatrixCell(scenario=family, num_proxies=16, loss=0.0), events=12)
        verdict = 0 if (cell.converged and cell.ring_agreement) else 1
        assert spec_main(["--run", str(path)]) == verdict
        assert f"{family}/rgb" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the matrix's original four, as families
# ---------------------------------------------------------------------------


def _harness(proxies: int) -> ScenarioHarness:
    ring_size, height = ring_shape_for_proxies(proxies)
    return ScenarioHarness(HarnessConfig(ring_size=ring_size, height=height))


@pytest.mark.parametrize("proxies", (16, 27, 64))
def test_block_neighbor_map_is_the_harness_ring_map_by_index(proxies):
    harness = _harness(proxies)
    aps = harness.access_proxies()
    # HandoffStorm sorts proxies: index sites must sort like the AP names.
    assert aps == sorted(aps)
    index = {ap: i for i, ap in enumerate(aps)}
    by_index = {
        index[ap]: [index[peer] for peer in peers]
        for ap, peers in harness.ring_neighbor_map().items()
    }
    assert by_index == block_neighbor_map(proxies, ring_shape_for_proxies(proxies)[0])


@pytest.mark.parametrize("proxies, victims", [(8, [0]), (16, [0, 2]), (27, [0])])
def test_partition_merge_victims_agree_across_replays(proxies, victims, monkeypatch):
    """Two non-adjacent victims only when the *ring* has >= 4 members, for
    the harness schedule and the baseline replay alike."""
    script = MatrixCell(scenario="partition_merge", num_proxies=proxies, loss=0.0).script(24)
    harness = _harness(proxies)
    aps = harness.access_proxies()
    disconnected = []
    monkeypatch.setattr(
        harness,
        "schedule_fault_plan",
        lambda plan: disconnected.extend(aps.index(e.target) for e in plan.events),
    )
    schedule_script(harness, script)
    ring = [member.value for member in harness.hierarchy.bottom_rings()[0].members]
    assert [aps[i] for i in disconnected] == [ring[i] for i in victims]

    driver = build_protocol("gossip", proxies)
    crashed = []
    fail_site = driver.fail_site
    monkeypatch.setattr(
        driver, "fail_site", lambda site: crashed.append(driver.sites.index(site)) or fail_site(site)
    )
    replay_workload(driver, script.events)
    assert disconnected == crashed == victims


def test_partition_probes_are_neither_workload_nor_skipped_events():
    cell = MatrixCell(scenario="partition_merge", num_proxies=16, loss=0.0)
    script = cell.script(24)
    probes = [e for e in script.events if e.kind == "probe_partitions"]
    assert len(probes) == 2
    harness = _harness(16)
    assert schedule_script(harness, script) == len(script.events) - 2
    harness.run()
    assert harness.partition_probes == [2, 1]  # split into two arcs, then healed
    baseline = run_matrix_cell(
        MatrixCell(scenario="partition_merge", num_proxies=16, loss=0.0, protocol="gossip"),
        events=24,
    )
    assert baseline.workload_events == len(script.events) - 2
    assert baseline.record.value("skipped_events") == 0
