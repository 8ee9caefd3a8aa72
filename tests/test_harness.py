"""Tests for the event-driven scenario harness and the matrix runner."""

from __future__ import annotations

import pytest

from repro.analysis.tables import render_matrix
from repro.sim.harness import HarnessConfig, HarnessError, ScenarioHarness
from repro.workloads.matrix import (
    LOSS_RATES,
    SCENARIOS,
    MatrixCell,
    ScenarioMatrix,
    run_matrix_cell,
    shape_for_proxies,
)


def small_harness(**overrides) -> ScenarioHarness:
    defaults = dict(ring_size=4, height=2, seed=5)
    defaults.update(overrides)
    return ScenarioHarness(HarnessConfig(**defaults))


class TestHarnessBasics:
    def test_config_validation(self):
        with pytest.raises(HarnessError):
            HarnessConfig(ring_size=1)
        with pytest.raises(HarnessError):
            HarnessConfig(loss=1.0)
        with pytest.raises(HarnessError):
            HarnessConfig(round_delay=0.0)

    def test_network_mirrors_hierarchy(self):
        harness = small_harness()
        # One network node per hierarchy entity.
        assert len(harness.network) == harness.hierarchy.total_nodes()
        # Every member is physically linked to its parent node.
        for ring_id, ring in harness.hierarchy.rings.items():
            parent = harness.hierarchy.parent_node.get(ring_id)
            if parent is None:
                continue
            for member in ring.members:
                assert harness.network.has_link(parent.value, member.value)

    def test_join_propagates_to_global_view(self):
        harness = small_harness()
        aps = harness.access_proxies()
        harness.schedule_join(1.0, aps[0], guid="m-0")
        harness.schedule_join(2.0, aps[7], guid="m-1")
        result = harness.run()
        assert result.converged and result.ring_agreement
        assert harness.global_guids() == ["m-0", "m-1"]
        # Rounds really ran through the engine, not synchronously at t=0.
        assert result.sim_time > 2.0
        assert result.counters["harness.rounds"] > 0

    def test_messages_travel_through_transport(self):
        harness = small_harness()
        aps = harness.access_proxies()
        harness.schedule_join(1.0, aps[0], guid="m-0")
        result = harness.run()
        # Notifications are the transport's only messages; token hops and
        # holder-acks change no receiver's state and the kernel counts them.
        counters = result.counters
        assert counters["transport.sent"] == counters["transport.sent.rgb.notify"] > 0
        assert counters["hops.token"] > 0
        assert counters["messages.holder_ack"] > 0
        assert counters["transport.delivered"] > 0

    @pytest.mark.parametrize("trace_enabled", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("backend", ["object", "columnar"])
    def test_a_lossy_crash_run_sends_only_notifications(self, backend, trace_enabled):
        harness = small_harness(
            height=3, seed=7, loss=0.05, backend=backend, trace_enabled=trace_enabled
        )
        aps = harness.access_proxies()
        for index in range(12):
            harness.schedule_join(1.0 + index, aps[index], guid=f"m-{index}")
        harness.schedule_crash(20.0, aps[3])
        for index in range(4, 8):
            harness.schedule_leave(30.0 + index, f"m-{index}")
        result = harness.run()
        assert result.ok
        assert result.counters["repairs.ring"] == 1
        sent = {
            name: value
            for name, value in result.counters.items()
            if name.startswith("transport.sent.")
        }
        assert list(sent) == ["transport.sent.rgb.notify"]
        assert sent["transport.sent.rgb.notify"] == result.counters["transport.sent"] > 0
        assert result.counters["transport.retransmissions"] > 0  # the run is lossy
        assert result.counters["hops.token"] > 0
        assert result.counters["messages.holder_ack"] > 0

    def test_leave_and_handoff(self):
        harness = small_harness()
        aps = harness.access_proxies()
        harness.schedule_join(1.0, aps[0], guid="mover")
        harness.schedule_join(1.5, aps[1], guid="stayer")
        harness.schedule_handoff(30.0, "mover", aps[9])
        harness.schedule_leave(60.0, "stayer")
        result = harness.run()
        assert result.converged and result.ring_agreement
        assert harness.global_guids() == ["mover"]
        moved = [m for m in harness.global_membership() if str(m.guid) == "mover"]
        assert str(moved[0].ap) == aps[9]

    def test_lossy_run_converges(self):
        harness = small_harness(loss=0.10, seed=3)
        aps = harness.access_proxies()
        for index in range(8):
            harness.schedule_join(1.0 + index, aps[index % len(aps)], guid=f"m-{index}")
        result = harness.run()
        assert result.converged and result.ring_agreement
        assert len(harness.global_guids()) == 8
        # Loss actually happened and was masked by retries/resends.
        dropped = result.counters.get("transport.dropped", 0)
        retrans = result.counters.get("transport.retransmissions", 0)
        assert dropped + retrans > 0

    def test_crash_excludes_entity_and_its_members(self):
        harness = small_harness(seed=9)
        aps = harness.access_proxies()
        for index in range(4):
            harness.schedule_join(1.0 + index, aps[index], guid=f"m-{index}")
        harness.engine.run(until=20.0)  # let the joins propagate first
        victim = aps[0]
        harness.schedule_crash(25.0, victim)
        result = harness.run()
        assert result.converged and result.ring_agreement
        # The crashed proxy was surgically excluded from its ring...
        assert not harness.hierarchy.has_node(victim)
        assert result.counters["repairs.ring"] == 1
        # ... and the member attached to it was reported failed everywhere.
        assert harness.global_guids() == ["m-1", "m-2", "m-3"]

    def test_tracing_changes_no_record(self):
        """A traced run counts and schedules exactly what an untraced one
        does, also for notifications towards a proxy that crashed."""

        def run(trace_enabled: bool):
            harness = small_harness(height=3, seed=7, loss=0.05, trace_enabled=trace_enabled)
            aps = harness.access_proxies()
            for index in range(12):
                harness.schedule_join(1.0 + index, aps[index], guid=f"m-{index}")
            harness.schedule_crash(20.0, aps[3])
            for index in range(4, 8):
                harness.schedule_leave(30.0 + index, f"m-{index}")
            result = harness.run()
            return result.counters, harness.engine.dispatched_events

        untraced, traced = run(False), run(True)
        assert traced == untraced
        assert untraced[0]["transport.retransmissions"] > 0  # the run is lossy


class TestAcceptance10k:
    def test_10k_proxies_5pct_loss_with_crash(self):
        """ISSUE acceptance: a seeded 10k-proxy run with 5% loss and one
        injected proxy crash completes full propagation with ring agreement."""
        harness = ScenarioHarness(
            HarnessConfig(ring_size=10, height=4, seed=42, loss=0.05)
        )
        aps = harness.access_proxies()
        assert len(aps) == 10_000
        for index in range(8):
            harness.schedule_join(1.0 + index, aps[(index * 1250) % len(aps)], guid=f"big-{index}")
        harness.schedule_crash(15.0, aps[0])
        result = harness.run()
        assert result.converged
        assert result.ring_agreement
        assert result.counters["repairs.ring"] >= 1
        # big-0 joined at the crashed proxy; everyone else fully propagated.
        assert harness.global_guids() == [f"big-{i}" for i in range(1, 8)]


class TestMatrix:
    def test_shape_for_proxies(self):
        assert shape_for_proxies(1_000) == (10, 3)
        assert shape_for_proxies(10_000) == (10, 4)
        assert shape_for_proxies(100_000) == (10, 5)
        assert shape_for_proxies(16) == (4, 2)
        with pytest.raises(ValueError):
            shape_for_proxies(17)

    def test_cell_validation(self):
        with pytest.raises(ValueError):
            MatrixCell(scenario="nope", num_proxies=16, loss=0.0)

    def test_matrix_enumerates_full_cross_product(self):
        matrix = ScenarioMatrix(sizes=(16, 64), losses=(0.0, 0.05))
        cells = matrix.cells()
        assert len(cells) == len(SCENARIOS) * 2 * 2
        assert {c.loss for c in cells} == {0.0, 0.05}

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_each_scenario_cell_runs_clean(self, scenario):
        result = run_matrix_cell(
            MatrixCell(scenario=scenario, num_proxies=16, loss=0.01, seed=2), events=12
        )
        assert result.converged
        assert result.ring_agreement
        assert result.dispatched_events > 0
        assert result.record.counter("harness.rounds") > 0
        assert result.record.value("events_per_second") > 0

    def test_partition_merge_cell_splits_then_heals(self):
        result = run_matrix_cell(
            MatrixCell(scenario="partition_merge", num_proxies=16, loss=0.0, seed=2),
            events=12,
        )
        assert result.record.value("partitions_split") >= 2
        assert result.record.value("partitions_healed") == 1

    def test_cells_are_reproducible(self):
        cell = MatrixCell(scenario="churn", num_proxies=16, loss=0.05, seed=4)
        first = run_matrix_cell(cell, events=12)
        second = run_matrix_cell(cell, events=12)
        assert first.dispatched_events == second.dispatched_events
        assert first.membership == second.membership
        assert first.record.counters == second.record.counters

    def test_render_matrix_table(self):
        result = run_matrix_cell(
            MatrixCell(scenario="churn", num_proxies=16, loss=0.01, seed=1), events=8
        )
        table = render_matrix([result.record])
        assert "Scenario matrix" in table
        assert "churn" in table
        assert "ok" in table

    def test_loss_rates_match_issue_sweep(self):
        assert LOSS_RATES == (0.0, 0.01, 0.05)
