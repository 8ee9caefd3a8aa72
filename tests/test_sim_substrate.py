"""Unit tests for the simulation substrate: clock, engine, RNG, stats, trace."""

from __future__ import annotations

import pytest

from repro.sim.clock import ClockError, VirtualClock
from repro.sim.engine import SimulationEngine, SimulationError
from repro.sim.rng import RandomStreams
from repro.sim.stats import Counter, Histogram, MetricRegistry, TimeSeries
from repro.sim.trace import TraceRecorder


# ---------------------------------------------------------------------------
# VirtualClock
# ---------------------------------------------------------------------------


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_starts_at_custom_time(self):
        assert VirtualClock(5.0).now == 5.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            VirtualClock(-1.0)

    def test_advances_forward(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_allows_equal_timestamp(self):
        clock = VirtualClock(3.0)
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_rejects_backwards_move(self):
        clock = VirtualClock(3.0)
        with pytest.raises(ClockError):
            clock.advance_to(2.0)

    def test_reset(self):
        clock = VirtualClock(3.0)
        clock.reset()
        assert clock.now == 0.0


# ---------------------------------------------------------------------------
# SimulationEngine
# ---------------------------------------------------------------------------


class TestSimulationEngine:
    def test_events_run_in_time_order(self, engine):
        order = []
        engine.schedule(5.0, lambda e: order.append("late"))
        engine.schedule(1.0, lambda e: order.append("early"))
        engine.schedule(3.0, lambda e: order.append("middle"))
        engine.run()
        assert order == ["early", "middle", "late"]

    def test_ties_broken_by_priority_then_insertion(self, engine):
        order = []
        engine.schedule(1.0, lambda e: order.append("second"), priority=5)
        engine.schedule(1.0, lambda e: order.append("first"), priority=-5)
        engine.schedule(1.0, lambda e: order.append("third"), priority=5)
        engine.run()
        assert order == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self, engine):
        seen = []
        engine.schedule(4.5, lambda e: seen.append(e.now))
        engine.run()
        assert seen == [4.5]
        assert engine.now == 4.5

    def test_callbacks_can_schedule_more_events(self, engine):
        seen = []

        def first(e):
            seen.append("first")
            e.schedule(2.0, lambda e2: seen.append("second"))

        engine.schedule(1.0, first)
        engine.run()
        assert seen == ["first", "second"]
        assert engine.now == 3.0

    def test_run_until_stops_before_later_events(self, engine):
        seen = []
        engine.schedule(1.0, lambda e: seen.append(1))
        engine.schedule(10.0, lambda e: seen.append(10))
        engine.run(until=5.0)
        assert seen == [1]
        assert engine.now == 5.0
        assert engine.pending() == 1

    def test_cancelled_event_does_not_run(self, engine):
        seen = []
        event = engine.schedule(1.0, lambda e: seen.append("nope"))
        assert event.cancel()
        engine.run()
        assert seen == []

    def test_cancel_after_dispatch_returns_false(self, engine):
        event = engine.schedule(1.0, lambda e: None)
        engine.run()
        assert event.dispatched
        assert not event.cancel()

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda e: None)

    def test_schedule_at_absolute_time(self, engine):
        seen = []
        engine.schedule_at(7.0, lambda e: seen.append(e.now))
        engine.run()
        assert seen == [7.0]

    def test_schedule_at_past_rejected(self, engine):
        engine.schedule(5.0, lambda e: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda e: None)

    def test_stop_interrupts_run(self, engine):
        seen = []

        def stopper(e):
            seen.append("stop")
            e.stop()

        engine.schedule(1.0, stopper)
        engine.schedule(2.0, lambda e: seen.append("after"))
        engine.run()
        assert seen == ["stop"]
        assert engine.pending() == 1

    def test_max_events_guard(self):
        engine = SimulationEngine(max_events=10)

        def forever(e):
            e.schedule(1.0, forever)

        engine.schedule(1.0, forever)
        with pytest.raises(SimulationError):
            engine.run()

    def test_step_returns_false_when_empty(self, engine):
        assert engine.step() is False

    def test_reset_clears_queue_and_clock(self, engine):
        engine.schedule(1.0, lambda e: None)
        engine.reset()
        assert engine.pending() == 0
        assert engine.now == 0.0

    def test_dispatched_counter(self, engine):
        for _ in range(4):
            engine.schedule(1.0, lambda e: None)
        dispatched = engine.run()
        assert dispatched == 4
        assert engine.dispatched_events == 4


# ---------------------------------------------------------------------------
# RandomStreams
# ---------------------------------------------------------------------------


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(42).stream("latency")
        b = RandomStreams(42).stream("latency")
        assert a.random(5).tolist() == b.random(5).tolist()

    def test_different_names_are_independent(self):
        streams = RandomStreams(42)
        a = streams.stream("latency").random(5).tolist()
        b = streams.stream("faults").random(5).tolist()
        assert a != b

    def test_stream_is_cached(self):
        streams = RandomStreams(1)
        assert streams.stream("x") is streams.stream("x")

    def test_fork_changes_values_deterministically(self):
        base = RandomStreams(7)
        fork1 = base.fork(1).stream("mc").random(3).tolist()
        fork1_again = RandomStreams(7).fork(1).stream("mc").random(3).tolist()
        fork2 = base.fork(2).stream("mc").random(3).tolist()
        assert fork1 == fork1_again
        assert fork1 != fork2

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(0).stream("")

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams("seed")  # type: ignore[arg-type]

    def test_contains(self):
        streams = RandomStreams(0)
        assert "x" not in streams
        streams.stream("x")
        assert "x" in streams


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_increments(self):
        counter = Counter("messages")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").increment(-1)

    def test_histogram_summary(self):
        hist = Histogram("latency")
        hist.extend([1.0, 2.0, 3.0, 4.0])
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0

    def test_histogram_percentile_bounds(self):
        hist = Histogram("x")
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.percentile(150)

    def test_empty_histogram_is_nan(self):
        import math

        assert math.isnan(Histogram("x").mean())

    def test_timeseries_requires_time_order(self):
        series = TimeSeries("members")
        series.record(1.0, 10)
        with pytest.raises(ValueError):
            series.record(0.5, 11)

    def test_timeseries_value_at(self):
        series = TimeSeries("members")
        series.record(0.0, 1)
        series.record(5.0, 2)
        series.record(10.0, 3)
        assert series.value_at(7.0) == 2
        assert series.value_at(10.0) == 3
        with pytest.raises(ValueError):
            series.value_at(-1.0)

    def test_registry_creates_and_reuses(self):
        registry = MetricRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("b") is registry.histogram("b")
        assert registry.timeseries("c") is registry.timeseries("c")

    def test_registry_snapshot(self):
        registry = MetricRegistry()
        registry.counter("sent").increment(3)
        registry.histogram("lat").observe(1.5)
        snap = registry.snapshot()
        assert snap["counter.sent"] == 3
        assert snap["histogram.lat"]["count"] == 1


# ---------------------------------------------------------------------------
# TraceRecorder
# ---------------------------------------------------------------------------


class TestTraceRecorder:
    def test_records_events(self):
        trace = TraceRecorder()
        trace.record(1.0, "token", "ap-1", "token passed", hops=3)
        assert len(trace) == 1
        assert trace.events[0].details == (("hops", 3),)

    def test_disabled_recorder_is_noop(self):
        trace = TraceRecorder(enabled=False)
        trace.record(1.0, "token", "ap-1", "x")
        assert len(trace) == 0

    def test_format_limits_output(self):
        trace = TraceRecorder()
        for i in range(5):
            trace.record(float(i), "cat", "actor", f"msg{i}")
        text = trace.format(limit=2)
        assert "msg0" in text and "msg1" in text
        assert "3 more records" in text
