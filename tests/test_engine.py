"""Discrete-event engine: ordering, cancellation, signals."""

import weakref

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchedulingError
from repro.sim.engine import Signal, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(4.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Simulator().schedule(-0.1, lambda: None)

    def test_nan_delay_rejected(self):
        with pytest.raises(SchedulingError, match="negative"):
            Simulator().schedule(float("nan"), lambda: None)

    def test_nan_schedule_at_rejected(self):
        with pytest.raises(SchedulingError):
            Simulator().schedule_at(float("nan"), lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(1.0, lambda: None)

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        times = []

        def first():
            sim.schedule(1.0, lambda: times.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert times == [2.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_count_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_count() == 1
        assert keep.time == 1.0

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        early = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        early.cancel()
        assert sim.peek_time() == 2.0

    def test_peek_time_empty(self):
        assert Simulator().peek_time() is None


class TestRunControl:
    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        assert sim.run(until=4.0) == 4.0
        assert sim.now == 4.0
        assert sim.pending_count() == 1

    def test_run_until_composes(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "x")
        sim.run(until=2.0)
        assert fired == []
        sim.run(until=5.0)
        assert fired == ["x"]

    def test_run_advances_to_until_even_when_idle(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_run_until_nan_rejected(self):
        # a periodic event would otherwise keep the loop alive forever
        sim = Simulator()

        def tick():
            sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        with pytest.raises(SchedulingError, match="cannot run until nan"):
            sim.run(until=float("nan"))
        assert sim.now == 0.0

    def test_run_until_past_time_rejected(self):
        sim = Simulator()
        sim.run(until=3.0)
        with pytest.raises(SchedulingError,
                           match="before current time 3.0"):
            sim.run(until=1.0)
        assert sim.now == 3.0

    def test_run_until_now_accepted(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "x")
        sim.run(until=3.0)
        assert sim.run(until=3.0) == 3.0
        assert fired == ["x"]

    def test_stop_halts_mid_run(self):
        sim = Simulator()
        fired = []

        def first_event():
            fired.append("a")
            sim.stop()

        sim.schedule(1.0, first_event)
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a"]
        assert sim.pending_count() == 1

    def test_step_runs_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step() is True
        assert fired == ["a"]

    def test_run_drains_every_scheduled_event(self):
        sim = Simulator()
        fired = [0]

        def bump():
            fired[0] += 1

        for index in range(10_000):
            sim.schedule(index * 1e-4, bump)
        sim.run()
        assert fired[0] == 10_000

    def test_step_on_empty_queue(self):
        assert Simulator().step() is False

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            with pytest.raises(SchedulingError):
                sim.run()

        sim.schedule(1.0, nested)
        sim.run()

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    def test_events_always_fire_in_nondecreasing_time(self, delays):
        sim = Simulator()
        fired_times = []
        for delay in delays:
            sim.schedule(delay, lambda: fired_times.append(sim.now))
        sim.run()
        assert fired_times == sorted(fired_times)
        assert len(fired_times) == len(delays)


class TestSignal:
    def test_fire_wakes_waiters(self):
        sim = Simulator()
        signal = Signal(sim, "s")
        got = []
        signal.wait(got.append)
        signal.fire("payload")
        sim.run()
        assert got == ["payload"]

    def test_signal_is_edge_not_level(self):
        sim = Simulator()
        signal = Signal(sim, "s")
        signal.fire("early")
        got = []
        signal.wait(got.append)
        sim.run()
        assert got == []

    def test_waiters_cleared_after_fire(self):
        sim = Simulator()
        signal = Signal(sim, "s")
        got = []
        signal.wait(got.append)
        signal.fire(1)
        signal.fire(2)
        sim.run()
        assert got == [1]

    def test_fire_returns_waiter_count(self):
        sim = Simulator()
        signal = Signal(sim, "s")
        signal.wait(lambda v: None)
        signal.wait(lambda v: None)
        assert signal.fire() == 2

    def test_unwait_removes_waiter(self):
        sim = Simulator()
        signal = Signal(sim, "s")
        got = []
        signal.wait(got.append)
        signal.unwait(got.append)
        signal.fire("x")
        sim.run()
        assert got == []

    def test_unwait_missing_is_noop(self):
        sim = Simulator()
        Signal(sim, "s").unwait(lambda v: None)

    def test_fire_count_and_no_retained_value(self):
        class Payload:
            pass

        sim = Simulator()
        signal = Signal(sim, "s")
        payload = Payload()
        fired = weakref.ref(payload)
        signal.fire("a")
        signal.fire(payload)
        del payload
        assert signal.fire_count == 2
        # an edge, not a level: with no waiter, nothing keeps the value
        assert fired() is None
