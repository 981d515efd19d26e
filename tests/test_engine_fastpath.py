"""Engine fast-path semantics: coalesced advances and batch draining.

``can_coalesce``/``coalesce_advance`` let a process burn a Compute
delay inline instead of round-tripping the heap; ``run`` drains
co-scheduled same-instant events in a batch.  Both are pure wall-clock
moves, so the tests pin the *observable* contract: when coalescing is
legal, when it must be refused, and that traces and firing order never
change.
"""

from repro.errors import SchedulingError
from repro.obs.core import Observability
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.process import Compute


class TestCanCoalesce:
    def test_refused_outside_run(self):
        sim = Simulator()
        assert not sim.can_coalesce(1.0)

    def test_refused_past_until_bound(self):
        sim = Simulator()
        seen = []

        def probe():
            seen.append((sim.can_coalesce(3.0), sim.can_coalesce(6.0)))

        sim.schedule_at(4.0, probe)
        sim.run(until=10.0)
        # 4.0+3.0=7.0 <= 10.0 ok; 4.0+6.0=10.0 is exactly the bound
        # (allowed); past-the-bound refused below
        assert seen == [(True, True)]
        seen.clear()
        sim2 = Simulator()
        sim2.schedule_at(
            4.0, lambda: seen.append(sim2.can_coalesce(7.0))
        )
        sim2.run(until=10.0)
        assert seen == [False]

    def test_refused_at_equal_time_head(self):
        sim = Simulator()
        seen = []

        def probe():
            # a pending event at exactly now+2.0 was scheduled earlier,
            # so it holds the smaller seq and must fire first
            seen.append(sim.can_coalesce(2.0))

        sim.schedule_at(1.0, probe)
        sim.schedule_at(3.0, lambda: None)
        sim.run(until=10.0)
        assert seen == [False]

    def test_allowed_when_head_strictly_later(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append(sim.can_coalesce(2.0)))
        sim.schedule_at(3.5, lambda: None)
        sim.run(until=10.0)
        assert seen == [True]

    def test_cancelled_head_is_skipped(self):
        sim = Simulator()
        seen = []

        def probe():
            handle.cancel()
            seen.append(sim.can_coalesce(2.0))

        sim.schedule_at(1.0, probe)
        handle = sim.schedule_at(3.0, lambda: None)
        sim.schedule_at(5.0, lambda: None)
        sim.run(until=10.0)
        assert seen == [True]

    def test_refused_after_stop(self):
        sim = Simulator()
        seen = []

        def probe():
            sim.stop()
            seen.append(sim.can_coalesce(1.0))

        sim.schedule_at(1.0, probe)
        sim.run(until=10.0)
        assert seen == [False]

    def test_refused_under_profiler(self):
        sim = Simulator(obs=Observability.enabled(profile_events=True))
        seen = []
        sim.schedule_at(1.0, lambda: seen.append(sim.can_coalesce(1.0)))
        sim.run(until=10.0)
        assert seen == [False]


class TestCoalesceAdvance:
    def test_counts_one_schedule_fire_pair(self):
        """Each coalesced advance is counted as the schedule/fire pair
        the event-queue path would have recorded."""
        sim = Simulator(obs=Observability.enabled(spans=False))
        seen = []

        def probe():
            for _ in range(7):
                sim.coalesce_advance(0.1)
            seen.append((sim._m_scheduled.value, sim._m_fired.value))

        sim.schedule_at(0.3, probe)
        sim.run(until=10.0)
        # the probe's own schedule plus one pair per advance; the
        # probe's fire is counted only after it returns
        assert seen == [(8.0, 7.0)]

    def test_burns_sequence_number(self):
        """A coalesced advance must consume a seq so later same-time
        scheduling tie-breaks exactly as the event-queue path would."""
        sim = Simulator()
        trail = []

        def probe():
            before = sim._seq
            assert sim.can_coalesce(2.0)
            sim.coalesce_advance(2.0)
            trail.append((sim.now, sim._seq - before))

        sim.schedule_at(1.0, probe)
        sim.run(until=10.0)
        assert trail == [(3.0, 1)]

    def test_clock_advances_inline(self):
        sim = Simulator()
        times = []

        def probe():
            sim.coalesce_advance(0.5)
            times.append(sim.now)
            sim.schedule_at(sim.now + 1.0, lambda: times.append(sim.now))

        sim.schedule_at(2.0, probe)
        end = sim.run(until=10.0)
        assert times == [2.5, 3.5]
        assert end == 10.0


class TestPeekAndBatchDrain:
    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0
        assert sim.pending_count() == 1

    def test_peek_time_empty(self):
        sim = Simulator()
        assert sim.peek_time() is None

    def test_same_instant_fifo_order(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule_at(3.0, order.append, tag)
        sim.schedule_at(1.0, order.append, "early")
        sim.run(until=10.0)
        assert order == ["early", 0, 1, 2, 3, 4]

    def test_batch_respects_stop(self):
        sim = Simulator()
        order = []
        sim.schedule_at(3.0, order.append, "a")
        sim.schedule_at(3.0, sim.stop)
        sim.schedule_at(3.0, order.append, "never")
        sim.run(until=10.0)
        assert order == ["a"]

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run(until=5.0)
            except SchedulingError as exc:
                errors.append(exc)

        sim.schedule_at(1.0, reenter)
        sim.run(until=10.0)
        assert len(errors) == 1


def oracle_sim(coalesce):
    """A simulator with Compute coalescing on (the default) or off: the
    sim-time-only profiler must see every event fire, so the engine
    refuses to coalesce under it."""
    if coalesce:
        return Simulator()
    return Simulator(obs=Observability.enabled(
        spans=False, metrics=False, profile_events=True,
    ))


class TestComputeCoalesce:
    """Coalescing a ``Compute`` must be trace-identical to the
    event-queue path -- a wall-clock move, never a semantic change."""

    def run_proc(self, coalesce):
        sim = oracle_sim(coalesce)
        device = Device(sim, block_count=4, block_size=32)
        device.standard_layout()

        def body(proc):
            for _ in range(6):
                yield Compute(0.25)

        device.cpu.spawn("p", body, priority=10)
        sim.run(until=5.0)
        return device.trace.render(), sim.now

    def test_trace_identical(self):
        plain, t_plain = self.run_proc(False)
        fast, t_fast = self.run_proc(True)
        assert plain == fast
        assert t_plain == t_fast

    def test_coalesce_with_contending_event(self):
        """An interleaved timer forces the fallback path part-way."""

        def run(coalesce):
            sim = oracle_sim(coalesce)
            device = Device(sim, block_count=4, block_size=32)
            device.standard_layout()
            ticks = []

            def body(proc):
                for _ in range(8):
                    yield Compute(0.25)

            device.cpu.spawn("p", body, priority=10)
            sim.schedule_at(1.1, ticks.append, "tick")
            sim.run(until=5.0)
            return device.trace.render(), ticks

        plain = run(False)
        fast = run(True)
        assert plain == fast
