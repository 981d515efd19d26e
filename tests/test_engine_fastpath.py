"""Engine fast-path semantics: coalesced advances and batch draining.

``try_coalesce`` lets a process burn a Compute delay inline instead of
round-tripping the heap; ``run`` drains co-scheduled same-instant
events in a batch.  Both are pure wall-clock moves, so the tests pin
the *observable* contract: when coalescing is legal, when it must be
refused, and that traces and firing order never change.
"""

from repro.errors import SchedulingError
from repro.obs.core import Observability
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.process import Compute
from tests.conftest import oracle_sim, peek_time, pending_count


def probe_at(sim, time, duration, seen):
    """At ``time``, try to coalesce ``duration`` and record
    ``(advanced, now)``."""
    sim.schedule_at(
        time, lambda: seen.append((sim.try_coalesce(duration), sim.now))
    )


class TestCanCoalesce:
    """When ``try_coalesce`` must refuse, and when it may advance."""

    def test_refused_outside_run(self):
        sim = Simulator()
        assert not sim.try_coalesce(1.0)
        assert sim.now == 0.0

    def test_refused_past_until_bound(self):
        seen = []
        for duration in (3.0, 6.0, 7.0):
            sim = Simulator()
            probe_at(sim, 4.0, duration, seen)
            sim.run(until=10.0)
        # 4.0+3.0=7.0 <= 10.0 ok; 4.0+6.0=10.0 is exactly the bound
        # (allowed); 4.0+7.0 overshoots it
        assert seen == [(True, 7.0), (True, 10.0), (False, 4.0)]

    def test_refused_at_equal_time_head(self):
        sim = Simulator()
        seen = []
        # a pending event at exactly now+2.0 was scheduled earlier, so
        # it holds the smaller seq and must fire first
        probe_at(sim, 1.0, 2.0, seen)
        sim.schedule_at(3.0, lambda: None)
        sim.run(until=10.0)
        assert seen == [(False, 1.0)]

    def test_allowed_when_head_strictly_later(self):
        sim = Simulator()
        seen = []
        probe_at(sim, 1.0, 2.0, seen)
        sim.schedule_at(3.5, lambda: None)
        sim.run(until=10.0)
        assert seen == [(True, 3.0)]

    def test_cancelled_head_is_skipped(self):
        """A cancelled head is discarded and counted on the way, as the
        dispatch loop would, and does not block the advance."""
        obs = Observability.enabled(spans=False)
        sim = Simulator(obs=obs)
        seen = []

        def probe():
            handle.cancel()
            seen.append(sim.try_coalesce(2.0))
            seen.append(obs.metrics.snapshot_flat()["sim.events.cancelled"])

        sim.schedule_at(1.0, probe)
        handle = sim.schedule_at(3.0, lambda: None)
        sim.schedule_at(5.0, lambda: None)
        sim.run(until=10.0)
        assert seen == [True, 1.0]
        assert obs.metrics.snapshot_flat()["sim.events.cancelled"] == 1.0

    def test_refused_after_stop(self):
        sim = Simulator()
        seen = []

        def probe():
            sim.stop()
            seen.append((sim.try_coalesce(1.0), sim.now))

        sim.schedule_at(1.0, probe)
        sim.run(until=10.0)
        assert seen == [(False, 1.0)]

    def test_refused_under_profiler(self):
        sim = Simulator(obs=Observability.enabled(profile_events=True))
        seen = []
        probe_at(sim, 1.0, 1.0, seen)
        sim.run(until=10.0)
        assert seen == [(False, 1.0)]


class TestCoalesceAdvance:
    def test_counts_one_schedule_fire_pair(self):
        """Each coalesced advance is counted as the schedule/fire pair
        the event-queue path would have recorded."""
        obs = Observability.enabled(spans=False)
        sim = Simulator(obs=obs)
        seen = []

        def probe():
            for _ in range(7):
                assert sim.try_coalesce(0.1)
            flat = obs.metrics.snapshot_flat()
            seen.append((flat["sim.events.scheduled"],
                         flat["sim.events.fired"]))

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
            assert sim.try_coalesce(2.0)
            trail.append((sim.now, sim._seq - before))

        sim.schedule_at(1.0, probe)
        sim.run(until=10.0)
        assert trail == [(3.0, 1)]

    def test_clock_advances_inline(self):
        sim = Simulator()
        times = []

        def probe():
            assert sim.try_coalesce(0.5)
            times.append(sim.now)
            sim.schedule_at(sim.now + 1.0, lambda: times.append(sim.now))

        sim.schedule_at(2.0, probe)
        end = sim.run(until=10.0)
        assert times == [2.5, 3.5]
        assert end == 10.0

    @staticmethod
    def engine_state(sim):
        return sim.now, sim._seq, sim._fired

    def test_refusal_leaves_clock_and_counts(self):
        """Every refusal returns ``False`` with ``now``, seq and fired
        exactly as they were."""
        states = []

        def refuse(sim, duration):
            before = self.engine_state(sim)
            assert not sim.try_coalesce(duration)
            states.append(self.engine_state(sim) == before)

        sim = Simulator()
        refuse(sim, 1.0)  # no active run
        sim.schedule_at(1.0, refuse, sim, 20.0)  # past until
        sim.schedule_at(2.0, refuse, sim, 1.0)  # equal-time head
        sim.schedule_at(3.0, lambda: None)
        sim.run(until=10.0)
        stopped = Simulator()
        stopped.schedule_at(
            1.0, lambda: (stopped.stop(), refuse(stopped, 1.0))
        )
        stopped.run(until=10.0)
        profiled = Simulator(obs=Observability.enabled(profile_events=True))
        profiled.schedule_at(1.0, refuse, profiled, 1.0)
        profiled.run(until=10.0)
        assert states == [True] * 5

    def test_accepted_advance_bumps_seq_and_fired_by_one(self):
        sim = Simulator()
        deltas = []

        def advance():
            for duration in (0.25, 0.0, 1.5):
                now, seq, fired = self.engine_state(sim)
                assert sim.try_coalesce(duration)
                deltas.append((sim.now - now, sim._seq - seq,
                               sim._fired - fired))

        sim.schedule_at(1.0, advance)
        sim.schedule_at(5.0, lambda: None)
        sim.run(until=10.0)
        assert deltas == [(0.25, 1, 1), (0.0, 1, 1), (1.5, 1, 1)]


class TestPeekAndBatchDrain:
    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        first.cancel()
        assert peek_time(sim) == 2.0
        assert pending_count(sim) == 1

    def test_peek_time_empty(self):
        sim = Simulator()
        assert peek_time(sim) is None

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
