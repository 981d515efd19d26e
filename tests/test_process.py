"""CPU scheduling: priorities, preemption, atomic sections."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProcessError
from repro.obs.core import Observability
from repro.sim.engine import Signal, Simulator
from repro.sim.process import (
    CPU,
    Atomic,
    Compute,
    ProcState,
    Sleep,
    WaitSignal,
    Yield,
)
from repro.sim.trace import CountingTrace, Trace
from tests.conftest import oracle_sim


def make_cpu():
    sim = Simulator()
    return sim, CPU(sim)


class TestBasicExecution:
    def test_single_process_computes(self):
        sim, cpu = make_cpu()
        done = []

        def body(proc):
            yield Compute(2.5)
            done.append(sim.now)

        cpu.spawn("p", body)
        sim.run()
        assert done == [2.5]

    def test_process_result_and_done_signal(self):
        sim, cpu = make_cpu()

        def body(proc):
            yield Compute(1.0)
            return 42

        proc = cpu.spawn("p", body)
        results = []
        sim.schedule(0.0, lambda: proc.done_signal.wait(results.append))
        sim.run()
        assert proc.result == 42
        assert proc.state is ProcState.DONE
        assert results == [42]

    def test_sleep_releases_cpu(self):
        sim, cpu = make_cpu()
        log = []

        def sleeper(proc):
            yield Sleep(5.0)
            log.append(("sleeper", sim.now))

        def worker(proc):
            yield Compute(1.0)
            log.append(("worker", sim.now))

        cpu.spawn("sleeper", sleeper, priority=10)
        cpu.spawn("worker", worker, priority=1)
        sim.run()
        assert log == [("worker", 1.0), ("sleeper", 5.0)]

    def test_spawn_delay(self):
        sim, cpu = make_cpu()
        started = []

        def body(proc):
            started.append(sim.now)
            yield Compute(0.1)

        cpu.spawn("late", body, delay=3.0)
        sim.run()
        assert started == [3.0]

    def test_sequential_same_priority_fifo(self):
        sim, cpu = make_cpu()
        log = []

        def make(tag):
            def body(proc):
                yield Compute(1.0)
                log.append(tag)

            return body

        cpu.spawn("a", make("a"), priority=5)
        cpu.spawn("b", make("b"), priority=5)
        sim.run()
        assert log == ["a", "b"]


class TestPreemption:
    def test_higher_priority_preempts(self):
        sim, cpu = make_cpu()
        log = []

        def low(proc):
            yield Compute(10.0)
            log.append(("low", sim.now))

        def high(proc):
            yield Sleep(2.0)
            yield Compute(1.0)
            log.append(("high", sim.now))

        low_proc = cpu.spawn("low", low, priority=1)
        cpu.spawn("high", high, priority=9)
        sim.run()
        # low loses [2, 3] to high; finishes at 11.
        assert log == [("high", 3.0), ("low", 11.0)]
        assert low_proc.preemption_count >= 1

    def test_equal_priority_does_not_preempt(self):
        sim, cpu = make_cpu()
        log = []

        def first(proc):
            yield Compute(4.0)
            log.append(("first", sim.now))

        def second(proc):
            yield Sleep(1.0)
            yield Compute(1.0)
            log.append(("second", sim.now))

        cpu.spawn("first", first, priority=5)
        cpu.spawn("second", second, priority=5)
        sim.run()
        # "second" cannot even reach its Sleep until "first" finishes
        # (equal priority never preempts): start 4, sleep to 5, compute.
        assert log == [("first", 4.0), ("second", 6.0)]

    def test_preempted_work_is_conserved(self):
        sim, cpu = make_cpu()

        def low(proc):
            yield Compute(10.0)

        def high(proc):
            yield Sleep(3.0)
            yield Compute(2.0)

        low_proc = cpu.spawn("low", low, priority=1)
        high_proc = cpu.spawn("high", high, priority=9)
        sim.run()
        assert low_proc.finished_at == pytest.approx(12.0)
        assert low_proc.cpu_time == pytest.approx(10.0)
        assert high_proc.cpu_time == pytest.approx(2.0)

    def test_response_accounting(self):
        sim, cpu = make_cpu()

        def hog(proc):
            yield Atomic(True)
            yield Compute(5.0)
            yield Atomic(False)

        def victim(proc):
            yield Compute(0.5)

        cpu.spawn("hog", hog, priority=1)
        victim_proc = cpu.spawn("victim", victim, priority=9)
        sim.run()
        # victim became ready at 0 but waited out the atomic hog.
        assert victim_proc.response_max == pytest.approx(5.0)


class TestAtomic:
    def test_atomic_blocks_higher_priority(self):
        sim, cpu = make_cpu()
        log = []

        def mp(proc):
            yield Atomic(True)
            yield Compute(10.0)
            yield Atomic(False)
            log.append(("mp", sim.now))

        def critical(proc):
            yield Sleep(1.0)
            yield Compute(1.0)
            log.append(("critical", sim.now))

        cpu.spawn("mp", mp, priority=1)
        cpu.spawn("critical", critical, priority=100)
        sim.run()
        assert log[0] == ("mp", 10.0)
        # critical got the CPU only after the atomic section ended; it
        # still had to start (Sleep) and compute.
        assert log[1][1] > 10.0

    def test_atomic_flag_cleared_on_finish(self):
        sim, cpu = make_cpu()

        def mp(proc):
            yield Atomic(True)
            yield Compute(1.0)
            # ends without Atomic(False): CPU must clean up

        def later(proc):
            yield Compute(1.0)

        mp_proc = cpu.spawn("mp", mp, priority=5)
        later_proc = cpu.spawn("later", later, priority=1)
        sim.run()
        assert mp_proc.atomic is False
        assert later_proc.state is ProcState.DONE

    def test_sleep_inside_atomic_rejected(self):
        sim, cpu = make_cpu()

        def bad(proc):
            yield Atomic(True)
            yield Sleep(1.0)

        cpu.spawn("bad", bad)
        with pytest.raises(ProcessError):
            sim.run()

    def test_wait_inside_atomic_rejected(self):
        sim, cpu = make_cpu()
        signal = Signal(sim, "s")

        def bad(proc):
            yield Atomic(True)
            yield WaitSignal(signal)

        cpu.spawn("bad", bad)
        with pytest.raises(ProcessError):
            sim.run()


class TestSignalsAndYield:
    def test_wait_signal_delivers_value(self):
        sim, cpu = make_cpu()
        signal = Signal(sim, "data")
        got = []

        def waiter(proc):
            value = yield WaitSignal(signal)
            got.append((value, sim.now))

        cpu.spawn("waiter", waiter)
        sim.schedule(3.0, signal.fire, "hello")
        sim.run()
        assert got == [("hello", 3.0)]

    def test_yield_hands_off_round_robin(self):
        sim, cpu = make_cpu()
        log = []

        def chatty(tag):
            def body(proc):
                # The zero-length compute lets both processes start
                # before the hand-off dance begins.
                yield Compute(0.0)
                log.append(f"{tag}1")
                yield Yield()
                log.append(f"{tag}2")

            return body

        cpu.spawn("a", chatty("a"), priority=5)
        cpu.spawn("b", chatty("b"), priority=5)
        sim.run()
        assert log == ["a1", "b1", "a2", "b2"]

    def test_bad_yield_command_rejected(self):
        sim, cpu = make_cpu()

        def bad(proc):
            yield "not a command"

        cpu.spawn("bad", bad)
        with pytest.raises(ProcessError):
            sim.run()

    def test_negative_compute_rejected(self):
        with pytest.raises(ProcessError):
            Compute(-1.0)

    def test_negative_sleep_rejected(self):
        with pytest.raises(ProcessError):
            Sleep(-1.0)

    def test_nan_compute_rejected(self):
        with pytest.raises(ProcessError, match="negative"):
            Compute(float("nan"))

    def test_nan_sleep_rejected(self):
        with pytest.raises(ProcessError, match="negative"):
            Sleep(float("nan"))


class TestAccounting:
    def test_idle_fraction(self):
        sim, cpu = make_cpu()

        def body(proc):
            yield Compute(2.0)

        cpu.spawn("p", body)
        sim.run()
        sim.run(until=10.0)
        assert cpu.idle_fraction(10.0) == pytest.approx(0.8)

    def test_dispatch_count(self):
        sim, cpu = make_cpu()

        def body(proc):
            yield Compute(1.0)
            yield Sleep(1.0)
            yield Compute(1.0)

        proc = cpu.spawn("p", body)
        sim.run()
        assert proc.dispatch_count >= 2

    def test_started_and_finished_timestamps(self):
        sim, cpu = make_cpu()

        def body(proc):
            yield Compute(1.5)

        proc = cpu.spawn("p", body, delay=1.0)
        sim.run()
        assert proc.started_at == pytest.approx(1.0)
        assert proc.finished_at == pytest.approx(2.5)


class TestLifecycleEdgeCases:
    def test_double_start_rejected(self):
        sim, cpu = make_cpu()

        def body(proc):
            yield Compute(1.0)

        proc = cpu.spawn("p", body)
        sim.run()
        with pytest.raises(ProcessError):
            cpu._start(proc)

    def test_alive_property(self):
        sim, cpu = make_cpu()

        def body(proc):
            yield Compute(1.0)

        proc = cpu.spawn("p", body)
        assert not proc.alive  # NEW until its start event fires
        sim.run(until=0.5)
        assert proc.alive
        sim.run()
        assert not proc.alive

    def test_response_mean_no_samples(self):
        sim, cpu = make_cpu()

        def body(proc):
            yield Compute(1.0)

        proc = cpu.spawn("p", body, delay=5.0)
        assert proc.response_mean == 0.0

    def test_idle_fraction_zero_elapsed(self):
        _, cpu = make_cpu()
        assert cpu.idle_fraction(0.0) == 0.0

    def test_process_with_immediate_return(self):
        sim, cpu = make_cpu()

        def body(proc):
            return 7
            yield  # pragma: no cover - makes it a generator

        proc = cpu.spawn("p", body)
        sim.run()
        assert proc.result == 7
        assert proc.state is ProcState.DONE

    def test_atomic_survives_nested_spawn(self):
        """A process spawned from inside an atomic section stays READY
        until the section ends."""
        sim, cpu = make_cpu()
        log = []

        def child(proc):
            log.append(("child", sim.now))
            yield Compute(0.0)

        def parent(proc):
            yield Atomic(True)
            cpu.spawn("child", child, priority=100)
            yield Compute(3.0)
            yield Atomic(False)
            log.append(("parent", sim.now))

        cpu.spawn("parent", parent, priority=1)
        sim.run()
        child_events = [entry for entry in log if entry[0] == "child"]
        # The child only ran once the atomic section ended at t=3.
        assert child_events == [("child", 3.0)]


class TestAtomicUnmask:
    def test_ready_higher_priority_preempts_at_unmask(self):
        """A process that stays ready through an atomic section takes
        the CPU the instant the section ends, even when the runner's
        next Compute could otherwise be coalesced inline."""
        sim = Simulator()
        trace = Trace()
        cpu = CPU(sim, trace=trace)

        def low(proc):
            yield Atomic(True)
            yield Compute(1.0)
            yield Atomic(False)
            yield Compute(1.0)

        def high(proc):
            yield Compute(0.25)

        cpu.spawn("low", low, priority=10)
        cpu.spawn("high", high, priority=100, delay=0.5)
        sim.run()
        preempts = [(r.time, r.source) for r in trace.filter(kind="preempt")]
        assert preempts == [(1.0, "low")]
        runs = [(r.time, r.source) for r in trace.filter(kind="run")]
        assert runs == [(0.0, "low"), (1.0, "high"), (1.25, "low")]
        assert sim.now == 2.25


def run_with_reassigned_trace(first, second):
    """Run one process that emits from every CPU emit site, with
    ``cpu.trace`` set to ``first`` and swapped to ``second`` mid-run."""
    sim = Simulator()
    cpu = CPU(sim, trace=None)

    def body(proc):
        yield Compute(1.0)
        yield Sleep(1.0)
        cpu.trace = second
        yield Compute(1.0)
        yield Sleep(1.0)

    cpu.spawn("p", body)
    cpu.trace = first
    sim.run()
    assert cpu.trace is second


FIRST_KINDS = ["spawn", "run", "compute", "sleep", "ready", "run"]
SECOND_KINDS = ["compute", "sleep", "ready", "run", "done"]


class TestTraceBinding:
    def test_reassigned_trace_receives_every_emit_site(self):
        """The CPU resolves its recorder once; assigning ``cpu.trace``
        must re-resolve it, so no emit site keeps writing to the old
        trace (or to none)."""
        first, second = Trace(), Trace()
        run_with_reassigned_trace(first, second)
        assert [r.kind for r in first] == FIRST_KINDS
        assert [r.kind for r in second] == SECOND_KINDS

    @pytest.mark.parametrize("first_sink, second_sink", [
        (CountingTrace, Trace),
        (Trace, CountingTrace),
        (CountingTrace, CountingTrace),
    ], ids=["tally-trace", "trace-tally", "tally-tally"])
    def test_reassigned_counting_trace_counts_what_a_trace_holds(
        self, first_sink, second_sink
    ):
        """A :class:`CountingTrace` is tallied in place rather than
        called; swapping it in or out re-resolves that too, so each
        sink counts exactly the records a :class:`Trace` in its place
        would hold."""
        first, second = first_sink(), second_sink()
        run_with_reassigned_trace(first, second)
        for sink, kinds in ((first, FIRST_KINDS), (second, SECOND_KINDS)):
            if isinstance(sink, CountingTrace):
                assert sink.emitted == len(kinds)
            else:
                assert [r.kind for r in sink] == kinds


DURATIONS = st.sampled_from([0.5, 0.25, 1.0, 0.1, 0.0])

# An atomic section may end in a Compute: the step where a process kept
# ready by the mask must preempt instead of letting the runner coalesce.
OPS = st.one_of(
    st.tuples(st.just("atomic"), st.tuples(
        st.lists(DURATIONS, min_size=1, max_size=3),
        st.one_of(DURATIONS, st.none()),
    )),
    st.tuples(st.just("compute"), DURATIONS),
    st.tuples(st.just("sleep"), DURATIONS),
    st.tuples(st.just("yield"), st.none()),
    st.tuples(st.just("wait"), st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("fire"), st.integers(min_value=0, max_value=1)),
)

PROCESS_SETS = st.lists(
    st.tuples(
        st.sampled_from([1, 5, 10, 5]),
        st.sampled_from([0.0, 0.25, 0.5, 1.5]),
        st.lists(OPS, max_size=6),
    ),
    min_size=1,
    max_size=4,
)


def accounting(proc):
    return (proc.state, proc.cpu_time, proc.preemption_count,
            proc.dispatch_count, proc.response_total, proc.response_max,
            proc.response_samples, proc.started_at, proc.finished_at)


def engine_counts(sim, cpu):
    """The engine's seq, fired and cancelled counts (what
    ``sim.events.*`` read) and the CPU's ready sequence number."""
    return sim._seq, sim._fired, sim._cancelled, cpu._seq


def run_process_set(spec, until, coalesce):
    """Run ``spec`` with coalescing on (a plain simulator) or off (the
    sim-time profiler sees every event, so the engine refuses to
    coalesce); return everything scheduling can influence."""
    sim = oracle_sim(coalesce)
    trace = Trace()
    cpu = CPU(sim, trace=trace)
    signals = [Signal(sim, f"s{k}") for k in range(2)]

    def make_body(ops):
        def body(proc):
            for kind, arg in ops:
                if kind == "compute":
                    yield Compute(arg)
                elif kind == "sleep":
                    yield Sleep(arg)
                elif kind == "yield":
                    yield Yield()
                elif kind == "atomic":
                    inside, tail = arg
                    yield Atomic(True)
                    for duration in inside:
                        yield Compute(duration)
                    yield Atomic(False)
                    if tail is not None:
                        yield Compute(tail)
                elif kind == "wait":
                    yield WaitSignal(signals[arg])
                else:
                    signals[arg].fire(proc.name)
        return body

    procs = [
        cpu.spawn(f"p{index}", make_body(ops), priority=priority,
                  delay=delay)
        for index, (priority, delay, ops) in enumerate(spec)
    ]
    end = sim.run(until=until)
    return (trace.render(), end, engine_counts(sim, cpu),
            [accounting(p) for p in procs])


class TestCoalescingDifferential:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spec=PROCESS_SETS, until=st.sampled_from([None, 3.0, 1.0]))
    def test_coalescing_on_equals_off(self, spec, until):
        assert run_process_set(spec, until, True) == \
            run_process_set(spec, until, False)


def count_pushes(sim):
    """Wrap ``sim.schedule`` so every event the run pushes onto the
    queue is listed by callback name (the CPU's only way onto it)."""
    pushed = []
    schedule = sim.schedule

    def counting(delay, callback, *args):
        pushed.append(callback.__name__)
        return schedule(delay, callback, *args)

    sim.schedule = counting
    return pushed


class TestInlineWake:
    """A ``Sleep`` on an otherwise idle CPU, whose wake would be the
    engine's next event, wakes inline: the clock advances and the
    sleeper takes the CPU again with no event on the queue.  Every
    observable matches the wake-event path."""

    def test_idle_periodic_task_pushes_no_wake_event(self):
        count = 40
        obs = Observability.enabled(spans=False, metrics=True)
        sim = Simulator(obs=obs)
        cpu = CPU(sim, trace=Trace())
        pushed = count_pushes(sim)

        def alarm(proc):
            for _ in range(count):
                yield Compute(0.002)
                yield Sleep(0.05)

        cpu.spawn("alarm", alarm, priority=100)
        sim.run()
        assert pushed == ["_start"]
        assert sim._queue == []
        # each inlined Compute and Sleep still counts one schedule and
        # one fire, as if its event had gone through the queue
        counters = obs.metrics.snapshot_flat()
        assert counters["sim.events.scheduled"] == 1 + 2 * count
        assert counters["sim.events.fired"] == 1 + 2 * count
        assert [r.kind for r in cpu.trace].count("ready") == count

    def run(self, build, coalesce, untils=(None,)):
        """Build the processes on a fresh CPU, run once per ``untils``
        entry, and return every observable plus the pushed events."""
        sim = oracle_sim(coalesce)
        trace = Trace()
        cpu = CPU(sim, trace=trace)
        pushed = count_pushes(sim)
        procs = build(sim, cpu)
        ends = [sim.run(until=until) for until in untils]
        records = [(r.time, r.kind, r.source, r.data) for r in trace]
        observed = (records, ends, engine_counts(sim, cpu),
                    [accounting(p) for p in procs])
        return observed, pushed

    def differential(self, build, untils=(None,)):
        """Coalescing on must equal off; return the on run's pushes."""
        fast, pushed = self.run(build, True, untils)
        slow, _ = self.run(build, False, untils)
        assert fast == slow
        return fast, pushed

    def test_until_lands_exactly_on_a_wake(self):
        def build(sim, cpu):
            def body(proc):
                yield Sleep(1.0)
                yield Sleep(1.0)
                yield Compute(0.5)

            return [cpu.spawn("p", body)]

        (records, ends, _, _), pushed = self.differential(
            build, untils=(2.0, None),
        )
        assert ends == [2.0, 2.5]
        assert "_wake" not in pushed
        assert (2.0, "run", "p", {}) in records

    def test_zero_sleep(self):
        def build(sim, cpu):
            def body(proc):
                for _ in range(3):
                    yield Sleep(0.0)
                    yield Compute(0.1)

            return [cpu.spawn("p", body)]

        _, pushed = self.differential(build)
        assert pushed == ["_start"]

    def test_lower_priority_ready_process_gets_the_cpu(self):
        def build(sim, cpu):
            def high(proc):
                yield Compute(1.0)
                yield Sleep(1.0)
                yield Compute(0.5)

            def low(proc):
                yield Compute(3.0)

            return [cpu.spawn("high", high, priority=10),
                    cpu.spawn("low", low, priority=1, delay=0.5)]

        (records, _, _, procs), pushed = self.differential(build)
        assert "_wake" in pushed  # low was ready: no inline wake
        assert (1.0, "run", "low", {}) in records
        assert (2.0, "ready", "high", {}) in records
        assert procs[1][2] == 1  # low preempted once, at the wake

    def test_stop_called_from_a_body(self):
        def build(sim, cpu):
            def body(proc):
                yield Sleep(1.0)
                sim.stop()
                yield Sleep(1.0)
                yield Compute(0.5)

            return [cpu.spawn("p", body)]

        (_, ends, _, _), pushed = self.differential(
            build, untils=(None, None),
        )
        # the stop lands after the inline wake at 1.0; the next sleep
        # must take the event path so the run returns at 1.0
        assert ends == [1.0, 2.5]
        assert pushed.count("_wake") == 1

    def test_kill_scheduled_at_the_wake_instant(self):
        def build(sim, cpu):
            def body(proc):
                yield Sleep(1.0)
                yield Compute(1.0)

            def doomed(proc):
                yield Sleep(1.0)
                sim.schedule(0.0, cpu.kill, proc)
                yield Compute(1.0)

            first = cpu.spawn("first", body)
            # queued before the sleep, so it fires before the wake (a
            # smaller seq) and the wake may not be inlined
            sim.schedule_at(1.0, cpu.kill, first)
            # woken inline at 4.0, then killed at that same instant
            second = cpu.spawn("second", doomed, delay=3.0)
            return [first, second]

        (records, _, _, procs), pushed = self.differential(build)
        assert pushed.count("_wake") == 1  # only the first's
        assert (1.0, "killed", "first", {}) in records
        assert procs[0][3] == 1  # killed asleep: dispatched once
        assert (4.0, "run", "second", {}) in records
        assert (4.0, "killed", "second", {}) in records
        assert procs[1][1] == 0.0 and procs[1][3] == 2
