"""Generator-coroutine processes on a single preemptible CPU.

The paper's central tension is *who holds the CPU*: an atomic
measurement process (MP) that masks interrupts keeps a safety-critical
task off the CPU for seconds (Section 2.5), while an interruptible MP
yields quickly but opens the door to roving malware (Section 3).

This module models exactly that.  A :class:`CPU` schedules
:class:`Process` objects by fixed priority with preemption.  A process
body is a generator that yields commands:

``Compute(duration)``
    Occupy the CPU for ``duration`` simulated seconds.  Preemptible by
    a strictly higher-priority process -- unless the process holds the
    CPU atomically.
``Sleep(duration)``
    Release the CPU and wake after ``duration``.  When nothing else is
    ready and the wake would be the engine's next event, the CPU wakes
    the sleeper inline instead (see :meth:`CPU._advance`).
``WaitSignal(signal)``
    Release the CPU until ``signal`` fires; the fired value is sent
    back into the generator.
``Atomic(True/False)``
    Mask / unmask preemption (models SMART's "disable interrupts as the
    first step of MP").  Sleeping or waiting while atomic is an error:
    real attestation code that masked interrupts cannot block.
``Yield()``
    Cooperative reschedule point: lets an equal-priority ready process
    run (round-robin hand-off).

Code between yields runs as an instantaneous side effect at the current
simulation time -- the standard discrete-event coroutine convention.
"""

from __future__ import annotations

import enum
import heapq
from typing import Any, Callable, Generator, List, Optional

from repro.errors import ProcessError
from repro.sim.engine import EventHandle, Signal, Simulator
from repro.sim.trace import CountingTrace


class Compute:
    """Occupy the CPU for ``duration`` seconds of work.

    Every compute is a candidate for the engine's inline fast path
    (see :meth:`CPU._advance`): when its completion event would provably
    be the next event to fire and nothing ready would preempt the
    runner, the clock advances without a heap round-trip.  Purely a
    wall-clock optimisation -- sim-time, trace records and preemption
    behavior are identical.
    """

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if not duration >= 0:  # also rejects NaN
            raise ProcessError(f"negative compute duration {duration!r}")
        self.duration = duration


class Sleep:
    """Release the CPU; become ready again after ``duration`` seconds.

    Like a :class:`Compute`, a sleep on an otherwise idle CPU is a
    candidate for the engine's inline fast path: when no other process
    is ready and the wake would be the next event to fire, the clock
    advances and the sleeper takes the CPU again without a heap
    round-trip.  The ``sleep``/``ready``/``run`` records, sequence
    numbers and dispatch accounting are those of the event path.
    """

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if not duration >= 0:  # also rejects NaN
            raise ProcessError(f"negative sleep duration {duration!r}")
        self.duration = duration


class WaitSignal:
    """Release the CPU until ``signal`` fires."""

    __slots__ = ("signal",)

    def __init__(self, signal: Signal) -> None:
        self.signal = signal


class Atomic:
    """Enter (``True``) or leave (``False``) an uninterruptible section."""

    __slots__ = ("enabled",)

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled


class Yield:
    """Cooperatively offer the CPU to an equal-priority ready process."""

    __slots__ = ()


class ProcState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    SLEEPING = "sleeping"
    WAITING = "waiting"
    DONE = "done"


class Process:
    """A schedulable coroutine with a fixed priority.

    Higher ``priority`` values run first.  Equal priorities do not
    preempt each other.  ``body`` is a generator function called with
    the process itself, e.g.::

        def body(proc):
            yield Compute(0.5)
            proc.log.append(proc.cpu.sim.now)

        cpu.spawn("app", body, priority=10)

    Accounting fields (``cpu_time``, ``max_response``, ...) feed the
    availability metrics in :mod:`repro.apps.metrics`.
    """

    def __init__(
        self,
        cpu: "CPU",
        name: str,
        body: Callable[["Process"], Generator],
        priority: int = 0,
    ) -> None:
        self.cpu = cpu
        self.name = name
        self.priority = priority
        self.state = ProcState.NEW
        self.atomic = False
        self.done_signal = Signal(cpu.sim, f"{name}.done")
        self.result: Any = None

        self._generator: Optional[Generator] = None
        self._body = body
        self._remaining: float = 0.0
        self._run_start: float = 0.0
        self._ready_since: float = 0.0
        self._completion: Optional[EventHandle] = None
        self._wake_event: Optional[EventHandle] = None
        self._start_event: Optional[EventHandle] = None
        self._ready_seq: int = 0
        self._pending_value: Any = None

        # accounting
        self.cpu_time: float = 0.0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.preemption_count: int = 0
        self.dispatch_count: int = 0
        self.response_total: float = 0.0
        self.response_max: float = 0.0
        self.response_samples: int = 0

    # -- introspection --------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.state not in (ProcState.NEW, ProcState.DONE)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Process {self.name!r} prio={self.priority} "
            f"state={self.state.value}>"
        )

    # -- internal accounting hooks ---------------------------------------

    def _became_ready(self, now: float, queued: bool = True) -> None:
        """READY at ``now`` with the CPU's next ready sequence number.

        ``queued=False`` is for a process that takes the CPU at once
        (an inline wake): it draws the same number but skips the ready
        heap, where nothing would ever pick it."""
        self.state = ProcState.READY
        self._ready_since = now
        cpu = self.cpu
        cpu._seq += 1
        seq = self._ready_seq = cpu._seq
        if queued:
            heapq.heappush(cpu._ready, (-self.priority, seq, self))

    @property
    def response_mean(self) -> float:
        if self.response_samples == 0:
            return 0.0
        return self.response_total / self.response_samples


class CPU:
    """A single core with fixed-priority preemptive scheduling.

    The CPU is deliberately simple: no time slicing, no priority
    inheritance -- matching the bare-metal / microkernel provers the
    paper targets (SMART on an MCU, HYDRA on seL4 with a
    highest-priority attestation process).
    """

    def __init__(self, sim: Simulator, trace: Optional[Any] = None) -> None:
        self.sim = sim
        self.trace = trace
        self.current: Optional[Process] = None
        self.processes: List[Process] = []
        #: heap of (-priority, ready_seq, process), one entry per
        #: queued transition to READY; the head leaves when it runs,
        #: and an entry is stale once its process has left READY some
        #: other way or become ready again (see :meth:`_pick_next`)
        self._ready: List[tuple] = []
        self._seq = 0
        self._in_advance = False

    @property
    def trace(self) -> Optional[Any]:
        return self._trace

    @trace.setter
    def trace(self, trace: Optional[Any]) -> None:
        self._trace = trace
        #: a :class:`CountingTrace` keeps only its count, so each emit
        #: site bumps ``emitted`` in place instead of calling ``record``
        #: (exact type: a subclass may override ``record``)
        self._tally = trace if type(trace) is CountingTrace else None
        #: ``trace.record`` resolved once for any other sink (``None``
        #: without a trace or with a tally); the hot emit sites call it
        #: directly instead of going through :meth:`_emit`
        self._record = (
            trace.record
            if trace is not None and self._tally is None else None
        )

    # -- public API ------------------------------------------------------

    def spawn(
        self,
        name: str,
        body: Callable[[Process], Generator],
        priority: int = 0,
        delay: float = 0.0,
    ) -> Process:
        """Create a process and make it ready after ``delay`` seconds."""
        proc = Process(self, name, body, priority)
        self.processes.append(proc)
        proc._start_event = self.sim.schedule(delay, self._start, proc)
        return proc

    def kill(self, proc: Process) -> bool:
        """Terminate ``proc`` without running it further.

        Models a power loss, not an exit: pending wake/completion
        events are cancelled, the generator is closed, and -- unlike
        :meth:`_finish` -- ``done_signal`` is *not* fired, because
        nothing on a browned-out device gets to observe its own death.
        Returns ``False`` if the process had already finished.
        """
        if proc.state is ProcState.DONE:
            return False
        if proc._start_event is not None:
            proc._start_event.cancel()
            proc._start_event = None
        if proc._completion is not None:
            if self.current is proc:
                proc.cpu_time += self.sim.now - proc._run_start
            proc._completion.cancel()
            proc._completion = None
        if proc._wake_event is not None:
            proc._wake_event.cancel()
            proc._wake_event = None
        if proc._generator is not None:
            proc._generator.close()
        proc.state = ProcState.DONE
        proc.atomic = False
        proc.finished_at = self.sim.now
        if self.current is proc:
            self.current = None
        self._emit("killed", proc)
        return True

    def reset(self) -> int:
        """Kill every live process (device brownout).

        Finished processes stay in :attr:`processes` so CPU-time
        accounting spans the reset.  Returns the number killed.
        """
        killed = 0
        for proc in list(self.processes):
            if self.kill(proc):
                killed += 1
        return killed

    def idle_fraction(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` during which no process held the CPU."""
        if elapsed <= 0:
            return 0.0
        busy = sum(proc.cpu_time for proc in self.processes)
        return max(0.0, 1.0 - busy / elapsed)

    # -- internals -------------------------------------------------------

    def _emit(self, kind: str, proc: Process, **data: Any) -> None:
        tally = self._tally
        if tally is not None:
            tally.emitted += 1
        elif self._record is not None:
            self._record(self.sim.now, kind, proc.name, **data)

    def _start(self, proc: Process) -> None:
        if proc.state is not ProcState.NEW:
            raise ProcessError(f"process {proc.name!r} already started")
        proc._start_event = None
        proc._generator = proc._body(proc)
        proc.started_at = self.sim.now
        proc._became_ready(self.sim.now)
        self._emit("spawn", proc)
        self._dispatch()

    def _make_ready(self, proc: Process, queued: bool = True) -> None:
        """Wake a sleeper: READY now, recorded as ``ready``.

        The one definition of what a wake records, shared by the wake
        event (:meth:`_wake`, which then dispatches) and the inline
        wake in :meth:`_advance` (``queued=False``, which hands the
        CPU straight back through :meth:`_take`)."""
        now = self.sim.now
        proc._became_ready(now, queued)
        tally = self._tally
        if tally is not None:
            tally.emitted += 1
        elif self._record is not None:
            self._record(now, "ready", proc.name)

    def _pick_next(self) -> Optional[Process]:
        """The ready process that runs next: highest priority, then
        earliest ready.  Stale heap heads are discarded; the live head
        stays queued until :meth:`_dispatch` runs it."""
        ready = self._ready
        while ready:
            _, seq, proc = ready[0]
            if proc.state is ProcState.READY and proc._ready_seq == seq:
                return proc
            heapq.heappop(ready)
        return None

    def _dispatch(self) -> None:
        """Ensure the highest-priority ready/running process holds the
        CPU, resuming it if it was not running.  Peeks the ready head
        as :meth:`_pick_next` does (dropping stale entries) in place."""
        if self._in_advance:
            return
        ready = self._ready
        while ready:
            _, seq, proc = ready[0]
            if proc.state is ProcState.READY and proc._ready_seq == seq:
                break
            heapq.heappop(ready)
        else:
            return  # nothing ready
        current = self.current
        if current is not None:
            if current.atomic or proc.priority <= current.priority:
                return
            self._preempt(current)
        # the candidate leaves the heap as it runs (a preempted runner
        # re-queues below it), so an empty heap means nothing is ready
        heapq.heappop(ready)
        self._take(proc)
        if proc._remaining > 0.0:
            proc._run_start = self.sim.now
            proc._completion = self.sim.schedule(
                proc._remaining, self._compute_done, proc
            )
        else:
            value, proc._pending_value = proc._pending_value, None
            self._advance(proc, value)

    def _preempt(self, proc: Process) -> None:
        """Take the CPU away from ``proc`` mid-Compute."""
        assert proc is self.current
        elapsed = self.sim.now - proc._run_start
        proc._remaining = max(0.0, proc._remaining - elapsed)
        proc.cpu_time += elapsed
        if proc._completion is not None:
            proc._completion.cancel()
            proc._completion = None
        proc.preemption_count += 1
        proc._became_ready(self.sim.now)
        self.current = None
        self._emit("preempt", proc, remaining=proc._remaining)

    def _take(self, proc: Process) -> None:
        """Make READY ``proc`` the runner: dispatch accounting and the
        ``run`` record, shared by :meth:`_dispatch` and the inline wake."""
        assert proc.state is ProcState.READY
        proc.state = ProcState.RUNNING
        now = self.sim.now
        proc.dispatch_count += 1
        latency = now - proc._ready_since
        proc.response_total += latency
        proc.response_samples += 1
        if latency > proc.response_max:
            proc.response_max = latency
        self.current = proc
        tally = self._tally
        if tally is not None:
            tally.emitted += 1
        elif self._record is not None:
            self._record(now, "run", proc.name)

    def _compute_done(self, proc: Process) -> None:
        assert proc is self.current
        proc.cpu_time += proc._remaining
        proc._remaining = 0.0
        proc._completion = None
        self._advance(proc, None)

    def _advance(self, proc: Process, send_value: Any) -> None:
        """Step the generator until it blocks (Compute/Sleep/Wait) or ends.

        ``proc`` is the runner throughout (dispatch waits until this
        returns), so blocking or ending just clears :attr:`current`."""
        self._in_advance = True
        send = proc._generator.send
        sim = self.sim
        try_coalesce = sim.try_coalesce
        try:
            while True:
                try:
                    command = send(send_value)
                except StopIteration as stop:
                    self._finish(proc, getattr(stop, "value", None))
                    return
                send_value = None
                if isinstance(command, Compute):
                    duration = command.duration
                    # recorded at the pre-advance instant on both paths
                    tally = self._tally
                    if tally is not None:
                        tally.emitted += 1
                    elif self._record is not None:
                        self._record(sim.now, "compute", proc.name,
                                     duration=duration)
                    if (
                        proc.atomic or not self._ready
                        or not self._outranked(proc)
                    ) and try_coalesce(duration):
                        # Inline fast path: the completion event would
                        # be the very next event the engine fires, and
                        # the dispatch after scheduling it would not
                        # preempt, so skip the heap round-trip.
                        proc.cpu_time += duration
                        continue
                    proc._remaining = duration
                    proc._run_start = sim.now
                    proc._completion = sim.schedule(
                        duration, self._compute_done, proc
                    )
                    return
                if isinstance(command, Sleep):
                    if proc.atomic:
                        raise ProcessError(
                            f"{proc.name}: Sleep inside atomic section"
                        )
                    duration = command.duration
                    tally = self._tally
                    if tally is not None:
                        tally.emitted += 1
                    elif self._record is not None:
                        self._record(sim.now, "sleep", proc.name,
                                     duration=duration)
                    if not self._ready and try_coalesce(duration):
                        # Inline wake: nothing else is ready, so the CPU
                        # would idle, and the wake event would be the
                        # very next event the engine fires.  The clock
                        # has advanced; hand the CPU straight back, with
                        # the records and accounting of _wake -> _dispatch.
                        self._make_ready(proc, queued=False)
                        self._take(proc)
                        continue
                    self.current = None
                    proc.state = ProcState.SLEEPING
                    proc._wake_event = sim.schedule(
                        duration, self._wake, proc
                    )
                    return
                if isinstance(command, WaitSignal):
                    if proc.atomic:
                        raise ProcessError(
                            f"{proc.name}: WaitSignal inside atomic section"
                        )
                    self.current = None
                    proc.state = ProcState.WAITING
                    command.signal.wait(
                        lambda value, p=proc: self._signal_wake(p, value)
                    )
                    self._emit("wait", proc, signal=command.signal.name)
                    return
                if isinstance(command, Atomic):
                    proc.atomic = command.enabled
                    self._emit("atomic", proc, enabled=command.enabled)
                    continue
                if isinstance(command, Yield):
                    self.current = None
                    proc._became_ready(sim.now)
                    self._emit("yield", proc)
                    return
                raise ProcessError(
                    f"{proc.name}: yielded unsupported command {command!r}"
                )
        finally:
            self._in_advance = False
            self._dispatch()

    def _outranked(self, proc: Process) -> bool:
        """Whether a ready process would preempt ``proc`` at the next
        dispatch (ignoring ``proc.atomic``)."""
        candidate = self._pick_next()
        return candidate is not None and candidate.priority > proc.priority

    def _wake(self, proc: Process) -> None:
        proc._wake_event = None
        if proc.state is not ProcState.SLEEPING:
            return
        self._make_ready(proc)
        self._dispatch()

    def _signal_wake(self, proc: Process, value: Any) -> None:
        if proc.state is not ProcState.WAITING:
            return
        proc._became_ready(self.sim.now)
        proc._pending_value = value
        self._emit("signalled", proc)
        self._dispatch()

    def _finish(self, proc: Process, result: Any) -> None:
        proc.state = ProcState.DONE
        proc.atomic = False
        proc.result = result
        proc.finished_at = self.sim.now
        self.current = None
        self._emit("done", proc)
        proc.done_signal.fire(result)
