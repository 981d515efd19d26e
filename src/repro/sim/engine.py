"""Event queue and simulation clock.

The engine is a classic discrete-event simulator: a priority queue of
``(time, sequence, callback)`` entries and a clock that jumps from event
to event.  Everything in the reproduction -- CPU scheduling, network
delivery, self-measurement timers -- is built on :class:`Simulator`.

Determinism
-----------
Two runs with the same inputs produce identical traces: ties in event
time are broken by a monotonically increasing sequence number, and the
engine itself uses no global randomness.  Components that need
randomness take an explicit :class:`random.Random` (or the package's
HMAC-DRBG) so experiments are reproducible from a seed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.errors import SchedulingError
from repro.obs.core import NULL_OBS


class EventHandle:
    """A cancellable reference to a scheduled event.

    Returned by :meth:`Simulator.schedule`.  Cancelling is O(1): the
    entry stays in the heap but is skipped when popped.

    The heap itself stores ``(time, seq, handle)`` tuples so sift
    comparisons run as C-level tuple compares (``seq`` is unique, so
    the handle is never compared); ``__lt__`` is kept for callers that
    order handles directly.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """Discrete-event simulation core.

    Usage::

        sim = Simulator()
        sim.schedule(1.0, print, "one second elapsed")
        sim.run()

    The clock starts at 0.0 and only moves forward.  ``run`` drains the
    queue or stops at ``until``; ``step`` executes exactly one event.

    ``obs`` attaches an :class:`repro.obs.core.Observability` bundle;
    the default is the shared null bundle, and the hot loop skips
    instrumentation entirely in that case (cached-handle ``None``
    checks only).
    """

    def __init__(self, obs: Optional[Any] = None) -> None:
        self.now: float = 0.0
        #: heap of (time, seq, EventHandle) -- see EventHandle docstring
        self._queue: List[tuple] = []
        self._seq: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self._until: Optional[float] = None  # active run() bound
        self.obs = obs if obs is not None else NULL_OBS
        self.obs.bind_clock(lambda: self.now)
        # Cache instrument handles once so the scheduling/firing hot
        # paths pay a single `is None` test when observability is off.
        metrics = self.obs.metrics
        if metrics.enabled:
            self._m_scheduled = metrics.counter(
                "sim.events.scheduled", "events pushed onto the queue"
            )
            self._m_fired = metrics.counter(
                "sim.events.fired", "events popped and executed"
            )
            self._m_cancelled = metrics.counter(
                "sim.events.cancelled", "events cancelled before firing"
            )
        else:
            self._m_scheduled = None
            self._m_fired = None
            self._m_cancelled = None
        profiler = self.obs.profiler
        self._profiler = profiler if profiler.enabled else None
        # Uninstrumented engines (the default) dispatch through a
        # specialized inner loop in run() with no per-event counter or
        # profiler checks; both flags are fixed at construction.
        self._plain = self._m_fired is None and self._profiler is None

    # -- scheduling ---------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args)
        heapq.heappush(self._queue, (time, seq, handle))
        if self._m_scheduled is not None:
            self._m_scheduled.inc()
        return handle

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at {time!r}, before current time {self.now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args)
        heapq.heappush(self._queue, (time, seq, handle))
        if self._m_scheduled is not None:
            self._m_scheduled.inc()
        return handle

    # -- execution ----------------------------------------------------

    def step(self) -> bool:
        """Run the next pending event.  Return ``False`` if none remain."""
        while self._queue:
            handle = heapq.heappop(self._queue)[2]
            if handle.cancelled:
                if self._m_cancelled is not None:
                    self._m_cancelled.inc()
                continue
            if self._profiler is not None:
                self._fire_profiled(handle)
            else:
                self.now = handle.time
                handle.callback(*handle.args)
            if self._m_fired is not None:
                self._m_fired.inc()
            return True
        return False

    def _fire_profiled(self, handle: EventHandle) -> None:
        """Fire one event under the profiler (cold path)."""
        profiler = self._profiler
        advanced = handle.time - self.now
        self.now = handle.time
        wall = profiler.wall_clock
        if wall is not None:
            began = wall()
            handle.callback(*handle.args)
            profiler.record(handle.callback, advanced, wall() - began)
        else:
            handle.callback(*handle.args)
            profiler.record(handle.callback, advanced)

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or the clock passes ``until``.

        Returns the simulation time at which the run stopped.  When
        ``until`` is given and events remain beyond it, the clock is
        advanced exactly to ``until`` (so back-to-back ``run`` calls
        compose).
        """
        if self._running:
            raise SchedulingError("run() called re-entrantly")
        self._running = True
        self._stopped = False
        self._until = until
        queue = self._queue
        pop = heapq.heappop
        try:
            # Specialized dispatch loops for the uninstrumented engine
            # (no metrics, no profiler -- the default): pop, advance,
            # fire, with zero per-event branching on observability.
            # Identical event order and stop()/until semantics to the
            # instrumented loop below.
            if self._plain:
                if until is None:
                    while queue:
                        time, _seq, head = pop(queue)
                        if head.cancelled:
                            continue
                        self.now = time
                        head.callback(*head.args)
                        if self._stopped:
                            break
                    return self.now
                while queue:
                    entry = queue[0]
                    if entry[0] > until:
                        self.now = until
                        return self.now
                    pop(queue)
                    head = entry[2]
                    if head.cancelled:
                        continue
                    self.now = entry[0]
                    head.callback(*head.args)
                    if self._stopped:
                        break
                if self.now < until:
                    self.now = until
                return self.now
            while queue and not self._stopped:
                head = queue[0][2]
                if head.cancelled:
                    pop(queue)
                    if self._m_cancelled is not None:
                        self._m_cancelled.inc()
                    continue
                if until is not None and head.time > until:
                    self.now = until
                    return self.now
                pop(queue)
                if self._profiler is not None:
                    self._fire_profiled(head)
                else:
                    self.now = head.time
                    head.callback(*head.args)
                if self._m_fired is not None:
                    self._m_fired.inc()
                # Batch: drain co-scheduled events at this same instant
                # without re-checking the until bound (head.time <= until
                # already held, and the clock cannot move backwards).
                # Pop order is still (time, seq), so FIFO tie-breaking --
                # and therefore trace parity -- is preserved.
                when = head.time
                while (
                    queue
                    and not self._stopped
                    and queue[0][0] == when
                    and self.now == when
                ):
                    nxt = pop(queue)[2]
                    if nxt.cancelled:
                        if self._m_cancelled is not None:
                            self._m_cancelled.inc()
                        continue
                    if self._profiler is not None:
                        self._fire_profiled(nxt)
                    else:
                        nxt.callback(*nxt.args)
                    if self._m_fired is not None:
                        self._m_fired.inc()
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
            self._until = None
        return self.now

    def stop(self) -> None:
        """Stop a ``run`` in progress after the current event returns."""
        self._stopped = True

    # -- coalesced time advance ---------------------------------------

    def can_coalesce(self, duration: float) -> bool:
        """Whether a completion event ``duration`` from now may be
        *coalesced*: executed inline instead of round-tripping through
        the heap.

        Coalescing is behavior-preserving only when the would-be event
        is provably the next thing the engine would fire, so this
        requires all of:

        * a ``run()`` is active (``step()`` drives events one at a
          time and must observe every one) and has not been stopped;
        * the profiler is off (it attributes wall time per fired
          event, so every event must actually fire);
        * the target time does not overshoot the active ``until``
          bound;
        * the earliest live queued event is *strictly* later than the
          target -- an event at exactly the target time was scheduled
          earlier, holds a smaller sequence number, and must run first.
        """
        if not self._running or self._stopped or self._profiler is not None:
            return False
        target = self.now + duration
        if self._until is not None and target > self._until:
            return False
        head = self._live_head()
        return head is None or head.time > target

    def coalesce_advance(self, duration: float) -> None:
        """Advance the clock inline by ``duration``.

        Only legal immediately after :meth:`can_coalesce` returned
        ``True`` (same stack frame, nothing scheduled in between).  The
        skipped schedule/fire pair is accounted logically -- sequence
        number, scheduled/fired counters -- so telemetry and any later
        tie-breaking are identical to the event-queue path.
        """
        self.now += duration
        self._seq += 1
        if self._m_scheduled is not None:
            self._m_scheduled.inc()
            self._m_fired.inc()

    # -- introspection ------------------------------------------------

    def _live_head(self) -> Optional[EventHandle]:
        """The earliest live event, lazily discarding cancelled heads."""
        queue = self._queue
        while queue:
            head = queue[0][2]
            if not head.cancelled:
                return head
            heapq.heappop(queue)
            if self._m_cancelled is not None:
                self._m_cancelled.inc()
        return None

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(
            1 for _, _, handle in self._queue if not handle.cancelled
        )

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        head = self._live_head()
        return None if head is None else head.time


class Signal:
    """A broadcast condition: processes wait, someone fires.

    ``fire(value)`` wakes every current waiter at the *current* time
    (callbacks are scheduled with zero delay so firing from inside an
    event keeps the event loop's ordering guarantees).  Waiters that
    subscribe after a fire do not see it -- a Signal is an edge, not a
    level.  :attr:`fire_count` supports level-style checks by callers.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.fire_count = 0
        self.last_value: Any = None
        self._waiters: List[Callable[[Any], None]] = []

    def wait(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)`` to run at the next fire."""
        self._waiters.append(callback)

    def unwait(self, callback: Callable[[Any], None]) -> None:
        """Remove a previously registered waiter (no-op if absent)."""
        try:
            self._waiters.remove(callback)
        except ValueError:
            pass

    def clear(self) -> int:
        """Forget every current waiter without waking it.

        Used by :meth:`repro.sim.device.Device.reset`: a brownout wipes
        whatever software was blocked on the signal, so the waiters must
        vanish rather than fire.  Returns the number removed.
        """
        count = len(self._waiters)
        self._waiters = []
        return count

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters with ``value``.  Returns waiter count."""
        self.fire_count += 1
        self.last_value = value
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            self.sim.schedule(0.0, callback, value)
        return len(waiters)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Signal {self.name!r} waiters={len(self._waiters)} "
            f"fires={self.fire_count}>"
        )
