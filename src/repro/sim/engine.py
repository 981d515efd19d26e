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
    the default is the shared null bundle.  The event counters are
    plain ints read at sample time, so only a profiler changes the
    dispatch loop.
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
        self._fired = 0  # callbacks returned, coalesced steps included
        self._cancelled = 0  # cancelled events discarded from the queue
        # Read when sampled, so scheduling and dispatch never touch the
        # registry; ``_seq`` advances wherever an event is scheduled.
        metrics = self.obs.metrics
        metrics.read_counter("sim.events.scheduled", lambda: self._seq,
                             "events pushed onto the queue")
        metrics.read_counter("sim.events.fired", lambda: self._fired,
                             "events popped and executed")
        metrics.read_counter("sim.events.cancelled", lambda: self._cancelled,
                             "events cancelled before firing")
        profiler = self.obs.profiler
        self._profiler = profiler if profiler.enabled else None

    # -- scheduling ---------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise SchedulingError(f"negative delay {delay!r}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args)
        heapq.heappush(self._queue, (time, seq, handle))
        return handle

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        if not time >= self.now:  # also rejects NaN
            raise SchedulingError(
                f"cannot schedule at {time!r}, before current time {self.now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args)
        heapq.heappush(self._queue, (time, seq, handle))
        return handle

    # -- execution ----------------------------------------------------

    def step(self) -> bool:
        """Run the next pending event.  Return ``False`` if none remain."""
        head = self._live_head()
        if head is None:
            return False
        heapq.heappop(self._queue)
        if self._profiler is not None:
            self._fire_profiled(head)
        else:
            self.now = head.time
            head.callback(*head.args)
        self._fired += 1
        return True

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
        compose).  ``until`` before the current time, or NaN, raises
        :class:`SchedulingError`.
        """
        if self._running:
            raise SchedulingError("run() called re-entrantly")
        if until is not None and not until >= self.now:  # also rejects NaN
            raise SchedulingError(
                f"cannot run until {until!r}, before current time {self.now!r}"
            )
        self._running = True
        self._stopped = False
        self._until = until
        queue = self._queue
        pop = heapq.heappop
        try:
            # Every engine without a profiler: pop, advance, fire,
            # count.  Same order, counts and stop()/until semantics as
            # the profiled loop below.
            if self._profiler is None:
                if until is None:
                    while queue:
                        time, _seq, head = pop(queue)
                        if head.cancelled:
                            self._cancelled += 1
                            continue
                        self.now = time
                        head.callback(*head.args)
                        self._fired += 1
                        if self._stopped:
                            break
                    return self.now
                while queue:
                    entry = queue[0]
                    head = entry[2]
                    if head.cancelled:
                        pop(queue)
                        self._cancelled += 1
                        continue
                    if entry[0] > until:
                        self.now = until
                        return self.now
                    pop(queue)
                    self.now = entry[0]
                    head.callback(*head.args)
                    self._fired += 1
                    if self._stopped:
                        break
                if self.now < until:
                    self.now = until
                return self.now
            while not self._stopped:
                head = self._live_head()
                if head is None:
                    break
                if until is not None and head.time > until:
                    self.now = until
                    return self.now
                self.step()
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

    def try_coalesce(self, duration: float) -> bool:
        """Advance the clock inline by ``duration`` when a completion
        event that far ahead would provably be the next event to fire,
        instead of round-tripping it through the heap.  Returns whether
        it advanced; on ``False`` nothing but cancelled heads changed.

        Coalescing is behavior-preserving only when all of these hold:

        * a ``run()`` is active (``step()`` drives events one at a
          time and must observe every one) and has not been stopped;
        * the profiler is off (it attributes wall time per fired
          event, so every event must actually fire);
        * the target time does not overshoot the active ``until``
          bound;
        * the earliest live queued event is *strictly* later than the
          target -- an event at exactly the target time was scheduled
          earlier, holds a smaller sequence number, and must run first.

        Cancelled heads met on the way are discarded and counted, as
        :meth:`run` would.  The skipped schedule/fire pair is accounted
        logically -- one sequence number, one fired count -- so
        telemetry and later tie-breaking are identical to the
        event-queue path.
        """
        if not self._running or self._stopped or self._profiler is not None:
            return False
        target = self.now + duration
        if self._until is not None and target > self._until:
            return False
        queue = self._queue
        while queue:
            entry = queue[0]
            if not entry[2].cancelled:
                if entry[0] <= target:
                    return False
                break
            heapq.heappop(queue)
            self._cancelled += 1
        self.now = target
        self._seq += 1
        self._fired += 1
        return True

    # -- introspection ------------------------------------------------

    def _live_head(self) -> Optional[EventHandle]:
        """The earliest live event, lazily discarding cancelled heads."""
        queue = self._queue
        while queue:
            head = queue[0][2]
            if not head.cancelled:
                return head
            heapq.heappop(queue)
            self._cancelled += 1
        return None


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
        self._waiters: List[Callable[[Any], None]] = []

    def wait(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)`` to run at the next fire."""
        self._waiters.append(callback)

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
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            self.sim.schedule(0.0, callback, value)
        return len(waiters)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Signal {self.name!r} waiters={len(self._waiters)} "
            f"fires={self.fire_count}>"
        )
