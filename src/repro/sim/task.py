"""Periodic real-time tasks with deadline accounting.

The safety-critical side of the paper's conflict (Section 2.5) is a
periodic sensor/actuator loop: release every period, do a little work,
meet a deadline.  :class:`PeriodicTask` wraps a job generator in the
release/deadline bookkeeping and exposes the statistics (response
times, deadline misses, blocked writes) that the Table 1 "availability"
and "interruptibility" columns summarize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional

from repro.errors import ConfigurationError, MemoryFault
from repro.sim.memory import Memory
from repro.sim.process import CPU, Compute, Process, Sleep, WaitSignal


@dataclass(slots=True)
class JobRecord:
    """Timing of one job instance of a periodic task; its response time
    and deadline miss are derived in :meth:`PeriodicTask.stats`."""

    index: int
    release: float
    start: Optional[float] = None
    finish: Optional[float] = None
    deadline: float = 0.0
    write_faults: int = 0


@dataclass
class TaskStats:
    """Aggregate availability metrics for one task."""

    jobs_released: int = 0
    jobs_finished: int = 0
    deadline_misses: int = 0
    worst_response: float = 0.0
    total_response: float = 0.0
    write_faults: int = 0

    @property
    def mean_response(self) -> float:
        if self.jobs_finished == 0:
            return 0.0
        return self.total_response / self.jobs_finished

    @property
    def miss_rate(self) -> float:
        if self.jobs_released == 0:
            return 0.0
        return self.deadline_misses / self.jobs_released


class PeriodicTask:
    """A periodic task on the device CPU.

    ``job`` is a generator function ``job(proc, task, job_index)``
    yielding scheduler commands (usually a single ``Compute(wcet)``
    plus some memory writes).  If ``job`` is ``None``, a default job of
    ``Compute(wcet)`` is used.

    The task releases at ``offset``, ``offset + period``, ... and its
    relative deadline defaults to the period (implicit deadlines).
    Releases are strictly periodic: a job that overruns delays the next
    job's *start*, not its release or deadline (standard real-time
    semantics), so overload shows up as deadline misses.
    """

    def __init__(
        self,
        cpu: CPU,
        name: str,
        period: float,
        wcet: float,
        priority: int = 10,
        deadline: Optional[float] = None,
        offset: float = 0.0,
        job: Optional[Callable[[Process, "PeriodicTask", int], Generator]] = None,
        max_jobs: Optional[int] = None,
    ) -> None:
        # each bound is written so that NaN fails it
        if not period > 0:
            raise ConfigurationError("period must be within (0, inf)")
        if not 0 <= wcet <= period:
            raise ConfigurationError("wcet must be within [0, period]")
        if deadline is not None and not deadline > 0:
            raise ConfigurationError("deadline must be within (0, inf)")
        if not offset >= 0:
            raise ConfigurationError("offset must be within [0, inf)")
        if max_jobs is not None and not (
            isinstance(max_jobs, int) and max_jobs >= 1
        ):
            raise ConfigurationError(
                "max_jobs must be None or an integer within [1, inf)"
            )
        self.cpu = cpu
        self.name = name
        self.period = period
        self.wcet = wcet
        self.priority = priority
        self.deadline = period if deadline is None else deadline
        self.offset = offset
        self.max_jobs = max_jobs
        self.jobs: List[JobRecord] = []
        #: ``Compute(wcet)``, built once: a job body yields this rather
        #: than a fresh command per job
        self.compute = Compute(wcet)
        self._job_body = job if job is not None else self._default_job
        self.process = cpu.spawn(name, self._run, priority=priority, delay=0.0)

    # -- job bodies -------------------------------------------------------

    @staticmethod
    def _default_job(proc: Process, task: "PeriodicTask", index: int):
        yield task.compute

    def _run(self, proc: Process):
        sim = self.cpu.sim
        if self.offset > 0:
            yield Sleep(self.offset)
        # one Sleep per task: the CPU reads its duration when it is
        # yielded and keeps no reference, and release > now here
        sleep = Sleep(0.0)
        index = 0
        while self.max_jobs is None or index < self.max_jobs:
            release = self.offset + index * self.period
            if sim.now < release:
                sleep.duration = release - sim.now
                yield sleep
            record = JobRecord(
                index=index, release=release, deadline=release + self.deadline
            )
            self.jobs.append(record)
            record.start = sim.now
            yield from self._job_body(proc, self, index)
            record.finish = sim.now
            index += 1

    # -- statistics ---------------------------------------------------------

    def stats(self, as_of: Optional[float] = None) -> TaskStats:
        """Aggregate job statistics as of time ``as_of`` (defaults to
        the current simulation time).

        A job still in flight whose deadline has not yet passed is
        released-but-pending, not a miss -- otherwise every run would
        end with one artificial miss per task.
        """
        now = self.cpu.sim.now if as_of is None else as_of
        stats = TaskStats()
        for record in self.jobs:
            stats.jobs_released += 1
            stats.write_faults += record.write_faults
            finish = record.finish
            if finish is None:
                if now > record.deadline:
                    stats.deadline_misses += 1
                continue
            stats.jobs_finished += 1
            response = finish - record.release
            stats.total_response += response
            if response > stats.worst_response:
                stats.worst_response = response
            if finish > record.deadline:
                stats.deadline_misses += 1
        return stats


def write_with_retry(
    proc: Process,
    memory: Memory,
    block_index: int,
    data: bytes,
    actor: str,
    record: Optional[JobRecord] = None,
) -> Generator:
    """Write a block, waiting on MPU release when the block is locked.

    The canonical writer for job bodies: it attempts the write and, on
    a :class:`MemoryFault`, hands over to :func:`retry_after_fault`.  A
    hot job body makes that first attempt itself as a plain call, so a
    write that commits costs no generator.
    """
    try:
        memory.write(block_index, data, actor)
    except MemoryFault:
        yield from retry_after_fault(memory, block_index, data, actor, record)


def retry_after_fault(
    memory: Memory,
    block_index: int,
    data: bytes,
    actor: str,
    record: Optional[JobRecord] = None,
) -> Generator:
    """The fault path of :func:`write_with_retry`, entered after a write
    raised :class:`MemoryFault`: count the fault on ``record`` (so
    locking's availability damage is measurable), wait on the MPU's
    release signal and retry, until a write commits."""
    while True:
        if record is not None:
            record.write_faults += 1
        yield WaitSignal(memory.mpu.release_signal)
        try:
            memory.write(block_index, data, actor)
            return
        except MemoryFault:
            pass
