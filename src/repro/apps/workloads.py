"""Generic periodic workloads for availability experiments.

Locking mechanisms trade "writable memory availability" (Table 1) for
consistency.  To measure that trade we need tasks that actually write:
:func:`make_writer_task` builds a periodic task whose job writes one or
more data blocks (waiting politely on MPU faults, counting them), and
:class:`WriterWorkload` assembles a whole task set over a device's data
region.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.errors import ConfigurationError, MemoryFault
from repro.sim.device import Device
from repro.sim.process import Process
from repro.sim.task import PeriodicTask, retry_after_fault

#: a writer's 12-byte stamp: payload tag, job index, block index (big-endian)
WRITER_STAMP = struct.Struct(">III")


def make_compute_task(
    device: Device,
    name: str,
    period: float,
    wcet: float,
    priority: int = 20,
) -> PeriodicTask:
    """A CPU-only periodic task (no memory writes)."""
    return PeriodicTask(
        device.cpu, name=name, period=period, wcet=wcet, priority=priority
    )


def make_writer_task(
    device: Device,
    name: str,
    period: float,
    wcet: float,
    blocks: Sequence[int],
    priority: int = 20,
    payload_tag: int = 0,
) -> PeriodicTask:
    """A periodic task whose job writes ``blocks`` every period.

    Writes block on MPU faults (waiting for lock release) and each
    fault is counted on the job record, so locking damage is visible in
    :meth:`~repro.sim.task.PeriodicTask.stats`.
    """
    if not blocks:
        raise ConfigurationError("writer task needs at least one block")
    memory = device.memory
    block_size = memory.block_size
    # the stamp, padded with 0xA5 up to (or truncated to) the block size
    padding = b"\xA5" * (block_size - WRITER_STAMP.size)
    pack = WRITER_STAMP.pack

    def job(proc: Process, task: PeriodicTask, index: int):
        yield task.compute
        write = memory.write
        for block_index in blocks:
            data = (pack(payload_tag, index, block_index) + padding)[:block_size]
            try:
                write(block_index, data, name)
            except MemoryFault:
                yield from retry_after_fault(
                    memory, block_index, data, name, task.jobs[-1]
                )

    return PeriodicTask(
        device.cpu, name=name, period=period, wcet=wcet,
        priority=priority, job=job,
    )


@dataclass
class WriterWorkload:
    """A set of writer tasks spread over the device's data region.

    ``build`` carves the data region into per-task block groups so
    tasks never contend with each other -- all observed write faults
    are caused by attestation locking, which is what the experiment
    wants to isolate.
    """

    device: Device
    task_count: int = 4
    period: float = 0.05
    wcet: float = 0.002
    blocks_per_task: int = 2
    priority: int = 20
    tasks: List[PeriodicTask] = field(default_factory=list)

    def build(self, region_name: str = "data") -> "WriterWorkload":
        region = self.device.memory.regions.get(region_name)
        if region is None:
            raise ConfigurationError(
                f"device has no region {region_name!r}; call "
                "standard_layout() first"
            )
        needed = self.task_count * self.blocks_per_task
        if needed > region.length:
            raise ConfigurationError(
                f"workload needs {needed} blocks, region has {region.length}"
            )
        for task_index in range(self.task_count):
            start = region.start + task_index * self.blocks_per_task
            blocks = list(range(start, start + self.blocks_per_task))
            self.tasks.append(
                make_writer_task(
                    self.device,
                    name=f"writer{task_index}",
                    period=self.period,
                    wcet=self.wcet,
                    blocks=blocks,
                    priority=self.priority,
                    payload_tag=task_index,
                )
            )
        return self

    def worst_response(self) -> float:
        if not self.tasks:
            return 0.0
        return max(task.stats().worst_response for task in self.tasks)
