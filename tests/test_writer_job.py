"""The writer job against an oracle that keeps its original body.

:func:`repro.apps.workloads.make_writer_task` builds each job from a
``Compute`` made once per task, a precompiled ``struct`` stamp and a
plain first write that enters :func:`repro.sim.task.retry_after_fault`
only on a fault.  :func:`oracle_writer_task` is the literal body it
replaced: ``yield Compute(task.wcet)``, a ``to_bytes`` + ``ljust``
stamp and ``yield from write_with_retry``.  Over drawn lock policies,
MPU fault policies, task sets and block sizes (below the 12-byte stamp
too, where it is truncated) both must leave the same trace, write log,
task statistics and MPU faults.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.apps.workloads import WriterWorkload
from repro.ra.locking import make_policy
from repro.ra.measurement import MeasurementConfig, MeasurementProcess
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.mpu import FaultPolicy
from repro.sim.process import Compute
from repro.sim.task import PeriodicTask, write_with_retry

BLOCK_COUNT = 32  # 16 data blocks: room for 4 writers x 3 blocks


def oracle_writer_task(device, name, period, wcet, blocks, priority=20,
                       payload_tag=0):
    """``make_writer_task`` with the per-job body it had before."""
    block_size = device.memory.block_size

    def job(proc, task, index):
        yield Compute(task.wcet)
        record = task.jobs[-1]
        for block_index in blocks:
            stamp = (
                payload_tag.to_bytes(4, "big")
                + index.to_bytes(4, "big")
                + block_index.to_bytes(4, "big")
            )
            data = stamp.ljust(block_size, b"\xA5")[:block_size]
            yield from write_with_retry(
                proc, device.memory, block_index, data,
                actor=task.name, record=record,
            )

    return PeriodicTask(
        device.cpu, name=name, period=period, wcet=wcet,
        priority=priority, job=job,
    )


def run_writers(policy, fault_policy, writers, blocks_per_task, block_size,
                writer_priority, trace_path):
    """One run: writers beside two locking measurements.

    Returns everything the writer job can move: the trace export, the
    write log, each task's statistics and job records, and the MPU's
    faults."""
    sim = Simulator()
    device = Device(sim, block_count=BLOCK_COUNT, block_size=block_size,
                    sim_block_size=64 * 1024, fault_policy=fault_policy)
    device.standard_layout()
    workload = WriterWorkload(
        device, task_count=writers, period=0.01, wcet=0.001,
        blocks_per_task=blocks_per_task, priority=writer_priority,
    ).build()
    for at in (0.003, 0.061):
        mp = MeasurementProcess(
            device, MeasurementConfig(locking=make_policy(policy)),
            nonce=b"n",
        )
        sim.schedule_at(at, device.cpu.spawn, "mp", mp.run, 50)
    sim.run(until=0.15)
    device.trace.to_jsonl(trace_path)
    with open(trace_path, "rb") as handle:
        trace = handle.read()
    return {
        "trace": trace,
        "writes": [
            (w.time, w.block, w.actor, w.content)
            for w in device.memory.write_log
        ],
        "stats": [task.stats() for task in workload.tasks],
        "jobs": [list(task.jobs) for task in workload.tasks],
        "faults": list(device.mpu.faults),
    }


def run_oracle(*args):
    with mock.patch("repro.apps.workloads.make_writer_task",
                    oracle_writer_task):
        return run_writers(*args)


class TestWriterJobDifferential:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        policy=st.sampled_from(
            ["no-lock", "all-lock", "dec-lock", "inc-lock"]
        ),
        fault_policy=st.sampled_from([FaultPolicy.RAISE, FaultPolicy.DROP]),
        writers=st.integers(min_value=1, max_value=4),
        blocks_per_task=st.integers(min_value=1, max_value=3),
        block_size=st.sampled_from([4, 8, 11, 12, 13, 16, 64]),
        writer_priority=st.sampled_from([20, 100]),
    )
    def test_matches_the_oracle_writer(self, tmp_path_factory, policy,
                                       fault_policy, writers,
                                       blocks_per_task, block_size,
                                       writer_priority):
        path = tmp_path_factory.mktemp("writer") / "trace.jsonl"
        args = (policy, fault_policy, writers, blocks_per_task,
                block_size, writer_priority, path)
        assert run_writers(*args) == run_oracle(*args)

    def test_the_drawn_runs_take_the_fault_path(self, tmp_path):
        """Writers that preempt a Dec-Lock measurement under RAISE
        fault, wait and retry, so the differential covers
        ``retry_after_fault``, not only the plain first write."""
        args = ("dec-lock", FaultPolicy.RAISE, 4, 3, 8, 100,
                tmp_path / "trace.jsonl")
        run = run_writers(*args)
        assert run["faults"]
        assert sum(stats.write_faults for stats in run["stats"]) > 0
        assert run == run_oracle(*args)
