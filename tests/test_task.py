"""Periodic tasks: releases, deadlines, lock-blocked writers."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.process import Atomic, Compute
from repro.sim.task import PeriodicTask, write_with_retry


def make_cpu_device():
    sim = Simulator()
    device = Device(sim, block_count=8, block_size=16)
    return sim, device


class TestReleases:
    def test_job_count_matches_horizon(self):
        sim, device = make_cpu_device()
        task = PeriodicTask(device.cpu, "t", period=1.0, wcet=0.1)
        sim.run(until=5.5)
        assert task.stats().jobs_released == 6  # releases at 0..5

    def test_max_jobs_limits(self):
        sim, device = make_cpu_device()
        task = PeriodicTask(device.cpu, "t", period=1.0, wcet=0.1,
                            max_jobs=3)
        sim.run(until=10.0)
        assert task.stats().jobs_released == 3

    def test_offset_shifts_first_release(self):
        sim, device = make_cpu_device()
        task = PeriodicTask(device.cpu, "t", period=1.0, wcet=0.1,
                            offset=0.5, max_jobs=1)
        sim.run(until=3.0)
        assert task.jobs[0].release == pytest.approx(0.5)
        assert task.jobs[0].start >= 0.5

    def test_response_time_unloaded(self):
        sim, device = make_cpu_device()
        task = PeriodicTask(device.cpu, "t", period=1.0, wcet=0.25,
                            max_jobs=4)
        sim.run(until=10.0)
        stats = task.stats()
        assert stats.jobs_finished == 4
        assert stats.worst_response == pytest.approx(0.25)
        assert stats.deadline_misses == 0

    def test_preempting_task_set_finishes_every_job(self):
        sim, device = make_cpu_device()
        tasks = [
            PeriodicTask(device.cpu, f"t{priority}", period=0.01,
                         wcet=0.001, priority=priority, max_jobs=200)
            for priority in range(1, 6)
        ]
        sim.run()
        assert sum(task.stats().jobs_finished for task in tasks) == 1000

    def test_invalid_period_rejected(self):
        _, device = make_cpu_device()
        with pytest.raises(ConfigurationError):
            PeriodicTask(device.cpu, "t", period=0.0, wcet=0.1)

    def test_wcet_exceeding_period_rejected(self):
        _, device = make_cpu_device()
        with pytest.raises(ConfigurationError):
            PeriodicTask(device.cpu, "t", period=1.0, wcet=2.0)


NAN = float("nan")


class TestParameterBounds:
    """Each bound is written so NaN fails it, and names its field and
    interval."""

    @pytest.mark.parametrize("period", [NAN, -1.0, 0.0])
    def test_period_outside_bound_rejected(self, period):
        _, device = make_cpu_device()
        with pytest.raises(ConfigurationError,
                           match=r"period must be within \(0, inf\)"):
            PeriodicTask(device.cpu, "t", period=period, wcet=0.0)

    @pytest.mark.parametrize("wcet", [NAN, -0.001, 1.001])
    def test_wcet_outside_bound_rejected(self, wcet):
        _, device = make_cpu_device()
        with pytest.raises(ConfigurationError,
                           match=r"wcet must be within \[0, period\]"):
            PeriodicTask(device.cpu, "t", period=1.0, wcet=wcet)

    @pytest.mark.parametrize("wcet", [0.0, 1.0])
    def test_wcet_edges_accepted(self, wcet):
        sim, device = make_cpu_device()
        task = PeriodicTask(device.cpu, "t", period=1.0, wcet=wcet,
                            max_jobs=2)
        sim.run(until=5.0)
        assert task.stats().jobs_finished == 2

    @pytest.mark.parametrize("deadline", [NAN, -1.0, 0.0])
    def test_deadline_outside_bound_rejected(self, deadline):
        _, device = make_cpu_device()
        with pytest.raises(ConfigurationError,
                           match=r"deadline must be within \(0, inf\)"):
            PeriodicTask(device.cpu, "t", period=1.0, wcet=0.1,
                         deadline=deadline)

    @pytest.mark.parametrize("offset", [NAN, -0.5])
    def test_offset_outside_bound_rejected(self, offset):
        _, device = make_cpu_device()
        with pytest.raises(ConfigurationError,
                           match=r"offset must be within \[0, inf\)"):
            PeriodicTask(device.cpu, "t", period=1.0, wcet=0.1,
                         offset=offset)

    def test_zero_offset_accepted(self):
        sim, device = make_cpu_device()
        task = PeriodicTask(device.cpu, "t", period=1.0, wcet=0.1,
                            offset=0.0, max_jobs=1)
        sim.run(until=2.0)
        assert task.jobs[0].release == 0.0

    @pytest.mark.parametrize("max_jobs", [NAN, -3, 0, 2.5, 2.0, "2"])
    def test_max_jobs_outside_bound_rejected(self, max_jobs):
        _, device = make_cpu_device()
        with pytest.raises(ConfigurationError,
                           match=r"max_jobs must be None or an integer "
                                 r"within \[1, inf\)"):
            PeriodicTask(device.cpu, "t", period=1.0, wcet=0.1,
                         max_jobs=max_jobs)

    @pytest.mark.parametrize("max_jobs,released", [(None, 4), (1, 1), (3, 3)])
    def test_max_jobs_edges_accepted(self, max_jobs, released):
        sim, device = make_cpu_device()
        task = PeriodicTask(device.cpu, "t", period=1.0, wcet=0.1,
                            max_jobs=max_jobs)
        sim.run(until=3.5)
        assert len(task.jobs) == released


class TestDeadlines:
    def test_atomic_hog_causes_misses(self):
        """An atomic 3-second measurement starves a 1s-period task."""
        sim, device = make_cpu_device()
        task = PeriodicTask(device.cpu, "t", period=1.0, wcet=0.01,
                            priority=100, max_jobs=6)

        def hog(proc):
            yield Atomic(True)
            yield Compute(3.0)
            yield Atomic(False)

        device.cpu.spawn("hog", hog, priority=1, delay=0.5)
        sim.run(until=10.0)
        stats = task.stats()
        assert stats.deadline_misses >= 2
        assert stats.worst_response > 1.0

    def test_explicit_deadline(self):
        sim, device = make_cpu_device()
        task = PeriodicTask(device.cpu, "t", period=1.0, wcet=0.2,
                            deadline=0.1, max_jobs=2)
        sim.run(until=5.0)
        # wcet 0.2 > deadline 0.1: every job misses.
        assert task.stats().deadline_misses == 2


class TestWriterJobs:
    def test_write_with_retry_immediate(self):
        sim, device = make_cpu_device()
        done = []

        def job(proc, task, index):
            yield Compute(0.001)
            yield from write_with_retry(
                proc, device.memory, 2, b"\x55" * 16, "writer",
                record=task.jobs[-1],
            )
            done.append(sim.now)

        PeriodicTask(device.cpu, "w", period=1.0, wcet=0.001,
                     job=job, max_jobs=1)
        sim.run(until=2.0)
        assert done and device.memory.read_block(2) == b"\x55" * 16

    def test_write_with_retry_waits_for_unlock(self):
        sim, device = make_cpu_device()
        device.mpu.lock(2)
        sim.schedule(2.5, device.mpu.unlock, 2)
        committed = []

        def job(proc, task, index):
            yield Compute(0.001)
            yield from write_with_retry(
                proc, device.memory, 2, b"\x55" * 16, "writer",
                record=task.jobs[-1],
            )
            committed.append(sim.now)

        task = PeriodicTask(device.cpu, "w", period=10.0, wcet=0.001,
                            job=job, max_jobs=1)
        sim.run(until=5.0)
        assert committed and committed[0] >= 2.5
        assert task.stats().write_faults == 1

    def test_unfinished_job_counts_as_miss(self):
        sim, device = make_cpu_device()
        device.mpu.lock(2)  # never released

        def job(proc, task, index):
            yield Compute(0.001)
            yield from write_with_retry(
                proc, device.memory, 2, b"\x00" * 16, "w",
                record=task.jobs[-1],
            )

        task = PeriodicTask(device.cpu, "w", period=1.0, wcet=0.001,
                            job=job, max_jobs=1)
        sim.run(until=5.0)
        stats = task.stats()
        assert stats.jobs_released == 1
        assert stats.jobs_finished == 0
        assert stats.deadline_misses == 1
