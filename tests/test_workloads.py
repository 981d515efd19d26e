"""Writer workloads and availability metrics."""

import pytest

from repro.apps.metrics import summarize_tasks
from repro.apps.workloads import (
    WriterWorkload,
    make_compute_task,
    make_writer_task,
)
from repro.errors import ConfigurationError
from repro.ra.locking import make_policy
from repro.ra.measurement import MeasurementConfig, MeasurementProcess
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.units import MiB


def make_device(sim_block_size=None):
    sim = Simulator()
    device = Device(sim, block_count=16, block_size=32,
                    sim_block_size=sim_block_size)
    device.standard_layout()
    return sim, device


class TestWriterTask:
    def test_writes_land(self):
        sim, device = make_device()
        task = make_writer_task(device, "w", period=0.5, wcet=0.01,
                                blocks=[10, 11])
        sim.run(until=1.2)
        assert 10 not in device.memory.dirty_blocks() or True
        # Both blocks hold the task's stamp (payload_tag 0, some index).
        assert device.memory.read_block(10) != device.memory.benign_block(10)
        assert device.memory.read_block(11) != device.memory.benign_block(11)

    def test_no_blocks_rejected(self):
        _, device = make_device()
        with pytest.raises(ConfigurationError):
            make_writer_task(device, "w", period=1.0, wcet=0.01, blocks=[])

    def test_compute_task_touches_no_memory(self):
        sim, device = make_device()
        make_compute_task(device, "c", period=0.5, wcet=0.01)
        sim.run(until=2.0)
        assert device.memory.dirty_blocks() == []


class TestWriterWorkload:
    def test_build_partitions_data_region(self):
        sim, device = make_device()
        workload = WriterWorkload(device, task_count=3,
                                  blocks_per_task=2).build()
        assert len(workload.tasks) == 3
        blocks = set()
        for task in workload.tasks:
            pass
        sim.run(until=0.5)
        # Six distinct data blocks dirtied, no overlap.
        data = device.memory.regions["data"]
        dirty = [b for b in device.memory.dirty_blocks() if b in data]
        assert len(dirty) == 6

    def test_build_requires_layout(self):
        sim = Simulator()
        device = Device(sim, block_count=16, block_size=32)
        with pytest.raises(ConfigurationError):
            WriterWorkload(device).build()

    def test_build_rejects_oversubscription(self):
        _, device = make_device()
        with pytest.raises(ConfigurationError):
            WriterWorkload(device, task_count=10,
                           blocks_per_task=2).build()

    def test_all_lock_measurement_causes_faults(self):
        sim, device = make_device(sim_block_size=2 * MiB)
        workload = WriterWorkload(
            device, task_count=2, period=0.02, wcet=0.001,
            blocks_per_task=2,
        ).build()
        config = MeasurementConfig(
            locking=make_policy("all-lock"), priority=5,
        )
        mp = MeasurementProcess(device, config, nonce=b"n")
        sim.schedule_at(
            0.5, lambda: device.cpu.spawn("mp", mp.run, priority=5)
        )
        sim.run(until=3.0)
        assert sum(t.stats().write_faults for t in workload.tasks) > 0
        assert workload.worst_response() > 0.02

    def test_no_lock_measurement_causes_no_faults(self):
        sim, device = make_device(sim_block_size=2 * MiB)
        workload = WriterWorkload(
            device, task_count=2, period=0.02, wcet=0.001,
            blocks_per_task=2,
        ).build()
        config = MeasurementConfig(priority=5)
        mp = MeasurementProcess(device, config, nonce=b"n")
        sim.schedule_at(
            0.5, lambda: device.cpu.spawn("mp", mp.run, priority=5)
        )
        sim.run(until=3.0)
        assert sum(t.stats().write_faults for t in workload.tasks) == 0


class TestMetrics:
    def test_summarize_tasks(self):
        sim, device = make_device()
        workload = WriterWorkload(
            device, task_count=2, period=0.1, wcet=0.005,
            blocks_per_task=2,
        ).build()
        sim.run(until=2.0)
        report = summarize_tasks(device, workload.tasks)
        assert report.jobs_released > 0
        assert report.jobs_finished > 0
        assert report.miss_rate == 0.0
        assert set(report.per_task) == {"writer0", "writer1"}
        assert report.elapsed == pytest.approx(2.0)
        assert 0.0 <= report.cpu_idle_fraction <= 1.0

    def test_summary_line_renders(self):
        sim, device = make_device()
        workload = WriterWorkload(device, task_count=1).build()
        sim.run(until=1.0)
        line = summarize_tasks(device, workload.tasks).summary_line()
        assert "jobs=" in line and "misses=" in line

    def test_lock_accounting_in_report(self):
        sim, device = make_device()
        device.mpu.lock(0)
        sim.schedule(1.0, device.mpu.unlock, 0)
        workload = WriterWorkload(device, task_count=1).build()
        sim.run(until=2.0)
        report = summarize_tasks(device, workload.tasks)
        assert report.locked_block_seconds == pytest.approx(1.0)
        assert report.lock_ops == 2
