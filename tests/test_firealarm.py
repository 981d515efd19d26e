"""The fire alarm: detection latency with and without atomic MP."""

import pytest

from repro.apps.firealarm import FireAlarmApp
from repro.errors import ConfigurationError
from repro.obs.core import Observability
from repro.ra.measurement import MeasurementConfig, MeasurementProcess
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.units import MiB


def make_rig(sim_block_size=None):
    sim = Simulator()
    device = Device(sim, block_count=16, block_size=32,
                    sim_block_size=sim_block_size)
    device.standard_layout()
    return sim, device


class TestSensing:
    def test_samples_every_period(self):
        sim, device = make_rig()
        app = FireAlarmApp(device, period=1.0, sample_wcet=0.001)
        sim.run(until=5.5)
        assert app.samples == 6

    def test_ambient_readings_below_threshold(self):
        sim, device = make_rig()
        app = FireAlarmApp(device, period=1.0)
        sim.run(until=3.5)
        assert all(r == app.ambient for r in app.readings)
        assert app.alarm_at is None

    def test_temperature_steps_at_fire(self):
        sim, device = make_rig()
        app = FireAlarmApp(device, period=1.0)
        app.start_fire(2.5)
        sim.run(until=2.4)
        assert app.temperature() == app.ambient
        sim.run(until=2.6)
        assert app.temperature() == app.fire_temperature

    def test_samples_counter_registered_on_first_sample(self):
        sim = Simulator(obs=Observability.enabled(spans=False))
        device = Device(sim, block_count=16, block_size=32)
        device.standard_layout()
        app = FireAlarmApp(device, period=1.0, sample_wcet=0.001)
        sim.run(until=0.0005)
        assert "app.samples" not in sim.obs.metrics.snapshot_flat()
        sim.run(until=5.5)
        assert sim.obs.metrics.snapshot_flat()["app.samples"] == 6.0

    def test_samples_counter_reads_the_live_count(self):
        """``app.samples`` is read from ``FireAlarmApp.samples`` when
        sampled; two alarms on one registry add up."""
        sim = Simulator(obs=Observability.enabled(spans=False))
        apps = []
        for name in ("a", "b"):
            device = Device(sim, name=name, block_count=16, block_size=32)
            device.standard_layout()
            apps.append(FireAlarmApp(device, period=1.0, sample_wcet=0.001))
        sim.run(until=2.5)
        assert sim.obs.metrics.snapshot_flat()["app.samples"] == 6.0
        apps[0].device.reset()
        sim.run(until=5.5)
        assert [app.samples for app in apps] == [3, 6]
        assert sim.obs.metrics.snapshot_flat()["app.samples"] == 9.0

    def test_no_sample_registers_no_series(self):
        sim = Simulator(obs=Observability.enabled(spans=False))
        device = Device(sim, block_count=16, block_size=32,
                        sim_block_size=64 * MiB)
        device.standard_layout()
        mp = MeasurementProcess(device, MeasurementConfig(atomic=True),
                                nonce=b"n", mechanism="smart")
        device.cpu.spawn("mp", mp.run, priority=50)
        app = FireAlarmApp(device, period=1.0, sample_wcet=0.001)
        sim.run(until=0.9)
        flat = sim.obs.metrics.snapshot_flat()
        assert app.samples == 0
        assert "app.samples" not in flat
        assert flat["ra.blocks.measured{mechanism=smart}"] > 0

    def test_invalid_temperatures_rejected(self):
        sim, device = make_rig()
        with pytest.raises(ConfigurationError):
            FireAlarmApp(device, threshold=100.0, fire_temperature=50.0)


class TestAlarmLatency:
    def test_unloaded_latency_under_one_period(self):
        sim, device = make_rig()
        app = FireAlarmApp(device, period=1.0, sample_wcet=0.001)
        app.start_fire(2.5)
        sim.run(until=10.0)
        outcome = app.outcome()
        assert outcome.alarm_sounded
        # Next sample after 2.5 is at t=3.
        assert outcome.alarm_latency == pytest.approx(0.501, abs=0.01)

    def test_atomic_mp_delays_alarm(self):
        """Section 2.5: the fire breaks out just after an atomic MP
        starts; the alarm waits for the measurement to finish."""
        sim, device = make_rig(sim_block_size=32 * MiB)  # ~3.5 s MP
        app = FireAlarmApp(device, period=1.0, sample_wcet=0.001,
                           priority=100)
        config = MeasurementConfig(atomic=True, algorithm="blake2s")
        mp = MeasurementProcess(device, config, nonce=b"n")
        sim.schedule_at(
            2.0, lambda: device.cpu.spawn("mp", mp.run, priority=50)
        )
        app.start_fire(2.1)
        sim.run(until=20.0)
        outcome = app.outcome()
        mp_duration = mp.record.duration
        assert mp_duration > 3.0
        assert outcome.alarm_latency > mp_duration * 0.8
        assert outcome.deadline_misses >= 2

    def test_interruptible_mp_preserves_alarm(self):
        sim, device = make_rig(sim_block_size=32 * MiB)
        app = FireAlarmApp(device, period=1.0, sample_wcet=0.001,
                           priority=100)
        config = MeasurementConfig(atomic=False, algorithm="blake2s",
                                   priority=50)
        mp = MeasurementProcess(device, config, nonce=b"n")
        sim.schedule_at(
            2.0, lambda: device.cpu.spawn("mp", mp.run, priority=50)
        )
        app.start_fire(2.1)
        sim.run(until=20.0)
        outcome = app.outcome()
        assert outcome.alarm_latency < 1.1
        assert mp.record.interruptions > 0


class TestDataWrites:
    def test_reading_stored_to_block(self):
        sim, device = make_rig()
        block = device.memory.regions["data"].start
        app = FireAlarmApp(device, period=1.0, data_block=block)
        sim.run(until=2.5)
        stored = device.memory.read_block(block)
        assert int.from_bytes(stored[:4], "big") == int(app.ambient * 100)

    def test_locked_data_block_counts_faults(self):
        sim, device = make_rig()
        block = device.memory.regions["data"].start
        app = FireAlarmApp(device, period=1.0, data_block=block)
        device.mpu.lock(block)
        sim.schedule_at(3.5, device.mpu.unlock, block)
        sim.run(until=6.0)
        assert app.task.stats().write_faults >= 1
        # After the unlock the app catches up and keeps sampling.
        assert app.samples >= 4
