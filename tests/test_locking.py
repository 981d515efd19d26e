"""Locking policies: lock-state trajectories per mechanism."""

import pytest

from repro.errors import ConfigurationError
from repro.ra.locking import (
    POLICY_NAMES,
    AllLock,
    DecLock,
    IncLock,
    NoLock,
    make_policy,
)
from repro.ra.measurement import MeasurementConfig, MeasurementProcess
from repro.sim.device import Device
from repro.sim.engine import Simulator


def make_device(block_count=6):
    sim = Simulator()
    return Device(sim, block_count=block_count, block_size=16)


class TestFactory:
    def test_all_names_constructible(self):
        for name in POLICY_NAMES:
            policy = make_policy(name)
            assert policy.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("mega-lock")

    def test_extended_flags(self):
        assert make_policy("all-lock-ext").holds_after_end
        assert make_policy("inc-lock-ext").holds_after_end
        assert not make_policy("all-lock").holds_after_end
        assert not make_policy("dec-lock").holds_after_end


class TestNoLock:
    def test_never_locks(self):
        device = make_device()
        policy = NoLock()
        policy.reset(device, range(6))
        assert policy.on_start() == 0
        assert policy.before_block(0) == 0
        assert policy.after_block(0) == 0
        assert policy.on_end() == 0
        assert sum(device.mpu.lock_bits) == 0


class TestAllLock:
    def test_locks_everything_at_start(self):
        device = make_device()
        policy = AllLock()
        policy.reset(device, range(6))
        ops = policy.on_start()
        assert ops == 6
        assert sum(device.mpu.lock_bits) == 6

    def test_releases_everything_at_end(self):
        device = make_device()
        policy = AllLock()
        policy.reset(device, range(6))
        policy.on_start()
        policy.on_end()
        assert sum(device.mpu.lock_bits) == 0

    def test_extended_holds_until_release(self):
        device = make_device()
        policy = AllLock(extended=True)
        policy.reset(device, range(6))
        policy.on_start()
        assert policy.on_end() == 0
        assert sum(device.mpu.lock_bits) == 6
        policy.on_release()
        assert sum(device.mpu.lock_bits) == 0


class TestDecLock:
    def test_releases_blocks_as_measured(self):
        device = make_device()
        policy = DecLock()
        policy.reset(device, range(6))
        policy.on_start()
        assert sum(device.mpu.lock_bits) == 6
        policy.after_block(0)
        assert not device.mpu.is_locked(0)
        assert sum(device.mpu.lock_bits) == 5
        policy.after_block(1)
        assert sum(device.mpu.lock_bits) == 4

    def test_fully_unlocked_after_traversal(self):
        device = make_device()
        policy = DecLock()
        policy.reset(device, range(6))
        policy.on_start()
        for block in range(6):
            policy.before_block(block)
            policy.after_block(block)
        policy.on_end()
        assert sum(device.mpu.lock_bits) == 0


class TestIncLock:
    def test_locks_blocks_as_measured(self):
        device = make_device()
        policy = IncLock()
        policy.reset(device, range(6))
        policy.on_start()
        assert sum(device.mpu.lock_bits) == 0
        policy.before_block(0)
        assert device.mpu.is_locked(0)
        policy.before_block(1)
        assert sum(device.mpu.lock_bits) == 2

    def test_all_locked_at_end_then_released(self):
        device = make_device()
        policy = IncLock()
        policy.reset(device, range(6))
        policy.on_start()
        for block in range(6):
            policy.before_block(block)
            policy.after_block(block)
        assert sum(device.mpu.lock_bits) == 6
        policy.on_end()
        assert sum(device.mpu.lock_bits) == 0

    def test_extended_holds_until_release(self):
        device = make_device()
        policy = IncLock(extended=True)
        policy.reset(device, range(6))
        for block in range(6):
            policy.before_block(block)
        assert policy.on_end() == 0
        assert sum(device.mpu.lock_bits) == 6
        policy.on_release()
        assert sum(device.mpu.lock_bits) == 0


class TestAbort:
    def test_abort_releases_held_locks(self):
        device = make_device()
        policy = DecLock()
        policy.reset(device, range(6))
        policy.on_start()
        policy.after_block(0)
        policy.abort()
        assert sum(device.mpu.lock_bits) == 0

    def test_abort_before_reset_is_noop(self):
        DecLock().abort()


class TestEndToEndLockTrajectories:
    """Whole measurements: the MPU history tells the mechanism apart."""

    def run_with(self, policy_name, release_delay=0.0):
        device = make_device()
        config = MeasurementConfig(
            locking=make_policy(policy_name),
            release_delay=release_delay,
        )
        mp = MeasurementProcess(device, config, nonce=b"n", counter=1,
                                mechanism=policy_name)
        device.cpu.spawn("mp", mp.run, priority=50)
        device.sim.run(until=100)
        return device, mp.record

    def test_no_lock_no_ops(self):
        device, _ = self.run_with("no-lock")
        assert device.mpu.lock_ops == 0

    def test_all_lock_intervals_span_measurement(self):
        device, record = self.run_with("all-lock")
        assert len(device.mpu.lock_history) == 6
        for interval in device.mpu.lock_history:
            assert interval.locked_at <= record.t_start + 1e-6
            assert interval.released_at >= record.t_end - 1e-6

    def test_dec_lock_durations_increase_with_position(self):
        device, _ = self.run_with("dec-lock")
        by_block = {i.block: i.duration for i in device.mpu.lock_history}
        durations = [by_block[i] for i in range(6)]
        assert durations == sorted(durations)

    def test_inc_lock_durations_decrease_with_position(self):
        device, _ = self.run_with("inc-lock")
        by_block = {i.block: i.duration for i in device.mpu.lock_history}
        durations = [by_block[i] for i in range(6)]
        assert durations == sorted(durations, reverse=True)

    def test_extended_release_at_tr(self):
        device, record = self.run_with("all-lock-ext", release_delay=5.0)
        assert record.t_release == pytest.approx(record.t_end + 5.0)
        for interval in device.mpu.lock_history:
            assert interval.released_at == pytest.approx(record.t_release)

    def test_inc_lock_ext_release_at_tr(self):
        device, record = self.run_with("inc-lock-ext", release_delay=2.0)
        assert record.t_release == pytest.approx(record.t_end + 2.0)
        assert sum(device.mpu.lock_bits) == 0
