"""MPU lock bits, fault policies, accounting."""

import pytest

from repro.errors import LockStateError, MemoryFault
from repro.sim.engine import Simulator
from repro.sim.mpu import FaultPolicy, MemoryProtectionUnit


def fault_count_by_actor(mpu):
    counts = {}
    for record in mpu.faults:
        counts[record.actor] = counts.get(record.actor, 0) + 1
    return counts


def mean_lock_duration(mpu):
    if not mpu.lock_history:
        return 0.0
    return mpu.total_locked_time() / len(mpu.lock_history)


def make_mpu(policy=FaultPolicy.RAISE, count=8):
    sim = Simulator()
    return sim, MemoryProtectionUnit(sim, count, policy)


class TestLockState:
    def test_initially_unlocked(self):
        _, mpu = make_mpu()
        assert not any(mpu.lock_bits)
        assert sum(mpu.lock_bits) == 0

    def test_lock_unlock(self):
        _, mpu = make_mpu()
        mpu.lock(3)
        assert mpu.is_locked(3)
        mpu.unlock(3)
        assert not mpu.is_locked(3)

    def test_double_lock_rejected(self):
        _, mpu = make_mpu()
        mpu.lock(3)
        with pytest.raises(LockStateError):
            mpu.lock(3)

    def test_unlock_unlocked_rejected(self):
        _, mpu = make_mpu()
        with pytest.raises(LockStateError):
            mpu.unlock(3)

    def test_lock_all_unlock_all(self):
        _, mpu = make_mpu()
        mpu.lock_all()
        assert sum(mpu.lock_bits) == 8
        mpu.unlock_all()
        assert sum(mpu.lock_bits) == 0

    def test_lock_all_idempotent_with_partial_locks(self):
        _, mpu = make_mpu()
        mpu.lock(2)
        mpu.lock_all()  # must not double-lock block 2
        assert sum(mpu.lock_bits) == 8

    def test_lock_many(self):
        _, mpu = make_mpu()
        mpu.lock_many([1, 3, 5])
        assert [i for i, bit in enumerate(mpu.lock_bits) if bit] == [1, 3, 5]


class TestEnforcement:
    def test_unlocked_write_allowed(self):
        _, mpu = make_mpu()
        assert mpu.check_write(0, "actor") is True
        assert mpu.faults == []

    def test_raise_policy(self):
        _, mpu = make_mpu(FaultPolicy.RAISE)
        mpu.lock(0)
        with pytest.raises(MemoryFault) as err:
            mpu.check_write(0, "actor")
        assert err.value.block_index == 0

    def test_drop_policy_returns_false(self):
        _, mpu = make_mpu(FaultPolicy.DROP)
        mpu.lock(0)
        assert mpu.check_write(0, "actor") is False

    def test_faults_recorded_with_actor(self):
        sim, mpu = make_mpu(FaultPolicy.DROP)
        mpu.lock(0)
        mpu.check_write(0, "mallory")
        mpu.check_write(0, "mallory")
        mpu.check_write(0, "app")
        assert fault_count_by_actor(mpu) == {"mallory": 2, "app": 1}


class TestAccounting:
    def test_lock_history_durations(self):
        sim, mpu = make_mpu()
        sim.schedule(1.0, mpu.lock, 2)
        sim.schedule(4.0, mpu.unlock, 2)
        sim.run()
        assert len(mpu.lock_history) == 1
        interval = mpu.lock_history[0]
        assert interval.block == 2
        assert interval.duration == pytest.approx(3.0)
        assert mpu.total_locked_time() == pytest.approx(3.0)

    def test_mean_lock_duration(self):
        sim, mpu = make_mpu()
        sim.schedule(0.0, mpu.lock, 0)
        sim.schedule(2.0, mpu.unlock, 0)
        sim.schedule(2.0, mpu.lock, 1)
        sim.schedule(6.0, mpu.unlock, 1)
        sim.run()
        assert mean_lock_duration(mpu) == pytest.approx(3.0)

    def test_mean_lock_duration_empty(self):
        _, mpu = make_mpu()
        assert mean_lock_duration(mpu) == 0.0

    def test_op_counters(self):
        _, mpu = make_mpu()
        mpu.lock_all()
        mpu.unlock_all()
        assert mpu.lock_ops == 8
        assert mpu.unlock_ops == 8


class TestReleaseSignal:
    def test_unlock_fires_release_signal(self):
        sim, mpu = make_mpu()
        released = []
        mpu.release_signal.wait(released.append)
        mpu.lock(5)
        mpu.unlock(5)
        sim.run()
        assert released == [5]

    def test_waiting_writer_pattern(self):
        """A writer blocked on a lock retries after the release."""
        sim, mpu = make_mpu()
        mpu.lock(1)
        outcome = []

        def try_write(_value=None):
            if mpu.is_locked(1):
                mpu.release_signal.wait(try_write)
                return
            outcome.append(sim.now)

        sim.schedule(0.5, try_write)
        sim.schedule(3.0, mpu.unlock, 1)
        sim.run()
        assert outcome == [3.0]
