"""Locking delay closed forms, cross-checked against the simulator."""

import pytest

from repro.analysis.locking_math import (
    expected_block_delay,
    lock_exposure,
)
from repro.errors import ParameterError
from repro.ra.locking import make_policy
from repro.ra.measurement import MeasurementConfig, MeasurementProcess
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.units import MiB


def mean_delay_over_blocks(policy: str, n_blocks: int,
                           block_time: float) -> float:
    """Expected write delay averaged over a uniformly chosen block."""
    return sum(
        expected_block_delay(policy, n_blocks, position, block_time)
        for position in range(n_blocks)
    ) / n_blocks


class TestLockExposure:
    def test_no_lock_zero(self):
        assert lock_exposure("no-lock", 8, 3, 0.1) == 0.0

    def test_all_lock_full_window(self):
        assert lock_exposure("all-lock", 8, 3, 0.1) == pytest.approx(0.8)

    def test_dec_lock_grows_with_position(self):
        exposures = [
            lock_exposure("dec-lock", 8, position, 0.1)
            for position in range(8)
        ]
        assert exposures == sorted(exposures)
        assert exposures[0] == pytest.approx(0.1)
        assert exposures[-1] == pytest.approx(0.8)

    def test_inc_lock_shrinks_with_position(self):
        exposures = [
            lock_exposure("inc-lock", 8, position, 0.1)
            for position in range(8)
        ]
        assert exposures == sorted(exposures, reverse=True)
        assert exposures[-1] == pytest.approx(0.1)

    def test_dec_plus_inc_equals_all_plus_one_block(self):
        # A block locked [t_s, measured] plus [measured, t_e] covers
        # the window once, with the measured block counted twice.
        n, d = 8, 0.1
        for position in range(n):
            total = lock_exposure("dec-lock", n, position, d) + (
                lock_exposure("inc-lock", n, position, d)
            )
            assert total == pytest.approx(n * d + d)

    def test_validation(self):
        with pytest.raises(ParameterError):
            lock_exposure("all-lock", 8, 9, 0.1)
        with pytest.raises(ParameterError):
            lock_exposure("mega-lock", 8, 0, 0.1)
        with pytest.raises(ParameterError):
            lock_exposure("all-lock", 0, 0, 0.1)


class TestExpectedDelay:
    def test_all_lock_uniform_arrival(self):
        # L = T: expected delay = T/2.
        assert expected_block_delay("all-lock", 8, 0, 0.1) == (
            pytest.approx(0.4)
        )

    def test_no_lock_zero(self):
        assert expected_block_delay("no-lock", 8, 4, 0.1) == 0.0

    def test_inc_lock_late_blocks_cheap(self):
        early = expected_block_delay("inc-lock", 8, 0, 0.1)
        late = expected_block_delay("inc-lock", 8, 7, 0.1)
        assert late < early

    def test_mean_over_blocks_ordering(self):
        # availability damage: all-lock > dec-lock = inc-lock > no-lock
        n, d = 16, 0.05
        all_lock = mean_delay_over_blocks("all-lock", n, d)
        dec = mean_delay_over_blocks("dec-lock", n, d)
        inc = mean_delay_over_blocks("inc-lock", n, d)
        none = mean_delay_over_blocks("no-lock", n, d)
        assert none == 0.0
        assert dec == pytest.approx(inc)  # mirror images
        assert none < dec < all_lock


class TestSimulationCrossCheck:
    def run_probe_delays(self, policy_name, n=8, arrivals=24):
        """Measure actual commit delays of uniform arrivals in [t_s, t_e]."""
        sim = Simulator()
        device = Device(sim, block_count=n, block_size=32,
                        sim_block_size=4 * MiB)
        per_block = device.block_measure_time("blake2s")
        duration = per_block * n
        t_start = 1.0
        config = MeasurementConfig(
            locking=make_policy(policy_name), priority=50,
        )
        mp = MeasurementProcess(device, config, nonce=b"n")
        sim.schedule_at(
            t_start, lambda: device.cpu.spawn("mp", mp.run, priority=50)
        )
        delays = []
        payload = b"\x99" * 32

        def attempt(block, released):
            committed = device.memory.try_write(block, payload, "probe")
            if committed:
                delays.append(sim.now - released)
            else:
                device.mpu.release_signal.wait(
                    lambda _v, b=block, r=released: attempt(b, r)
                )

        for index in range(arrivals):
            at = t_start + duration * (index + 0.5) / arrivals
            block = index % n
            sim.schedule_at(at, attempt, block, at)
        sim.run(until=60)
        assert len(delays) == arrivals  # every write commits eventually
        return sum(delays) / len(delays), per_block

    def test_all_lock_mean_delay_matches_model(self):
        observed, per_block = self.run_probe_delays("all-lock")
        predicted = mean_delay_over_blocks("all-lock", 8, per_block)
        assert observed == pytest.approx(predicted, rel=0.35)

    def test_dec_lock_cheaper_than_all_lock(self):
        dec, _ = self.run_probe_delays("dec-lock")
        full, _ = self.run_probe_delays("all-lock")
        assert dec < full

    def test_no_lock_zero_delay(self):
        observed, _ = self.run_probe_delays("no-lock")
        assert observed == pytest.approx(0.0, abs=1e-9)
