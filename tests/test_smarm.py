"""SMARM: escape probabilities, multi-round amplification, full stack."""

import math

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.malware.relocating import SelfRelocatingMalware
from repro.ra.report import Verdict
from repro.ra.smarm import (
    SmarmAttestation,
    escape_probability,
    escape_trial,
)
from repro.analysis.smarm_math import single_round_escape

from tests.conftest import make_stack


def multi_round_escape_probability(
    n_blocks: int,
    rounds: int,
    trials: int = 2000,
    seed: bytes = b"smarm-mc-rounds",
) -> float:
    """Monte-Carlo estimate that malware escapes ``rounds`` independent
    measurements in a row."""
    drbg = HmacDrbg(seed)
    survived = 0
    for _ in range(trials):
        if all(escape_trial(n_blocks, drbg) for _ in range(rounds)):
            survived += 1
    return survived / trials


def escape_trial_move_once(n_blocks: int, drbg: HmacDrbg) -> bool:
    """The suboptimal single-move strategy, as a game.

    Malware picks one random boundary (after ``j`` of ``n`` blocks are
    measured) and one uniform destination, and relocates exactly once.
    Validates :func:`repro.analysis.smarm_math.move_once_escape`
    (~1/6 for large n, vs e^-1 for the per-block mover).
    """
    order = drbg.permutation(n_blocks)
    position = drbg.randbelow(n_blocks)
    move_after = drbg.randbelow(n_blocks)  # boundary index j
    for step, measured_block in enumerate(order):
        if step == move_after:
            position = drbg.randbelow(n_blocks)
        if position == measured_block:
            return False
    return True


def move_once_escape_probability(
    n_blocks: int,
    trials: int = 2000,
    seed: bytes = b"smarm-mc-once",
) -> float:
    """Monte-Carlo estimate for the single-move strategy."""
    drbg = HmacDrbg(seed)
    escapes = sum(
        escape_trial_move_once(n_blocks, drbg) for _ in range(trials)
    )
    return escapes / trials


class TestAbstractGame:
    def test_single_round_near_e_inverse(self):
        estimate = escape_probability(128, trials=3000)
        assert estimate == pytest.approx(math.exp(-1), abs=0.04)

    def test_escape_trial_deterministic_stream(self):
        a = HmacDrbg(b"x")
        b = HmacDrbg(b"x")
        outcomes_a = [escape_trial(16, a) for _ in range(50)]
        outcomes_b = [escape_trial(16, b) for _ in range(50)]
        assert outcomes_a == outcomes_b

    def test_multi_round_decays(self):
        one = multi_round_escape_probability(32, 1, trials=1200)
        three = multi_round_escape_probability(32, 3, trials=1200)
        assert three < one
        assert three == pytest.approx(
            single_round_escape(32) ** 3, abs=0.04
        )

    def test_extra_moves_do_not_help_malware(self):
        single = escape_probability(48, trials=2500, moves_per_block=1)
        double = escape_probability(
            48, trials=2500, seed=b"other", moves_per_block=2
        )
        assert double == pytest.approx(single, abs=0.04)


class TestFullStack:
    def run_once(self, rounds, seed, strategy="uniform"):
        stack = make_stack(block_count=24, seed=7)
        service = SmarmAttestation(stack.device)
        service.install()
        SelfRelocatingMalware(
            stack.device, target_block=20, infect_at=0.1,
            strategy=strategy, rng_seed=seed,
        )
        results = []
        stack.sim.schedule_at(
            1.0,
            lambda: results.append(
                stack.driver.request(stack.device.name, rounds=rounds)
            ),
        )
        stack.sim.run(until=400)
        return results[0].result.verdict

    def test_stay_put_always_detected(self):
        assert self.run_once(1, seed=3, strategy="stay") is (
            Verdict.COMPROMISED
        )

    def test_single_round_escape_rate_near_e_inverse(self):
        trials = 60
        escapes = sum(
            self.run_once(1, seed=seed) is Verdict.HEALTHY
            for seed in range(trials)
        )
        rate = escapes / trials
        # e^-1 with 60 trials: allow a generous band (sigma ~ 0.06).
        assert 0.15 < rate < 0.60

    def test_thirteen_rounds_detects_in_practice(self):
        """P(escape 13 rounds) ~ 2e-6: these ten trials must all catch
        the malware (a failure here is a one-in-40000 event)."""
        for seed in range(10):
            assert self.run_once(13, seed=seed) is Verdict.COMPROMISED

    def test_each_round_has_distinct_secret_order(self):
        stack = make_stack(block_count=16)
        service = SmarmAttestation(stack.device)
        service.install()
        exchanges = []
        stack.sim.schedule_at(
            0.5,
            lambda: exchanges.append(
                stack.driver.request(stack.device.name, rounds=5)
            ),
        )
        stack.sim.run(until=200)
        report = exchanges[0].report
        seeds = {record.order_seed for record in report.records}
        assert len(seeds) == 5

    def test_measurement_remains_interruptible(self):
        from repro.sim.task import PeriodicTask

        stack = make_stack(
            block_count=24, sim_block_size=2 * 1024 * 1024
        )
        PeriodicTask(stack.device.cpu, "app", period=0.05, wcet=0.001,
                     priority=100)
        service = SmarmAttestation(stack.device)
        service.install()
        exchanges = []
        stack.sim.schedule_at(
            1.0,
            lambda: exchanges.append(
                stack.driver.request(stack.device.name)
            ),
        )
        stack.sim.run(until=60)
        record = exchanges[0].report.records[0]
        assert record.interruptions > 0


class TestMoveOnceValidation:
    def test_monte_carlo_matches_closed_form(self):
        from repro.analysis.smarm_math import move_once_escape

        for n in (16, 64):
            mc = move_once_escape_probability(n, trials=4000)
            exact = move_once_escape(n)
            # 4000 Bernoulli trials at p ~ 0.16: sigma ~ 0.006.
            assert mc == pytest.approx(exact, abs=0.025)

    def test_single_move_clearly_suboptimal(self):
        from repro.analysis.smarm_math import single_round_escape

        mc = move_once_escape_probability(64, trials=3000)
        assert mc < single_round_escape(64) - 0.1
