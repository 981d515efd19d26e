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
    multi_round_escape_probability,
)
from repro.analysis.smarm_math import single_round_escape

from tests.conftest import make_stack


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
        from repro.ra.smarm import move_once_escape_probability

        for n in (16, 64):
            mc = move_once_escape_probability(n, trials=4000)
            exact = move_once_escape(n)
            # 4000 Bernoulli trials at p ~ 0.16: sigma ~ 0.006.
            assert mc == pytest.approx(exact, abs=0.025)

    def test_single_move_clearly_suboptimal(self):
        from repro.analysis.smarm_math import single_round_escape
        from repro.ra.smarm import move_once_escape_probability

        mc = move_once_escape_probability(64, trials=3000)
        assert mc < single_round_escape(64) - 0.1
