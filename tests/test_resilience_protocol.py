"""Protocol-level resilience: retransmission, prover-side dedup,
reset recovery, deterministic retry timelines, and the headline
acceptance property -- every on-demand mechanism rides out a lossy
channel plus a prover brownout."""

import dataclasses

import pytest

from repro.core.tradeoff import ScenarioConfig
from repro.crypto import OdroidXU4Model
from repro.ra.report import Verdict
from repro.resilience import FaultPlan, RetryPolicy
from repro.resilience.outcome import (
    OUTCOME_OK,
    OUTCOME_RETRIED_OK,
    OUTCOME_TIMED_OUT,
)
from repro.scenario import MECHANISMS, Scenario
from repro.sim.network import Message
from repro.units import MiB


def small_config(**overrides) -> ScenarioConfig:
    fields = dict(block_count=8, sim_block_size=MiB, horizon=30.0)
    fields.update(overrides)
    return ScenarioConfig(**fields)


def measure_time(config: ScenarioConfig) -> float:
    """Simulated duration of one full measurement pass."""
    model = OdroidXU4Model()
    return config.block_count * model.hash_time(
        config.algorithm, config.sim_block_size
    )


class TestRetransmissionAndDedup:
    def test_lost_report_recovers_without_remeasuring(self):
        """Every report is eaten until t=3; the prover's dedup cache
        answers the retransmitted challenge from the settled report, so
        the exchange completes after retries with exactly one
        measurement run."""
        plan = FaultPlan(seed=b"t1").loss(
            1.0, start=0.0, end=3.0, match="att_report"
        )
        scenario = Scenario.build(
            mechanism="smart",
            faults=plan,
            config=small_config(),
            retry=RetryPolicy(timeout=1.0, max_retries=5, seed=b"t1-r"),
        )
        scenario.schedule_request(1.0)
        scenario.run()

        (exchange,) = scenario.driver.exchanges
        assert exchange.status == "verified"
        assert exchange.result.healthy
        assert exchange.attempts >= 2
        # one measurement, one authenticated report -- the resends came
        # from the dedup cache
        assert scenario.service.requests_handled == 1
        assert len(scenario.service.reports_sent) == 1
        dedup_hits = [
            r for r in scenario.device.trace.records if r.kind == "ra.dedup"
        ]
        assert dedup_hits and all(r.data["settled"] for r in dedup_hits)
        assert scenario.outcomes.counts() == {OUTCOME_RETRIED_OK: 1}

    def test_inflight_duplicate_challenge_never_double_measures(self):
        """The retry timeout is far below the measurement time, so
        retransmitted challenges land while the measurement is still
        running -- the prover drops them instead of spawning a second
        measurement."""
        config = small_config(sim_block_size=32 * MiB)
        slow = measure_time(config)
        scenario = Scenario.build(
            mechanism="smart",
            config=config,
            retry=RetryPolicy(
                timeout=slow / 4, max_retries=6, backoff=2.0, seed=b"t2-r"
            ),
        )
        scenario.schedule_request(1.0)
        scenario.run()

        (exchange,) = scenario.driver.exchanges
        assert exchange.status == "verified"
        assert exchange.attempts >= 2  # duplicates really were sent
        assert scenario.service.requests_handled == 1
        assert scenario.service._counter == 1  # one MeasurementProcess
        inflight = [
            r for r in scenario.device.trace.records
            if r.kind == "ra.dedup" and not r.data["settled"]
        ]
        assert inflight
        assert scenario.outcomes.counts() == {OUTCOME_RETRIED_OK: 1}


class TestUnverifiableConclusion:
    def test_damaged_reports_conclude_timed_out_not_verified(self):
        """Every report's MAC is shredded in flight (nonce intact, so
        it still matches its exchange), so each attempt comes back
        unverifiable: exhausting the retry budget on bad verdicts is a
        timed-out exchange, never ok/retried-ok."""
        scenario = Scenario.build(
            mechanism="smart",
            config=small_config(),
            retry=RetryPolicy(
                timeout=1.0, max_retries=2, max_timeout=2.0, seed=b"t12-r"
            ),
        )

        def shred_mac(message):
            if message.kind != "att_report":
                return 0.002
            report = message.payload
            forged = dataclasses.replace(
                report, auth_tag=bytes(len(report.auth_tag))
            )
            return [(0.002, dataclasses.replace(message, payload=forged))]

        scenario.channel.add_filter(shred_mac)
        scenario.schedule_request(1.0)
        scenario.run()
        (exchange,) = scenario.driver.exchanges
        assert exchange.result.verdict in (Verdict.INVALID, Verdict.REPLAY)
        assert exchange.status == "timed-out"
        assert scenario.outcomes.counts() == {OUTCOME_TIMED_OUT: 1}
        assert scenario.outcomes.completion_rate == 0.0


class TestDeterministicBackoff:
    def _run(self):
        scenario = Scenario.build(
            mechanism="smart",
            faults="loss=0.4@0:40",
            fault_seed=b"det-faults",
            config=small_config(horizon=45.0),
            retry=RetryPolicy(
                timeout=0.8, max_retries=6, backoff=1.5, seed=b"det-r"
            ),
        )
        for i in range(8):
            scenario.schedule_request(1.0 + 2.0 * i)
        scenario.run()
        retries = [
            (r.time, r.data["attempt"])
            for r in scenario.device.trace.records
            if r.kind == "ra.retry"
        ]
        return retries, scenario.outcomes.to_dict()

    def test_two_seeded_runs_retry_at_identical_times(self):
        first_retries, first_outcomes = self._run()
        second_retries, second_outcomes = self._run()
        assert first_retries  # the loss plan really forced retries
        assert first_retries == second_retries
        assert first_outcomes == second_outcomes


class TestResetRecovery:
    def test_reset_mid_measurement_clears_locks_and_dedup(self):
        """A brownout in the middle of a locking measurement: the MPU
        lock bits and the dedup cache are volatile (documented in
        Device.reset), so they vanish -- and the next retransmission
        legitimately re-measures and completes the exchange."""
        config = small_config(sim_block_size=32 * MiB, horizon=12.0)
        slow = measure_time(config)
        reset_at = 1.0 + 0.5 * slow
        scenario = Scenario.build(
            mechanism="inc-lock",
            faults=FaultPlan(seed=b"t4").reset(at=reset_at),
            config=config,
            retry=RetryPolicy(timeout=1.0, max_retries=6, seed=b"t4-r"),
        )
        scenario.schedule_request(1.0)

        probes = {}

        def probe(label):
            probes[label] = {
                "locked": sum(scenario.device.mpu.lock_bits),
                "dedup": len(scenario.service._dedup),
            }

        scenario.sim.schedule_at(reset_at - 0.01, probe, "before")
        scenario.sim.schedule_at(reset_at + 0.01, probe, "after")
        scenario.run()

        assert probes["before"]["locked"] > 0
        assert probes["before"]["dedup"] == 1
        assert probes["after"]["locked"] == 0
        assert probes["after"]["dedup"] == 0
        # recovery: the post-reset retransmission re-measured
        (exchange,) = scenario.driver.exchanges
        assert exchange.status == "verified"
        assert exchange.result.healthy
        assert scenario.service.requests_handled == 1  # post-reset run
        assert scenario.outcomes.resets == [pytest.approx(reset_at)]
        assert scenario.outcomes.counts() == {OUTCOME_RETRIED_OK: 1}

    def test_erasmus_survives_a_brownout(self):
        """A brownout kills the self-measurement loop and wipes the
        collect_request listener; the reset hook reinstalls both, so
        post-reset collections still answer and the schedule resumes
        where it left off."""
        scenario = Scenario.build(
            mechanism="erasmus",
            faults=FaultPlan(seed=b"t10").reset(at=3.0),
            config=small_config(t_m=2.0, horizon=20.0),
            retry=RetryPolicy(timeout=1.0, max_retries=3, seed=b"t10-r"),
        )
        scenario.schedule_collections(6.0, 2)  # both after the reset
        scenario.run()
        assert scenario.device.reset_count == 1
        assert scenario.collector.missed == 0
        assert len(scenario.collector.collections) == 2
        assert all(
            c.result.healthy for c in scenario.collector.collections
        )
        # the self-measurement schedule resumed after the brownout
        assert any(r.t_end > 3.0 for r in scenario.service.history)

    def test_seed_fetch_path_survives_a_brownout(self):
        """The seed_fetch listener is volatile; the reset hook re-arms
        it, so catch-up still recovers pushes lost after a reset."""
        plan = (
            FaultPlan(seed=b"t11")
            .loss(1.0, match="seed_report")
            .reset(at=1.0)
        )
        scenario = Scenario.build(
            mechanism="seed",
            faults=plan,
            config=small_config(
                horizon=40.0,
                seed_shared=b"seed-shared-0123",
                seed_min_gap=2.0,
                seed_max_gap=4.0,
                seed_triggers=3,
                seed_serve_fetch=True,
                seed_catch_up=True,
            ),
        )
        scenario.run()
        assert scenario.device.reset_count == 1
        monitor = scenario.seed_monitor
        assert scenario.service.fetches_served == 3
        assert all(slot.received for slot in monitor.expected)
        assert all(slot.result.healthy for slot in monitor.expected)


class TestErasmusResilience:
    def test_lost_replies_are_retried_until_the_burst_ends(self):
        plan = FaultPlan(seed=b"t5").loss(
            1.0, start=0.0, end=7.0, match="collect_reply"
        )
        scenario = Scenario.build(
            mechanism="erasmus",
            faults=plan,
            config=small_config(t_m=2.5, horizon=20.0),
            retry=RetryPolicy(timeout=1.0, max_retries=5, seed=b"t5-r"),
        )
        scenario.schedule_collections(5.0, 2)
        scenario.run()
        assert scenario.collector.missed == 0
        assert len(scenario.collector.collections) == 2
        assert all(
            c.result.healthy for c in scenario.collector.collections
        )

    def test_collection_blackout_is_counted_as_missed(self):
        plan = FaultPlan(seed=b"t6").loss(1.0, match="collect_reply")
        scenario = Scenario.build(
            mechanism="erasmus",
            faults=plan,
            config=small_config(t_m=2.5, horizon=20.0),
            retry=RetryPolicy(
                timeout=0.5, max_retries=2, max_timeout=1.0, seed=b"t6-r"
            ),
        )
        scenario.schedule_collections(5.0, 2)
        scenario.run()
        assert scenario.collector.missed == 2
        assert scenario.collector.collections == []


class TestSeedCatchUp:
    def test_fetch_recovers_every_lost_push(self):
        """Every seed_report push is eaten; with serve_fetch + catch_up
        armed, each missed slot is recovered over the fetch path."""
        plan = FaultPlan(seed=b"t7").loss(1.0, match="seed_report")
        scenario = Scenario.build(
            mechanism="seed",
            faults=plan,
            config=small_config(
                horizon=40.0,
                seed_shared=b"seed-shared-0123",
                seed_min_gap=2.0,
                seed_max_gap=4.0,
                seed_triggers=4,
                seed_serve_fetch=True,
                seed_catch_up=True,
            ),
        )
        scenario.run()
        monitor = scenario.seed_monitor
        assert scenario.service.fetches_served == 4
        assert monitor.fetched == 4
        assert all(slot.received for slot in monitor.expected)
        assert all(slot.result.healthy for slot in monitor.expected)

    def test_without_catch_up_the_slots_stay_missing(self):
        plan = FaultPlan(seed=b"t8").loss(1.0, match="seed_report")
        scenario = Scenario.build(
            mechanism="seed",
            faults=plan,
            config=small_config(
                horizon=40.0,
                seed_shared=b"seed-shared-0123",
                seed_min_gap=2.0,
                seed_max_gap=4.0,
                seed_triggers=4,
            ),
        )
        scenario.run()
        assert scenario.seed_monitor.fetched == 0
        assert not any(s.received for s in scenario.seed_monitor.expected)

    def test_replayed_reply_cannot_fill_a_foreign_slot(self):
        """A forged seed_fetch_reply whose unauthenticated payload
        counter points at slot 3 but whose report was generated for
        slot 1 must never fill slot 3 -- the slot binding is the
        MAC-covered sent_counter, not the echoed counter."""
        plan = (
            FaultPlan(seed=b"t9")
            .loss(1.0, match="seed_report")
            .loss(1.0, match="seed_fetch_reply")
        )
        scenario = Scenario.build(
            mechanism="seed",
            faults=plan,
            config=small_config(
                horizon=40.0,
                seed_shared=b"seed-shared-0123",
                seed_min_gap=2.0,
                seed_max_gap=4.0,
                seed_triggers=3,
                seed_serve_fetch=True,
                seed_catch_up=True,
            ),
        )
        scenario.run()
        monitor = scenario.seed_monitor
        # every push and every fetch reply was eaten
        assert not any(slot.received for slot in monitor.expected)
        genuine = scenario.service.reports_sent[0]  # counter 1
        target = monitor.expected[2]  # slot counter 3
        monitor._on_fetch_reply(Message(
            999, scenario.device.name, "vrf", "seed_fetch_reply",
            {"counter": target.counter, "report": genuine},
            scenario.sim.now,
        ))
        assert not target.received  # the forged binding was ignored
        # the report can only land in the slot it was generated for
        assert monitor.expected[0].received
        assert monitor.expected[0].result.healthy


def on_demand_mechanisms():
    return [
        name for name, entry in MECHANISMS.items()
        if entry.kind == "on-demand"
    ]


class TestAcceptance:
    """The issue's headline property: a seeded 30% loss burst plus one
    prover reset, and every on-demand mechanism still completes >= 95%
    of 100 exchanges with zero false ``compromised`` verdicts."""

    EXCHANGES = 100

    @pytest.mark.parametrize("mechanism", on_demand_mechanisms())
    def test_lossy_channel_with_brownout(self, mechanism):
        spacing = 2.0
        horizon = 1.0 + spacing * self.EXCHANGES + 30.0
        scenario = Scenario.build(
            mechanism=mechanism,
            faults=f"loss=0.3@0:{horizon};reset@6",
            fault_seed=f"accept-{mechanism}".encode(),
            config=small_config(horizon=horizon, rounds=3),
            retry=RetryPolicy(
                timeout=1.0, max_retries=6, backoff=1.5,
                max_timeout=6.0, seed=f"accept-{mechanism}-r".encode(),
            ),
        )
        for i in range(self.EXCHANGES):
            scenario.schedule_request(1.0 + spacing * i)
        scenario.run()

        outcomes = scenario.outcomes
        assert outcomes.total == self.EXCHANGES
        assert outcomes.completion_rate >= 0.95
        assert len(outcomes.resets) == 1
        # the channel was genuinely hostile...
        assert scenario.injector.lost_count > 0
        assert outcomes.counts().get(OUTCOME_OK, 0) < self.EXCHANGES
        # ...yet nothing was ever misread as malware
        assert not any(
            r.verdict is Verdict.COMPROMISED
            for r in scenario.verifier.results
        )
        assert not any(
            o.verdict == Verdict.COMPROMISED.value
            for o in outcomes.exchanges
        )
