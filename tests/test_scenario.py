"""Scenario.build: the one canonical wiring path.

These tests pin the factory's contract -- validation of every axis,
which pieces each mechanism kind populates, the opt-in nature of
the resilience layer (no retry, no faults => no extra machinery), and
the one way a run is driven (``drive``) and folded (``outcome``)."""

import random
from types import SimpleNamespace

import pytest

from repro.core.tradeoff import ScenarioConfig
from repro.errors import ConfigurationError
from repro.fleet.campaign import (
    KNOWN_ADVERSARIES,
    KNOWN_MECHANISMS,
    KNOWN_WORKLOADS,
)
from repro.malware.relocating import SelfRelocatingMalware
from repro.malware.transient import TransientMalware
from repro.obs.core import Observability
from repro.ra.report import Verdict
from repro.resilience import FaultPlan, OutcomeReport, RetryPolicy
from repro.scenario import (
    MALWARE,
    MECHANISMS,
    WORKLOADS,
    Scenario,
    first_detection,
)
from repro.sim import Trace
from repro.units import MiB

from tests.conftest import pending_count


def small_config(**overrides) -> ScenarioConfig:
    fields = dict(block_count=8, sim_block_size=MiB, horizon=20.0)
    fields.update(overrides)
    return ScenarioConfig(**fields)


class TestQuickstart:
    def test_default_build_attests_healthy(self):
        scenario = Scenario.build(mechanism="smart", config=small_config())
        exchange = scenario.driver.request(scenario.device.name)
        scenario.run(until=60)
        assert exchange.result.healthy


class TestValidation:
    def test_unknown_axes_raise(self):
        with pytest.raises(ConfigurationError, match="mechanism 'quantum'"):
            Scenario.build(mechanism="quantum")
        with pytest.raises(ConfigurationError, match="malware 'ransomware'"):
            Scenario.build(malware="ransomware", config=small_config())
        with pytest.raises(ConfigurationError, match="workload 'mining'"):
            Scenario.build(workload="mining", config=small_config())
        with pytest.raises(ConfigurationError, match="layout 'exotic'"):
            Scenario.build(layout="exotic", config=small_config())
        with pytest.raises(ConfigurationError):
            Scenario.build(faults=42, config=small_config())

    def test_probes_need_a_data_region(self):
        with pytest.raises(ConfigurationError, match="data region"):
            Scenario.build(layout=None, config=small_config(probe_count=2))
        # the standard layout has one, and no probes need none
        Scenario.build(config=small_config(probe_count=2)).drive()
        Scenario.build(layout=None, config=small_config()).drive()

    def test_misspelled_config_field_raises(self):
        with pytest.raises(TypeError, match="'dwel'"):
            ScenarioConfig(dwel=3.0)

    def test_request_and_collect_are_kind_checked(self):
        erasmus = Scenario.build(mechanism="erasmus", config=small_config())
        with pytest.raises(ConfigurationError):
            erasmus.schedule_request(1.0)
        smart = Scenario.build(mechanism="smart", config=small_config())
        with pytest.raises(ConfigurationError):
            smart.schedule_collections(5.0, 2)


class TestResilienceIsOptIn:
    def test_bare_build_has_no_resilience_machinery(self):
        scenario = Scenario.build(mechanism="smart", config=small_config())
        assert scenario.retry is None
        assert scenario.outcomes is None
        assert scenario.fault_plan is None
        assert scenario.injector is None
        assert scenario.driver.retry is None

    def test_empty_fault_string_stays_inert(self):
        scenario = Scenario.build(
            mechanism="smart", faults="", config=small_config()
        )
        assert scenario.fault_plan is None
        assert scenario.injector is None
        assert scenario.outcomes is None

    def test_retry_implies_an_outcome_ledger(self):
        scenario = Scenario.build(
            mechanism="smart",
            config=small_config(),
            retry=RetryPolicy(timeout=0.5),
        )
        assert isinstance(scenario.outcomes, OutcomeReport)
        assert scenario.driver.outcomes is scenario.outcomes

    def test_reset_only_plan_installs_no_channel_filter(self):
        scenario = Scenario.build(
            mechanism="smart",
            faults=FaultPlan(seed=b"r").reset(at=5.0),
            config=small_config(),
        )
        assert scenario.injector is None
        assert scenario.fault_plan is not None
        assert isinstance(scenario.outcomes, OutcomeReport)
        scenario.run()
        assert scenario.outcomes.resets == [5.0]


class TestWiring:
    def test_workloads(self):
        alarm = Scenario.build(
            mechanism="none", workload="firealarm", config=small_config()
        )
        assert alarm.app is not None
        assert len(alarm.tasks) == 1
        writers = Scenario.build(
            mechanism="none", workload="writers",
            config=small_config(writer_tasks=2),
        )
        assert writers.app is None
        assert len(writers.tasks) == 2

    def test_malware(self):
        transient = Scenario.build(
            mechanism="none", malware="transient",
            config=small_config(infect_at=1.5, dwell=2.0),
        )
        assert isinstance(transient.malware, TransientMalware)
        relocating = Scenario.build(
            mechanism="none", malware="relocating",
            config=small_config(relocation_seed=3),
        )
        assert isinstance(relocating.malware, SelfRelocatingMalware)

    def test_smarm_carries_its_round_count(self):
        scenario = Scenario.build(mechanism="smarm", config=small_config())
        assert scenario.driver.rounds == 13

    def test_seed_mechanism_populates_the_seed_pieces(self):
        scenario = Scenario.build(mechanism="seed", config=small_config())
        assert scenario.service is not None
        assert scenario.seed_monitor is not None
        assert scenario.driver is None and scenario.collector is None

    def test_injected_sim_trace_and_obs_are_honored(self):
        obs = Observability.enabled(spans=False, metrics=True)
        trace = Trace()
        scenario = Scenario.build(
            mechanism="smart", obs=obs, trace=trace, config=small_config()
        )
        assert scenario.sim.obs is obs
        assert scenario.device.trace is trace
        assert scenario.channel.trace is trace

    def test_config_rounds_reach_the_request(self):
        # the report carries one record per round, from the config
        scenario = Scenario.build(
            mechanism="smarm", config=small_config(rounds=2)
        )
        scenario.schedule_request(2.0)
        scenario.run()
        (report,) = scenario.service.reports_sent
        assert len(report.records) == 2
        assert scenario.driver.rounds == 2

    def test_bare_driver_request_takes_the_config_rounds(self):
        # a request that names no rounds gets the mechanism's, as
        # schedule_request does: one shuffled pass is not SMARM's check
        scenario = Scenario.build(
            mechanism="smarm", config=small_config(rounds=3)
        )
        exchanges = []
        scenario.sim.schedule_at(
            2.0, lambda: exchanges.append(
                scenario.driver.request(scenario.device.name)
            ),
        )
        scenario.run()
        (exchange,) = exchanges
        assert exchange.rounds == 3
        (report,) = scenario.service.reports_sent
        assert len(report.records) == 3
        assert exchange.report is report


def resident_at(at):
    def probe(scenario):
        scenario.run(until=at)
        return scenario.malware.resident

    return probe


#: each config field an axis builder reads beside the geometry, with
#: the build that reads it, a non-default value and where it shows
CONFIG_FIELDS = [
    # infected at 0.5, gone by 3.0; a dwell of 0 stays resident
    ("dwell", 2.0, {"malware": "transient"}, resident_at(3.0), False),
    ("relocation_strategy", "uniform", {"malware": "relocating"},
     lambda sc: sc.malware.strategy, "uniform"),
    ("relocation_seed", 3, {"malware": "relocating"},
     lambda sc: sc.malware.rng.random(), random.Random(3).random()),
    ("writer_tasks", 2, {"workload": "writers"},
     lambda sc: len(sc.tasks), 2),
    ("alarm_writes", False, {"workload": "firealarm"},
     lambda sc: sc.app.data_block, None),
    ("seed_shared", b"s" * 16, {"mechanism": "seed"},
     lambda sc: sc.service.shared_seed, b"s" * 16),
    ("seed_min_gap", 0.25, {"mechanism": "seed"},
     lambda sc: sc.service.min_gap, 0.25),
    ("seed_max_gap", 5.0, {"mechanism": "seed"},
     lambda sc: sc.service.max_gap, 5.0),
    ("seed_triggers", 3, {"mechanism": "seed"},
     lambda sc: len(sc.service.schedule), 3),
    ("seed_serve_fetch", True, {"mechanism": "seed"},
     lambda sc: sc.service.serve_fetch, True),
    ("seed_catch_up", True, {"mechanism": "seed"},
     lambda sc: sc.seed_monitor.catch_up, True),
]


class TestConfigFields:
    @pytest.mark.parametrize(
        "name, value, axes, probe, expected", CONFIG_FIELDS,
        ids=[case[0] for case in CONFIG_FIELDS],
    )
    def test_field_reaches_the_built_object(
        self, name, value, axes, probe, expected
    ):
        axes = {"mechanism": "none", **axes}
        # 48 blocks leave the default four writers room
        built = Scenario.build(
            config=small_config(block_count=48, **{name: value}), **axes
        )
        default = Scenario.build(
            config=small_config(block_count=48), **axes
        )
        assert probe(built) == expected != probe(default)


#: the pieces each kind fills; every other piece stays None
KIND_PIECES = {
    "on-demand": {"driver"},
    "self": {"collector"},
    "push": {"seed_monitor"},
}
PIECES = ("driver", "collector", "seed_monitor")


class TestMechanismTable:
    @pytest.mark.parametrize("key", list(MECHANISMS))
    def test_entry_builds_and_fills_its_kind(self, key):
        entry = MECHANISMS[key]
        config = small_config(rounds=4)
        scenario = Scenario.build(mechanism=key, config=config)
        assert scenario.service is not None
        filled = {name for name in PIECES if getattr(scenario, name)}
        assert filled == KIND_PIECES[entry.kind]
        if entry.kind == "on-demand":
            assert scenario.driver.rounds == entry.rounds(config)

    def test_only_smarm_repeats_rounds(self):
        config = small_config(rounds=4)
        rounds = {
            key: entry.rounds(config) for key, entry in MECHANISMS.items()
        }
        assert rounds.pop("smarm") == 4
        assert set(rounds.values()) == {1}

    def test_none_fills_nothing(self):
        scenario = Scenario.build(mechanism="none", config=small_config())
        assert scenario.service is None
        assert not any(getattr(scenario, name) for name in PIECES)
        assert scenario.produced() == ([], [])

    def test_fleet_knows_the_table_plus_vserver(self):
        assert KNOWN_MECHANISMS == (*MECHANISMS, "vserver")

    def test_fleet_knows_the_malware_and_workload_tables(self):
        assert KNOWN_ADVERSARIES == ("none", *MALWARE)
        assert KNOWN_WORKLOADS == ("none", *WORKLOADS)


class TestProduced:
    def test_on_demand_flattens_the_sent_reports(self):
        scenario = Scenario.build(mechanism="smart", config=small_config())
        scenario.schedule_request(1.0)
        scenario.schedule_request(8.0)
        scenario.run()
        records, reports = scenario.produced()
        assert reports == scenario.service.reports_sent
        assert len(reports) == 2
        assert records == [r for report in reports for r in report.records]

    def test_self_measurement_reads_history_and_collections(self):
        scenario = Scenario.build(
            mechanism="erasmus",
            config=small_config(t_c=8.0),
        )
        scenario.drive()  # collections at 8 and 16 of the 20 s horizon
        scenario.run()
        records, reports = scenario.produced()
        assert records == scenario.service.history and records
        assert reports == scenario.collector.collections and reports

    def test_push_reads_the_pushed_reports(self):
        scenario = Scenario.build(mechanism="seed", config=small_config())
        scenario.run()
        records, reports = scenario.produced()
        assert reports == scenario.service.reports_sent and reports
        assert records == [r for report in reports for r in report.records]


def kinds(*wanted):
    return [key for key, entry in MECHANISMS.items() if entry.kind in wanted]


def record_calls(scenario, piece, method):
    """Replace ``scenario.<piece>.<method>`` with a pass-through that
    notes the sim time of every call; returns the list of times."""
    target = getattr(scenario, piece)
    real = getattr(target, method)
    times = []

    def recorded(*args):
        times.append(scenario.sim.now)
        return real(*args)

    setattr(target, method, recorded)
    return times


class TestDrive:
    @pytest.mark.parametrize("key", kinds("on-demand"))
    def test_on_demand_requests_once_at_request_at(self, key):
        config = small_config(rounds=3, request_at=1.5)
        scenario = Scenario.build(mechanism=key, config=config)
        requested = record_calls(scenario, "driver", "request")
        pending = pending_count(scenario.sim)
        scenario.drive()
        assert pending_count(scenario.sim) == pending + 1
        scenario.run()
        assert requested == [1.5]
        (exchange,) = scenario.driver.exchanges
        assert exchange.requested_at == 1.5
        assert exchange.rounds == MECHANISMS[key].rounds(config)
        assert exchange.rounds == (3 if key == "smarm" else 1)

    @pytest.mark.parametrize(
        "horizon, period, times",
        [
            (20.0, 8.0, [8.0, 16.0]),
            (20.0, 6.5, [6.5, 13.0, 19.5]),
            (20.0, 20.0, [20.0]),
            # a period past the horizon still collects once
            (5.0, 8.0, [8.0]),
        ],
    )
    def test_self_collects_every_period(self, horizon, period, times):
        (key,) = kinds("self")
        config = small_config(horizon=horizon, t_c=period)
        scenario = Scenario.build(mechanism=key, config=config)
        collected = record_calls(scenario, "collector", "collect")
        pending = pending_count(scenario.sim)
        scenario.drive()
        assert pending_count(scenario.sim) == pending + len(times)
        scenario.run(until=times[-1] + 1.0)
        assert collected == times
        assert len(scenario.collector.collections) == len(times)

    @pytest.mark.parametrize("key", [*kinds("push"), "none"])
    def test_push_and_none_schedule_nothing(self, key):
        scenario = Scenario.build(mechanism=key, config=small_config())
        pending = pending_count(scenario.sim)
        scenario.drive()
        assert pending_count(scenario.sim) == pending


class TestOutcome:
    def test_first_detection_is_the_earliest_compromised_verdict(self):
        results = [
            SimpleNamespace(verdict=verdict, verified_at=at)
            for verdict, at in (
                (Verdict.HEALTHY, 1.0),
                (Verdict.COMPROMISED, 9.0),
                (Verdict.COMPROMISED, 4.0),
                (Verdict.HEALTHY, 2.0),
            )
        ]
        assert first_detection(results) == 4.0
        assert first_detection(results[:1]) is None
        assert first_detection([]) is None

    def test_detection_folds_the_verifier_results(self):
        scenario = Scenario.build(
            mechanism="smart", malware="transient",
            config=small_config(infect_at=0.5, malware_block=2),  # code region
        )
        scenario.schedule_request(8.0)
        scenario.schedule_request(1.0)
        scenario.run()
        outcome = scenario.outcome()
        compromised = [
            r.verified_at for r in scenario.verifier.results
            if r.verdict is Verdict.COMPROMISED
        ]
        assert len(compromised) == 2
        assert outcome.detected
        assert outcome.first_detection_at == min(compromised)

    def test_clean_run_detects_nothing(self):
        scenario = Scenario.build(mechanism="smart", config=small_config())
        scenario.drive()
        scenario.run()
        outcome = scenario.outcome()
        assert scenario.verifier.results
        assert not outcome.detected
        assert outcome.first_detection_at is None

    def test_measurement_fields_fold_the_produced_records(self):
        scenario = Scenario.build(
            mechanism="all-lock", workload="firealarm",
            config=small_config(),
        )
        scenario.drive()
        scenario.run()
        outcome = scenario.outcome()
        records, reports = scenario.produced()
        assert (outcome.records, outcome.reports) == (records, reports)
        assert outcome.mp_duration == records[0].duration > 0
        assert outcome.mp_interruptions == max(
            r.interruptions for r in records
        )
        mpu = scenario.device.mpu
        assert outcome.lock_ops == mpu.lock_ops + mpu.unlock_ops > 0

    def test_nothing_measured_folds_to_zero(self):
        scenario = Scenario.build(mechanism="none", config=small_config())
        scenario.run()
        outcome = scenario.outcome()
        assert outcome.records == [] and outcome.reports == []
        assert outcome.mp_duration == 0.0
        assert outcome.mp_interruptions == 0

    def test_no_workload_no_availability(self):
        scenario = Scenario.build(mechanism="smart", config=small_config())
        scenario.drive()
        scenario.run()
        assert scenario.outcome().availability is None

    def test_availability_summarizes_the_tasks(self):
        scenario = Scenario.build(
            mechanism="smart", workload="firealarm", config=small_config()
        )
        scenario.drive()
        scenario.run()
        availability = scenario.outcome().availability
        stats = scenario.app.task.stats()
        assert availability.jobs_released == stats.jobs_released > 0
        assert availability.worst_response == stats.worst_response
        assert availability.elapsed == scenario.sim.now
        assert availability.exchange_outcomes == {}

    def test_availability_carries_the_exchange_outcomes(self):
        scenario = Scenario.build(
            mechanism="smart", workload="firealarm",
            faults="loss=0.5@0:20", retry=RetryPolicy(timeout=0.5),
            config=small_config(),
        )
        scenario.drive()
        scenario.run()
        availability = scenario.outcome().availability
        counts = scenario.outcomes.counts()
        assert sum(counts.values()) == 1
        assert availability.exchange_outcomes == counts
