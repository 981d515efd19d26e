"""Scenario.build: the one canonical wiring path.

These tests pin the factory's contract -- validation of every axis,
which pieces each mechanism kind populates, and the opt-in nature of
the resilience layer (no retry, no faults => no extra machinery)."""

import pytest

from repro.core.tradeoff import ScenarioConfig
from repro.errors import ConfigurationError
from repro.fleet.campaign import KNOWN_MECHANISMS
from repro.malware.relocating import SelfRelocatingMalware
from repro.malware.transient import TransientMalware
from repro.obs.core import Observability
from repro.resilience import FaultPlan, OutcomeReport, RetryPolicy
from repro.scenario import MECHANISMS, Scenario
from repro.sim import Trace
from repro.units import MiB


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
        with pytest.raises(ConfigurationError):
            Scenario.build(mechanism="quantum")
        with pytest.raises(ConfigurationError):
            Scenario.build(malware="ransomware", config=small_config())
        with pytest.raises(ConfigurationError):
            Scenario.build(workload="mining", config=small_config())
        with pytest.raises(ConfigurationError):
            Scenario.build(layout="exotic", config=small_config())
        with pytest.raises(ConfigurationError):
            Scenario.build(faults=42, config=small_config())

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
            workload_options={"tasks": 2}, config=small_config(),
        )
        assert writers.app is None
        assert len(writers.tasks) == 2

    def test_malware(self):
        transient = Scenario.build(
            mechanism="none", malware="transient",
            malware_options={"infect_at": 1.5, "dwell": 2.0},
            config=small_config(),
        )
        assert isinstance(transient.malware, TransientMalware)
        relocating = Scenario.build(
            mechanism="none", malware="relocating",
            malware_options={"rng_seed": 3}, config=small_config(),
        )
        assert isinstance(relocating.malware, SelfRelocatingMalware)

    def test_smarm_carries_its_round_count(self):
        scenario = Scenario.build(mechanism="smarm", config=small_config())
        assert scenario.rounds == 13

    def test_seed_mechanism_populates_the_seed_pieces(self):
        scenario = Scenario.build(mechanism="seed", config=small_config())
        assert scenario.seed_service is not None
        assert scenario.seed_monitor is not None
        assert scenario.service is scenario.seed_service
        assert scenario.driver is None and scenario.collector is None

    def test_injected_sim_trace_and_obs_are_honored(self):
        obs = Observability.enabled(spans=False, metrics=True)
        trace = Trace(max_records=10)
        scenario = Scenario.build(
            mechanism="smart", obs=obs, trace=trace, config=small_config()
        )
        assert scenario.sim.obs is obs
        assert scenario.device.trace is trace
        assert scenario.channel.trace is trace

    def test_smarm_rounds_reach_the_request(self):
        # the report carries one record per round, from the config
        scenario = Scenario.build(
            mechanism="smarm", config=small_config(smarm_rounds=2)
        )
        scenario.schedule_request(2.0)
        scenario.run()
        (report,) = scenario.service.reports_sent
        assert len(report.records) == 2
        assert scenario.rounds == 2


#: the pieces each kind fills; every other piece stays None
KIND_PIECES = {
    "on-demand": {"driver"},
    "self": {"collector"},
    "push": {"seed_service", "seed_monitor"},
}
PIECES = ("driver", "collector", "seed_service", "seed_monitor")


class TestMechanismTable:
    @pytest.mark.parametrize("key", list(MECHANISMS))
    def test_entry_builds_and_fills_its_kind(self, key):
        entry = MECHANISMS[key]
        config = small_config(smarm_rounds=4)
        scenario = Scenario.build(mechanism=key, config=config)
        assert scenario.service is not None
        filled = {name for name in PIECES if getattr(scenario, name)}
        assert filled == KIND_PIECES[entry.kind]
        if entry.kind == "push":
            assert scenario.seed_service is scenario.service
        assert scenario.rounds == entry.rounds(config)

    def test_only_smarm_repeats_rounds(self):
        config = small_config(smarm_rounds=4)
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
        scenario = Scenario.build(mechanism="erasmus", config=small_config())
        scenario.schedule_collections(8.0, 2)
        scenario.run()
        records, reports = scenario.produced()
        assert records == scenario.service.history and records
        assert reports == scenario.collector.collections and reports

    def test_push_reads_the_pushed_reports(self):
        scenario = Scenario.build(mechanism="seed", config=small_config())
        scenario.run()
        records, reports = scenario.produced()
        assert reports == scenario.seed_service.reports_sent and reports
        assert records == [r for report in reports for r in report.records]
