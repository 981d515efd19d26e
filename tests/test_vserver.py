"""The verifier service: admission, batching, load generation, wiring.

That the epoch drain's verdicts equal one-by-one verification -- the
subsystem's core determinism contract -- is pinned in
``test_vserver_equivalence.py``; this file covers the components:
token buckets, admission control and the outcome taxonomy, the
many-to-one mux endpoint, seeded load generation, the one-call
service wiring, the fleet integration, and the ``repro serve`` CLI.
"""

import gc
import json
import sys
import types

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.ra import verifier as verifier_module
from repro.ra.report import AttestationReport, VerificationResult
from repro.ra.verifier import Verifier
from repro.resilience.outcome import (
    COMPLETED_OUTCOMES,
    OUTCOME_DEFERRED_OK,
    OUTCOME_REJECTED,
    OutcomeReport,
)
from repro.scenario import Scenario
from repro.sim.engine import Simulator
from repro.sim.network import Channel, Message, MuxEndpoint
from repro.vserver import (
    LoadGenerator,
    ServerConfig,
    ServiceConfig,
    SimProver,
    TokenBucket,
    VerifierServer,
    build_service_scenario,
)
from repro.vserver.loadgen import cohort_image, prover_key
from repro.vserver.server import (
    REJECT_QUEUE_FULL,
    REJECT_RATE_LIMIT,
    STATUS_VERIFIED,
)


def make_prover(sim, name="prv0", blocks=4, compromised=False, **kwargs):
    image = cohort_image("t", blocks, 16)
    return SimProver(
        sim, name,
        key=prover_key(name),
        image=image,
        endpoint=kwargs.pop("endpoint", None),
        compromised=compromised,
        **kwargs,
    ), image


def make_report(prover):
    prover.measure()
    return AttestationReport.authenticate(
        prover.key, prover.name, list(prover.history),
        sent_counter=prover.counter,
    )


class TestTokenBucket:
    def test_burst_then_deny_then_refill(self):
        bucket = TokenBucket(rate=1.0, capacity=2.0, now=0.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        # one second refills one token
        assert bucket.try_take(1.0)
        assert not bucket.try_take(1.0)

    def test_refill_caps_at_capacity(self):
        bucket = TokenBucket(rate=10.0, capacity=3.0, now=0.0)
        for _ in range(3):
            assert bucket.try_take(100.0)
        assert not bucket.try_take(100.0)

    def test_zero_rate_disables_limiting(self):
        bucket = TokenBucket(rate=0.0, capacity=1.0)
        assert all(bucket.try_take(0.0) for _ in range(100))


class TestServerConfig:
    @pytest.mark.parametrize("kwargs", [
        {"queue_capacity": 0},
        {"queue_capacity": float("nan")},
        {"epoch": 0.0},
        {"epoch": float("nan")},
        {"epoch": float("inf")},
        {"rate_limit": -1.0},
        {"rate_limit": float("nan")},
        {"rate_burst": 0.0},
        {"rate_burst": float("nan")},
        {"slo_queue_latency": -1.0},
        {"slo_queue_latency": float("nan")},
        {"verify_cost": float("nan")},
        {"verify_cost_record": float("nan")},
    ])
    def test_validation(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ConfigurationError, match=f"^{name} must"):
            ServerConfig(**kwargs)


class TestAdmission:
    def build(self, **config_kwargs):
        sim = Simulator()
        verifier = Verifier(sim, name="vsrv-core")
        server = VerifierServer(
            sim, verifier, ServerConfig(**config_kwargs)
        )
        prover, image = make_prover(sim)
        prover.enroll(verifier, image)
        return sim, server, prover

    def test_unserved_kind_raises(self):
        sim, server, prover = self.build()
        with pytest.raises(ConfigurationError):
            server.submit(make_report(prover), kind="att_request")

    def test_queue_full_rejects_with_ledger_entry(self):
        sim, server, prover = self.build(queue_capacity=2)
        assert server.submit(make_report(prover)) is None
        assert server.submit(make_report(prover)) is None
        entry = server.submit(make_report(prover))
        assert entry is not None
        assert entry.status == REJECT_QUEUE_FULL
        assert server.rejected_full == 1
        assert server.unaccounted == 0

    def test_rate_limit_rejects_and_outcome_is_rejected(self):
        outcomes = OutcomeReport()
        sim = Simulator()
        verifier = Verifier(sim, name="v")
        server = VerifierServer(
            sim, verifier,
            ServerConfig(rate_limit=1.0, rate_burst=1.0),
            outcomes=outcomes,
        )
        prover, image = make_prover(sim)
        prover.enroll(verifier, image)
        assert server.submit(make_report(prover)) is None
        entry = server.submit(make_report(prover))
        assert entry.status == REJECT_RATE_LIMIT
        counts = outcomes.counts()
        assert counts.get(OUTCOME_REJECTED) == 1

    def test_epoch_drain_verifies_and_accounts(self):
        sim, server, prover = self.build(epoch=0.5)
        server.start()
        for _ in range(3):
            server.submit(make_report(prover))
        sim.run(until=2.0)
        assert server.verified == 3
        assert server.unaccounted == 0
        statuses = [entry.status for entry in server.ledger]
        assert statuses == [STATUS_VERIFIED] * 3
        assert all(e.verdict == "healthy" for e in server.ledger)

    def test_deferred_ok_when_latency_exceeds_slo(self):
        outcomes = OutcomeReport()
        sim = Simulator()
        verifier = Verifier(sim, name="v")
        server = VerifierServer(
            sim, verifier,
            ServerConfig(epoch=1.0, slo_queue_latency=0.25),
            outcomes=outcomes,
        )
        prover, image = make_prover(sim)
        prover.enroll(verifier, image)
        server.start()
        # submitted at t=0, drained at t=1.0: latency 1.0 > slo 0.25
        server.submit(make_report(prover))
        sim.run(until=1.5)
        counts = outcomes.counts()
        assert counts.get(OUTCOME_DEFERRED_OK) == 1
        assert OUTCOME_DEFERRED_OK in COMPLETED_OUTCOMES

    def test_compromised_prover_gets_compromised_verdict(self):
        sim = Simulator()
        verifier = Verifier(sim, name="v")
        server = VerifierServer(sim, verifier)
        prover, image = make_prover(sim, compromised=True)
        prover.enroll(verifier, image)  # enrolled under the clean image
        server.start()
        server.submit(make_report(prover))
        sim.run(until=1.0)
        assert server.ledger[0].verdict == "compromised"

    def test_replay_rejected_inside_batch(self):
        sim, server, prover = self.build()
        server.start()
        report = make_report(prover)
        server.submit(report)
        server.submit(report)  # same sent_counter: replay
        sim.run(until=1.0)
        verdicts = [entry.verdict for entry in server.ledger]
        assert verdicts.count("replay") == 1

    def test_quantiles_are_nearest_rank(self):
        sim, server, _ = self.build()
        server.queue_latencies.extend([0.1, 0.2, 0.3, 0.4])
        assert server.queue_latency_quantile(0.5) == 0.2
        assert server.queue_latency_quantile(0.99) == 0.4
        assert server.queue_latency_quantile(1.0) == 0.4

    def test_ledger_lines_are_canonical_json(self):
        sim, server, prover = self.build(queue_capacity=1)
        server.submit(make_report(prover))
        entry = server.submit(make_report(prover))
        line = entry.canonical_line()
        assert json.loads(line)["status"] == REJECT_QUEUE_FULL
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )


class TestMuxEndpoint:
    def test_routes_by_destination_channel(self):
        sim = Simulator()
        mux = MuxEndpoint(sim, "vsrv")
        ch_a, ch_b = Channel(sim, latency=0.001), Channel(sim, latency=0.002)
        mux.join(ch_a)
        mux.join(ch_b)
        a = ch_a.make_endpoint("a")
        b = ch_b.make_endpoint("b")
        a.send("vsrv", "ping", 1)
        b.send("vsrv", "ping", 2)
        mux.send("a", "pong", 3)
        mux.send("b", "pong", 4)
        sim.run(until=0.1)
        assert len(mux.inbox) == 2
        assert len(a.inbox) == 1 and len(b.inbox) == 1

    def test_unknown_destination_raises(self):
        sim = Simulator()
        mux = MuxEndpoint(sim, "vsrv")
        mux.join(Channel(sim, latency=0.001))
        with pytest.raises(ConfigurationError):
            mux.send("nobody", "ping", None)

    def test_channel_attach_accumulates_instead_of_clobbering(self):
        sim = Simulator()
        mux = MuxEndpoint(sim, "vsrv")
        first, second = Channel(sim), Channel(sim)
        mux.join(first)
        mux.join(second)
        assert mux.channels == [first, second]
        assert mux.channel is first


class TestLoadGenerator:
    def build(self, count=4, seed=b"lg"):
        sim = Simulator()
        verifier = Verifier(sim, name="vsrv-core")
        server = VerifierServer(sim, verifier)
        provers = []
        for index in range(count):
            prover, image = make_prover(sim, name=f"p{index}")
            prover.enroll(verifier, image)
            prover.emit = lambda p=prover: server.submit(make_report(p))
            provers.append(prover)
        return sim, server, LoadGenerator(sim, provers, seed=seed)

    def test_needs_provers(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            LoadGenerator(sim, [])

    def test_storm_emits_each_prover_once(self):
        sim, server, loadgen = self.build()
        assert loadgen.schedule_storm(1.0, 0.5) == 4
        sim.run(until=2.0)
        assert server.submitted == 4

    def test_poisson_count_is_seed_deterministic(self):
        _, _, first = self.build(seed=b"fixed")
        _, _, second = self.build(seed=b"fixed")
        _, _, third = self.build(seed=b"other")
        a = first.schedule_poisson(0.0, 10.0, 0.5)
        b = second.schedule_poisson(0.0, 10.0, 0.5)
        c = third.schedule_poisson(0.0, 10.0, 0.5)
        assert a == b
        assert a > 0
        assert (a, first.drbg.generate(4)) != (c, third.drbg.generate(4))

    def test_poisson_validates_gap(self):
        _, _, loadgen = self.build()
        with pytest.raises(ConfigurationError):
            loadgen.schedule_poisson(0.0, 1.0, 0.0)


#: every numeric ServiceConfig field, and whether 0 is in its domain
SERVICE_NUMERIC_FIELDS = {
    "provers": False, "cohorts": False, "blocks": False,
    "block_size": False, "history": False, "compromised": True,
    "epoch": False, "queue_capacity": False, "slo": True,
    "rate_limit": True, "rate_burst": False, "verify_cost": True,
    "verify_cost_record": True, "latency": True, "storms": True,
    "storm_at": True, "storm_window": True, "storm_gap": True,
    "poisson_gap": True, "poisson_until": True, "horizon": False,
}


class TestServiceConfig:
    def test_parse_preset_with_overrides(self):
        config = ServiceConfig.parse("preset=smoke;provers=100;epoch=0.5")
        assert config.provers == 100
        assert config.epoch == 0.5
        assert config.seed == "smoke"

    def test_bare_preset_name(self):
        assert ServiceConfig.parse("smoke") == ServiceConfig.parse(
            "preset=smoke"
        )

    @pytest.mark.parametrize("text", [
        "preset=nope",
        "no_such_field=1",
        # there is no drain-mode switch: batch= is an unknown field
        *(f"batch={value}" for value in ("maybe", "on", "off")),
        "provers=many",
        "blocks=0",
        "block_size=0",
        "latency=-1",
        "compromised=1.5",
        "compromised=-0.1",
        "poisson_gap=-1",
        "algorithm=md5",  # raised mid-run, at the first measurement
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ConfigurationError):
            ServiceConfig.parse(text)

    def test_population_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(provers=2, cohorts=3)

    @pytest.mark.parametrize("text", [
        f"{name}={value}"
        for name, zero_ok in SERVICE_NUMERIC_FIELDS.items()
        for value in ("nan", "-1", *(() if zero_ok else ("0",)))
    ])
    def test_numeric_field_outside_its_domain(self, text):
        """Rejected where it is written, naming the field -- not mid-run
        with a SchedulingError, and not silently (``slo=nan`` defers
        nothing) -- and so already when a campaign is planned."""
        from repro.fleet.campaign import RunSpec

        name = text.split("=")[0]
        with pytest.raises(ConfigurationError, match=name):
            ServiceConfig.parse(f"smoke;{text}")
        with pytest.raises(ConfigurationError, match=name):
            RunSpec(mechanism="vserver", service=f"smoke;{text}")


class TestBuildService:
    def test_smoke_exercises_whole_taxonomy(self):
        scenario = build_service_scenario(ServiceConfig.parse("smoke"))
        stats = scenario.run()
        assert stats["unaccounted"] == 0
        assert stats["verified"] > 0
        assert stats["rejected_rate_limit"] > 0
        assert stats["rejected_queue_full"] > 0
        counts = scenario.outcomes.counts()
        assert counts.get(OUTCOME_DEFERRED_OK, 0) > 0
        assert counts.get(OUTCOME_REJECTED, 0) > 0
        verdicts = scenario.verifier.verdict_counts()
        assert verdicts.get("healthy", 0) > 0
        assert verdicts.get("compromised", 0) > 0

    def test_queue_metrics_are_published(self):
        scenario = build_service_scenario(ServiceConfig.parse("smoke"))
        scenario.run()
        snapshot = scenario.obs.metrics.snapshot_flat()
        assert "vserver.queue.depth" in snapshot
        assert any(
            name.startswith("vserver.stage.queue") for name in snapshot
        )
        assert snapshot["vserver.epochs"] > 0

    def test_scenario_build_service_entry_point(self):
        scenario = Scenario.build(service="smoke;provers=12")
        assert scenario.config.provers == 12
        stats = scenario.run()
        assert stats["unaccounted"] == 0

    def test_scenario_build_service_accepts_config_object(self):
        config = ServiceConfig.parse("smoke;provers=10")
        scenario = Scenario.build(service=config)
        assert scenario.config.provers == 10

    def test_unified_build_service_parameter(self):
        # the collapsed entrypoint: build(service=...) returns the
        # population-scale ServiceScenario
        scenario = Scenario.build(service="smoke;provers=12")
        assert scenario.config.provers == 12
        smoke = Scenario.build(service=True)
        assert smoke.config == ServiceConfig.parse("smoke")

    def test_unified_build_rejects_single_device_args(self):
        with pytest.raises(ConfigurationError) as err:
            Scenario.build(mechanism="smart", malware="transient",
                           service="smoke")
        assert "malware" in str(err.value)
        with pytest.raises(ConfigurationError):
            Scenario.build(service=42)


def reachable_counts(root, kinds):
    """How many objects of each of ``kinds`` the object graph below
    ``root`` reaches (``gc.get_referents``, not entering classes,
    modules or module globals, which reach the whole process)."""
    module_dicts = {
        id(vars(module)) for module in list(sys.modules.values())
        if module is not None
    }
    seen = {id(root)}
    stack = [root]
    counts = {kind: 0 for kind in kinds}
    while stack:
        obj = stack.pop()
        for kind in kinds:
            if isinstance(obj, kind):
                counts[kind] += 1
        for ref in gc.get_referents(obj):
            if (isinstance(ref, (type, types.ModuleType))
                    or id(ref) in module_dicts or id(ref) in seen):
                continue
            seen.add(id(ref))
            stack.append(ref)
    return counts


class TestFootprint:
    """What a served scenario holds: one image per cohort, and no
    report or message once its verdict is in the ledger."""

    def cohorts(self, scenario):
        by_cohort = {}
        for index, prover in enumerate(scenario.provers):
            by_cohort.setdefault(
                index % scenario.config.cohorts, []
            ).append(prover)
        return by_cohort

    def test_cohort_shares_one_image(self):
        scenario = build_service_scenario(ServiceConfig.parse("smoke"))
        verifier = scenario.verifier
        for members in self.cohorts(scenario).values():
            honest = [p for p in members if not p.compromised]
            assert len(honest) >= 2
            image = honest[0].image
            for prover in honest:
                assert prover.image is image
            for prover in members:
                assert verifier.profile(prover.name).reference is image

    def test_compromised_prover_holds_its_own_image(self):
        scenario = build_service_scenario(ServiceConfig.parse("smoke"))
        verifier = scenario.verifier
        compromised = [p for p in scenario.provers if p.compromised]
        assert compromised
        for prover in compromised:
            reference = verifier.profile(prover.name).reference
            assert prover.image is not reference
            assert prover.image[0] != reference[0]
            assert prover.image[1:] == reference[1:]

    def test_list_image_is_copied(self):
        blocks = list(cohort_image("t", 4, 16))
        profile = Verifier(Simulator()).enroll(
            "prv1", key=prover_key("prv1"), reference=blocks
        )
        assert isinstance(profile.reference, tuple)
        assert list(profile.reference) == blocks
        blocks[0] = b"changed"
        assert profile.reference[0] != b"changed"

    def test_no_report_or_message_outlives_its_verdict(self):
        scenario = build_service_scenario(ServiceConfig.parse("smoke"))
        stats = scenario.run()
        assert stats["verified"] > 0 and stats["unaccounted"] == 0
        counts = reachable_counts(
            scenario, (AttestationReport, Message, VerificationResult)
        )
        # the walk does reach the ledger side of the scenario
        assert counts[VerificationResult] == len(scenario.verifier.results)
        assert counts[VerificationResult] > 0
        assert counts[AttestationReport] == 0
        assert counts[Message] == 0

    def test_one_traversal_per_cohort_reference(self, monkeypatch):
        scenario = build_service_scenario(
            ServiceConfig.parse("smoke;cohorts=3")
        )
        verifier = scenario.verifier
        joins = []
        real_traversal = verifier_module.traversal_bytes
        real_batch = verifier.verify_batch

        def counting_traversal(*args, **kwargs):
            joins[-1][1] += 1
            return real_traversal(*args, **kwargs)

        def recording_batch(entries):
            references = {
                id(verifier.profile(report.device).reference)
                for report, _kwargs in entries
            }
            joins.append([len(references), 0])
            return real_batch(entries)

        monkeypatch.setattr(
            verifier_module, "traversal_bytes", counting_traversal
        )
        monkeypatch.setattr(verifier, "verify_batch", recording_batch)
        scenario.run()
        assert joins
        assert max(references for references, _ in joins) == 3
        assert all(count == references for references, count in joins)


class TestFleetIntegration:
    def test_vserver_runspec_validates_service_dsl(self):
        from repro.fleet.campaign import RunSpec

        with pytest.raises(ConfigurationError):
            RunSpec(mechanism="vserver", service="preset=nope")
        with pytest.raises(ConfigurationError):
            RunSpec(mechanism="smart", service="preset=smoke")

    def test_empty_service_field_keeps_run_ids_stable(self):
        from repro.fleet.campaign import RunSpec

        spec = RunSpec(mechanism="smart")
        assert "service" not in spec.to_dict()

    def test_executor_runs_service_scenario(self):
        from repro.fleet.campaign import RunSpec
        from repro.fleet.executor import execute_run

        spec = RunSpec(
            mechanism="vserver",
            service="preset=smoke;provers=10;poisson_gap=0;horizon=2.5",
        )
        result = execute_run(spec)
        assert result.qoa["service_unaccounted"] == 0.0
        assert result.reports == result.qoa["service_submitted"]
        assert "vserver.epochs" in result.telemetry
        assert result.outcomes["total"] > 0

    def test_canned_vserver_campaign_plans(self):
        from repro.fleet.campaign import canned_campaign

        campaign = canned_campaign("vserver", seed_count=2)
        specs = campaign.plan()
        assert len(specs) == 4
        assert all(spec.mechanism == "vserver" for spec in specs)


class TestServeCli:
    def test_smoke_summary(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        assert main([
            "serve", "--preset", "smoke", "--ledger", str(ledger),
            "--outcomes",
        ]) == 0
        out = capsys.readouterr().out
        assert "unaccounted 0" in out
        assert "deferred-ok" in out
        lines = ledger.read_text().splitlines()
        assert lines and all(json.loads(line)["seq"] >= 0 for line in lines)

    def test_service_dsl_overrides(self, capsys):
        assert main([
            "serve", "--service", "provers=8;storms=1;horizon=2.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "8 provers" in out


class TestHistogramQuantile:
    def test_interpolated_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "q", "test", buckets=(1.0, 2.0, 4.0)
        )
        for value in (0.5, 1.5, 3.0, 8.0):
            hist.observe(value)
        assert hist.quantile(0.0) == pytest.approx(hist.min)
        assert hist.quantile(1.0) == pytest.approx(hist.max)
        assert 0.0 < hist.quantile(0.5) <= 4.0

    def test_empty_and_validation(self):
        registry = MetricsRegistry()
        hist = registry.histogram("q", "test")
        assert hist.quantile(0.5) == 0.0
        with pytest.raises(ConfigurationError):
            hist.quantile(1.5)
