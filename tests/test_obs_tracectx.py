"""TraceContext: deterministic minting, immutability, and the causal
thread surviving everything the resilience layer throws at it --
retransmission, prover brownout, payload corruption.  One exchange,
one trace_id, however many attempts it takes."""

import pytest

from repro.core.tradeoff import ScenarioConfig
from repro.obs.core import Observability
from repro.obs.tracectx import TraceContext, mint_trace_id
from repro.resilience import FaultPlan, RetryPolicy
from repro.scenario import Scenario
from repro.units import MiB


def short(ctx: TraceContext) -> str:
    """First 8 hex digits of the trace id -- enough for log lines."""
    return ctx.trace_id[:8]


def small_config(**overrides) -> ScenarioConfig:
    fields = dict(block_count=8, sim_block_size=MiB, horizon=30.0)
    fields.update(overrides)
    return ScenarioConfig(**fields)


def traced_ids(obs) -> set:
    return {
        span.args["trace_id"]
        for span in obs.spans
        if "trace_id" in span.args
    }


class TestMinting:
    def test_mint_is_deterministic(self):
        a = mint_trace_id("ondemand", "dev", b"\x01\x02")
        b = mint_trace_id("ondemand", "dev", b"\x01\x02")
        assert a == b
        assert len(a) == 16
        assert int(a, 16) >= 0  # hex digits only

    def test_distinct_coordinates_distinct_ids(self):
        assert mint_trace_id("ondemand", "dev", b"\x01") != mint_trace_id(
            "ondemand", "dev", b"\x02"
        )
        assert mint_trace_id("swarm", b"n") != mint_trace_id("lisa", b"n")

    def test_bytes_parts_are_hex_encoded_unambiguously(self):
        # b"ab" hex-encodes to "6162"; the str "ab" must not collide
        assert mint_trace_id(b"ab") != mint_trace_id("ab")

    def test_mint_classmethod_carries_baggage(self):
        ctx = TraceContext.mint("ondemand", "dev0", b"\x07", mech="smart")
        assert ctx.trace_id == mint_trace_id("ondemand", "dev0", b"\x07")
        assert dict(ctx.baggage) == {"mech": "smart"}


class TestContextObject:
    def test_immutable(self):
        ctx = TraceContext("a" * 16)
        with pytest.raises(AttributeError):
            ctx.trace_id = "b" * 16
        with pytest.raises(AttributeError):
            ctx.parent_span_id = 3

    def test_child_keeps_trace_changes_parent(self):
        ctx = TraceContext("c" * 16, baggage={"hop": 0})
        child = ctx.child(parent_span_id=42, hop=1)
        assert child.trace_id == ctx.trace_id
        assert child.parent_span_id == 42
        assert dict(child.baggage) == {"hop": 1}
        # the original is untouched
        assert ctx.parent_span_id is None
        assert dict(ctx.baggage) == {"hop": 0}

    def test_child_inherits_parent_when_not_overridden(self):
        ctx = TraceContext("d" * 16, parent_span_id=7)
        assert ctx.child().parent_span_id == 7

    def test_baggage_is_sorted_and_hashable(self):
        ctx = TraceContext("e" * 16, baggage={"b": 2, "a": 1})
        assert ctx.baggage == (("a", 1), ("b", 2))
        assert hash(ctx) == hash(
            TraceContext("e" * 16, baggage={"a": 1, "b": 2})
        )

    def test_equality(self):
        assert TraceContext("f" * 16) == TraceContext("f" * 16)
        assert TraceContext("f" * 16) != TraceContext("0" * 16)
        assert TraceContext("f" * 16) != "f" * 16

    def test_to_dict_drops_empty_fields(self):
        assert TraceContext("a" * 16).to_dict() == {"trace_id": "a" * 16}
        full = TraceContext("a" * 16, parent_span_id=1, baggage={"k": "v"})
        assert full.to_dict() == {
            "trace_id": "a" * 16,
            "parent_span_id": 1,
            "baggage": {"k": "v"},
        }

    def test_short_prefix(self):
        assert short(TraceContext("0123456789abcdef")) == "01234567"


class TestNullObsStaysContextFree:
    def test_no_obs_means_no_minting(self):
        """Default (NULL_OBS) runs never allocate a TraceContext --
        message ctx stays None and the exchange records none."""
        scenario = Scenario.build(mechanism="smart", config=small_config())
        scenario.schedule_request(1.0)
        scenario.run()
        (exchange,) = scenario.driver.exchanges
        assert exchange.status == "verified"
        assert exchange.ctx is None


class TestPropagation:
    def test_retransmissions_share_one_trace(self):
        """Reports are eaten until t=3; the retry layer retransmits the
        challenge with the *same* context, so every traced span of the
        multi-attempt exchange lands in a single trace."""
        obs = Observability.enabled()
        plan = FaultPlan(seed=b"t1").loss(
            1.0, start=0.0, end=3.0, match="att_report"
        )
        scenario = Scenario.build(
            mechanism="smart",
            faults=plan,
            config=small_config(),
            retry=RetryPolicy(timeout=1.0, max_retries=5, seed=b"t1-r"),
            obs=obs,
        )
        scenario.schedule_request(1.0)
        scenario.run()

        (exchange,) = scenario.driver.exchanges
        assert exchange.status == "verified"
        assert exchange.attempts >= 2
        assert exchange.ctx is not None
        assert traced_ids(obs) == {exchange.ctx.trace_id}
        round_trips = [s for s in obs.spans if s.name == "ra.round_trip"]
        assert len(round_trips) == 1
        assert round_trips[0].args["trace_id"] == exchange.ctx.trace_id
        assert round_trips[0].args["attempts"] == exchange.attempts

    def test_trace_survives_prover_reset(self):
        """A brownout mid-exchange wipes the prover's volatile state;
        the retransmitted challenge re-measures, but causally it is
        still the same exchange: one trace_id end to end."""
        obs = Observability.enabled()
        plan = FaultPlan(seed=b"t-reset").reset(at=2.0)
        scenario = Scenario.build(
            mechanism="smart",
            faults=plan,
            config=small_config(),
            retry=RetryPolicy(timeout=2.0, max_retries=5, seed=b"t-rst-r"),
            obs=obs,
        )
        scenario.schedule_request(1.0)
        scenario.run()

        (exchange,) = scenario.driver.exchanges
        assert exchange.status == "verified"
        assert exchange.ctx is not None
        assert traced_ids(obs) == {exchange.ctx.trace_id}

    def test_trace_survives_corruption(self):
        """Tampered reports fail MAC verification and get retried; the
        damaged message still carries its context, so even the failed
        hops stay attributable to the exchange's trace."""
        obs = Observability.enabled()
        plan = FaultPlan(seed=b"t-corrupt").corrupt(
            1.0, start=0.0, end=4.0, match="att_report"
        )
        scenario = Scenario.build(
            mechanism="smart",
            faults=plan,
            config=small_config(),
            retry=RetryPolicy(timeout=1.5, max_retries=6, seed=b"t-c-r"),
            obs=obs,
        )
        scenario.schedule_request(1.0)
        scenario.run()

        (exchange,) = scenario.driver.exchanges
        assert exchange.attempts >= 2
        assert exchange.ctx is not None
        assert traced_ids(obs) == {exchange.ctx.trace_id}

    def test_distinct_exchanges_distinct_traces(self):
        obs = Observability.enabled()
        scenario = Scenario.build(
            mechanism="smart", config=small_config(), obs=obs
        )
        scenario.schedule_request(1.0)
        scenario.schedule_request(8.0)
        scenario.run()

        first, second = scenario.driver.exchanges
        assert first.ctx is not None and second.ctx is not None
        assert first.ctx.trace_id != second.ctx.trace_id
        assert traced_ids(obs) == {
            first.ctx.trace_id, second.ctx.trace_id
        }

    def test_exemplar_resolves_to_the_exchange(self):
        """The round-trip histogram's exemplar is the trace_id of the
        slowest exchange in its bucket -- the metrics->trace bridge."""
        obs = Observability.enabled()
        scenario = Scenario.build(
            mechanism="smart", config=small_config(), obs=obs
        )
        scenario.schedule_request(1.0)
        scenario.run()

        (exchange,) = scenario.driver.exchanges
        histograms = [
            inst for inst in obs.metrics.instruments()
            if inst.name == "ra.round_trip.latency"
        ]
        assert len(histograms) == 1
        exemplars = histograms[0].exemplars()
        assert exemplars
        assert {e["trace_id"] for e in exemplars} == {
            exchange.ctx.trace_id
        }
