"""Unit tests for the resilience primitives: the FaultPlan DSL, the
RetryPolicy backoff math, the FaultInjector channel filter and the
OutcomeReport degradation ledger."""

import math

import pytest

from repro.apps.metrics import AvailabilityReport
from repro.errors import ConfigurationError
from repro.resilience import FaultPlan, OutcomeReport, RetryPolicy
from repro.resilience.faults import FaultInjector
from repro.resilience.outcome import (
    OUTCOME_OK,
    OUTCOME_RESET_ABORTED,
    OUTCOME_RETRIED_OK,
    OUTCOME_TIMED_OUT,
)
from repro.sim import Message, Simulator


class TestFaultPlanDsl:
    def test_full_grammar(self):
        plan = FaultPlan.parse(
            "loss=0.3@0:30;jitter=0.02@5:15;corrupt=0.1;"
            "reset@6;drift=0.01@10",
            seed=b"t",
        )
        kinds = [(w.kind, w.start, w.end, w.magnitude) for w in plan.windows]
        assert kinds == [
            ("loss", 0.0, 30.0, 0.3),
            ("jitter", 5.0, 15.0, 0.02),
            ("corrupt", 0.0, math.inf, 0.1),
        ]
        assert plan.resets == [6.0]
        assert plan.drifts == [(10.0, 0.01)]
        assert not plan.empty

    def test_open_ended_window(self):
        plan = FaultPlan.parse("loss=0.5@5")
        (window,) = plan.windows
        assert window.start == 5.0
        assert window.end == math.inf
        assert window.active(5.0) and window.active(1e9)
        assert not window.active(4.999)

    def test_empty_string_is_empty_plan(self):
        assert FaultPlan.parse("").empty
        assert FaultPlan.parse(" ; ; ").empty

    @pytest.mark.parametrize(
        "text",
        [
            "explode=1",          # unknown term
            "reset=3@4",          # reset takes no value
            "reset",              # reset needs a time
            "reset@6:10",         # reset is a point event, not a window
            "drift=0.01@5:10",    # drift onset is a point event too
            "loss=abc@0:1",       # bad number
            "loss@0:1",           # missing value
            "loss=0.5@5:5",       # window must end after it starts
            "loss=1.5",           # probability out of range
            "loss=0.5@-1:4",      # negative start
            "corrupt=2",          # probability out of range
            "jitter=-0.1",        # negative amplitude
        ],
    )
    def test_bad_terms_raise(self, text):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(text)

    def test_builder_is_fluent_and_validates(self):
        plan = (
            FaultPlan(seed=b"b")
            .loss(0.2, start=1.0, end=2.0, match="att_report")
            .reset(at=3.0)
        )
        assert plan.windows[0].match == "att_report"
        assert plan.resets == [3.0]
        with pytest.raises(ConfigurationError):
            plan.corrupt(0.1, mode="gamma-rays")
        with pytest.raises(ConfigurationError):
            plan.reset(at=-1.0)
        with pytest.raises(ConfigurationError):
            plan.drift(0.01, at=-2.0)

    def test_window_kind_matching(self):
        plan = FaultPlan().loss(1.0, match="att_")
        window = plan.windows[0]
        att = Message(1, "vrf", "prv", "att_request", {}, 0.0)
        other = Message(2, "vrf", "prv", "collect_request", {}, 0.0)
        assert window.matches(att)
        assert not window.matches(other)


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0.0},
            {"timeout": math.nan},
            {"max_retries": -1},
            {"max_retries": 2.5},
            {"backoff": 0.5},
            {"backoff": math.nan},
            {"max_timeout": -1.0},
            {"max_timeout": math.nan},
            {"jitter": 1.0},
            {"jitter": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
            RetryPolicy(**kwargs)

    def test_unjittered_backoff_curve_caps(self):
        policy = RetryPolicy(
            timeout=1.0, max_retries=5, backoff=2.0,
            max_timeout=5.0, jitter=0.0,
        )
        assert policy.max_attempts == 6
        waits = [policy.wait_before(a) for a in range(1, 7)]
        assert waits == [1.0, 2.0, 4.0, 5.0, 5.0, 5.0]
        with pytest.raises(ConfigurationError):
            policy.wait_before(0)

    def test_schedule_is_pure_function_of_policy_and_nonce(self):
        policy = RetryPolicy(seed=b"fixed")
        assert policy.schedule(b"nonce-1") == policy.schedule(b"nonce-1")
        # an equal policy (same seed) produces the same sequence
        twin = RetryPolicy(seed=b"fixed")
        assert twin.schedule(b"nonce-1") == policy.schedule(b"nonce-1")
        # a different nonce gets its own jitter stream
        assert policy.schedule(b"nonce-2") != policy.schedule(b"nonce-1")

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(
            timeout=1.0, max_retries=7, backoff=2.0,
            max_timeout=64.0, jitter=0.1,
        )
        for attempt, wait in enumerate(policy.schedule(b"n"), start=1):
            base = min(2.0 ** (attempt - 1), 64.0)
            assert base * 0.9 <= wait <= base * 1.1


def _message(kind="att_request", payload=None, msg_id=1):
    payload = {"nonce": b"\x01\x02\x03"} if payload is None else payload
    return Message(msg_id, "vrf", "prv", kind, payload, 0.0)


class TestFaultInjector:
    def test_same_seed_same_verdicts(self):
        def run():
            sim = Simulator()
            plan = FaultPlan(seed=b"det").loss(0.5).jitter(0.01)
            injector = FaultInjector(sim, plan)
            verdicts = [
                injector(_message(msg_id=i)).action for i in range(100)
            ]
            return verdicts, injector.lost_count

        assert run() == run()

    def test_loss_probability_extremes(self):
        sim = Simulator()
        never = FaultInjector(sim, FaultPlan(seed=b"a").loss(0.0))
        always = FaultInjector(sim, FaultPlan(seed=b"a").loss(1.0))
        assert never(_message()).action == "deliver"
        assert always(_message()).action == "drop"
        assert always.lost_count == 1

    def test_crc_corruption_discards_frame(self):
        sim = Simulator()
        injector = FaultInjector(sim, FaultPlan(seed=b"c").corrupt(1.0))
        assert injector(_message()).action == "drop"
        assert injector.corrupted_count == 1

    def test_tamper_flips_the_nonce(self):
        sim = Simulator()
        plan = FaultPlan(seed=b"c").corrupt(1.0, mode="tamper")
        injector = FaultInjector(sim, plan)
        verdict = injector(_message(payload={"nonce": b"\x00\xff"}))
        assert verdict.action == "deliver"
        assert verdict.mutate is not None
        assert verdict.mutate.payload["nonce"] == b"\xff\x00"

    def test_tamper_without_nonce_degrades_to_crc_discard(self):
        sim = Simulator()
        plan = FaultPlan(seed=b"c").corrupt(1.0, mode="tamper")
        injector = FaultInjector(sim, plan)
        assert injector(_message(payload="opaque")).action == "drop"
        assert injector(_message(payload={"data": 1})).action == "drop"

    def test_jitter_adds_extra_latency(self):
        sim = Simulator()
        injector = FaultInjector(sim, FaultPlan(seed=b"j").jitter(0.05))
        extras = [injector(_message(msg_id=i)).extra for i in range(20)]
        assert all(0.0 <= e <= 0.05 for e in extras)
        assert any(e > 0.0 for e in extras)

    def test_kind_filter_limits_the_blast_radius(self):
        sim = Simulator()
        plan = FaultPlan(seed=b"m").loss(1.0, match="att_report")
        injector = FaultInjector(sim, plan)
        assert injector(_message(kind="att_request")).action == "deliver"
        assert injector(_message(kind="att_report")).action == "drop"


class TestOutcomeReport:
    def _record(self, report, *, attempts, completed, start=0.0, end=1.0):
        return report.record(
            device="prv", nonce=b"\xaa\xbb", requested_at=start,
            concluded_at=end, attempts=attempts, completed=completed,
        )

    def test_taxonomy_classification(self):
        report = OutcomeReport()
        assert (
            self._record(report, attempts=1, completed=True).classification
            == OUTCOME_OK
        )
        assert (
            self._record(report, attempts=3, completed=True).classification
            == OUTCOME_RETRIED_OK
        )
        assert (
            self._record(report, attempts=7, completed=False).classification
            == OUTCOME_TIMED_OUT
        )
        report.note_reset(10.5)
        aborted = self._record(
            report, attempts=2, completed=False, start=10.0, end=11.0
        )
        assert aborted.classification == OUTCOME_RESET_ABORTED
        # a reset outside the exchange window does not steal the blame
        late = self._record(
            report, attempts=2, completed=False, start=20.0, end=21.0
        )
        assert late.classification == OUTCOME_TIMED_OUT

    def test_aggregates(self):
        report = OutcomeReport()
        self._record(report, attempts=1, completed=True)
        self._record(report, attempts=4, completed=True)
        self._record(report, attempts=7, completed=False)
        assert report.counts() == {
            OUTCOME_OK: 1, OUTCOME_RETRIED_OK: 1, OUTCOME_TIMED_OUT: 1,
        }
        assert report.total == 3
        assert report.completed == 2
        assert report.completion_rate == pytest.approx(2 / 3)
        assert report.retries_total() == 3 + 6
        data = report.to_dict()
        assert data["total"] == 3
        assert len(data["exchanges"]) == 3
        rendered = report.render(title="demo")
        assert "demo" in rendered and "completion 66.7%" in rendered

    def test_empty_report(self):
        report = OutcomeReport()
        assert report.completion_rate == 0.0
        assert report.counts() == {}
        assert "total" in report.render()

    def test_fold_into_availability(self):
        report = OutcomeReport()
        self._record(report, attempts=2, completed=True)
        availability = AvailabilityReport(elapsed=10.0)
        assert "exchange_outcomes" not in availability.to_dict()
        report.fold_into(availability)
        data = availability.to_dict()
        assert data["exchange_outcomes"] == {OUTCOME_RETRIED_OK: 1}
        # and the histogram survives the serialization round-trip
        back = AvailabilityReport.from_dict(data)
        assert back.exchange_outcomes == {OUTCOME_RETRIED_OK: 1}
