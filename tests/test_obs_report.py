"""The causal-exchange read side: exchange records, the canonical
timeline (pinned by a golden file), the mergeable ExchangeSketch, the
fleet reducer fold, the per-exchange Perfetto regrouping, the
verify-cost model, and the ``repro obs report`` / ``repro obs
timeline`` CLI surface."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.fleet.results import GroupSummary, summarize
from repro.fleet.telemetry import (
    SKETCH_BUCKETS,
    SKETCH_TOP_K,
    ExchangeSketch,
    RunResult,
)
from repro.obs.chrome import chrome_trace_events
from repro.obs.core import Observability
from repro.obs.report import (
    causal_timeline,
    exchange_records,
    exemplar_table,
    resolve_quantile,
)
from repro.obs.spans import SpanTracker
from repro.vserver.service import build_service_scenario, service_preset

def traced_spans(spans):
    """Every span carrying a ``trace_id`` arg."""
    return [span for span in spans if span.args.get("trace_id")]


def trace_ids(spans):
    """Distinct trace ids present in a capture, sorted."""
    return sorted({span.args["trace_id"] for span in traced_spans(spans)})


GOLDEN_TIMELINE = Path(__file__).parent / "golden" / "causal_timeline.jsonl"
GOLDEN_LEDGER = Path(__file__).parent / "golden" / "vserver_ledger.jsonl"


def hand_capture() -> SpanTracker:
    """A small span capture: two exchanges plus untraced noise."""
    spans = SpanTracker()
    spans.add_span("engine.loop", 0.0, 9.0, category="engine")
    spans.add_span(
        "ra.measurement", 1.1, 1.6, category="ra.prover",
        trace_id="aaaa000011112222", device="dev0",
    )
    spans.add_span(
        "ra.round_trip", 1.0, 2.0, category="ra.verifier",
        trace_id="aaaa000011112222", device="dev0", verdict="healthy",
    )
    spans.add_span(
        "ra.round_trip", 3.0, 3.25, category="ra.verifier",
        trace_id="bbbb000011112222", device="dev1", verdict="compromised",
    )
    return spans


class TestExchangeRecords:
    def test_rows_only_for_finished_terminal_spans(self):
        rows = exchange_records(hand_capture())
        assert [r["trace_id"] for r in rows] == [
            "aaaa000011112222", "bbbb000011112222"
        ]
        first = rows[0]
        assert first["name"] == "ra.round_trip"
        assert first["device"] == "dev0"
        assert first["verdict"] == "healthy"
        assert first["latency"] == pytest.approx(1.0)

    def test_trace_ids_sorted_distinct(self):
        assert trace_ids(hand_capture()) == [
            "aaaa000011112222", "bbbb000011112222"
        ]


class TestCausalTimeline:
    def test_lines_are_canonical_json(self):
        lines = causal_timeline(hand_capture())
        # untraced engine.loop is excluded; traced spans sorted by
        # (trace, start)
        rows = [json.loads(line) for line in lines]
        assert [row["name"] for row in rows] == [
            "ra.round_trip", "ra.measurement", "ra.round_trip"
        ]
        assert all("trace_id" not in row["args"] for row in rows)
        assert all("span_id" not in row for row in rows)
        # canonical separators: no spaces, sorted keys
        assert lines[0] == json.dumps(
            json.loads(lines[0]), sort_keys=True, separators=(",", ":")
        )

    def test_single_trace_filter(self):
        lines = causal_timeline(hand_capture(), trace_id="bbbb000011112222")
        assert len(lines) == 1
        assert json.loads(lines[0])["args"]["verdict"] == "compromised"


class TestServedVerifierTimeline:
    def test_smoke_causal_timeline_matches_golden(self):
        """The smoke storm's canonical timeline matches the committed
        golden artifact byte for byte."""
        obs = Observability.enabled()
        scenario = build_service_scenario(service_preset("smoke"), obs=obs)
        scenario.run()
        golden = GOLDEN_TIMELINE.read_text(encoding="utf-8").splitlines()
        assert causal_timeline(obs.spans) == golden

    def test_every_smoke_submission_is_one_trace(self):
        obs = Observability.enabled()
        scenario = build_service_scenario(service_preset("smoke"), obs=obs)
        stats = scenario.run()
        assert len(trace_ids(obs.spans)) == stats["submitted"]


class TestExchangeSketch:
    def test_observe_and_quantile(self):
        sketch = ExchangeSketch()
        for i in range(1, 101):
            sketch.observe(i / 100.0, trace_id=f"t{i:03d}")
        assert sketch.count == 100
        assert sketch.mean == pytest.approx(0.505)
        assert sketch.min == pytest.approx(0.01)
        assert sketch.max == pytest.approx(1.0)
        # bucket-resolution: p50 lands in the (0.1, 0.5] bucket
        assert sketch.quantile(0.5) == 0.5
        assert sketch.quantile(0.99) == 1.0
        assert len(sketch.top) == SKETCH_TOP_K
        assert sketch.top[0][:2] == [1.0, "t100"]

    def test_empty_sketch(self):
        sketch = ExchangeSketch()
        assert sketch.quantile(0.99) == 0.0
        assert sketch.mean == 0.0
        data = sketch.to_dict()
        assert data["count"] == 0
        assert data["min"] == 0.0 and data["max"] == 0.0

    def test_top_k_tie_break_is_deterministic(self):
        a, b = ExchangeSketch(), ExchangeSketch()
        for sketch, order in ((a, "abcdef"), (b, "fedcba")):
            for ch in order:
                sketch.observe(0.25, trace_id=ch)
        assert a.to_dict() == b.to_dict()
        assert [row[1] for row in a.top] == ["a", "b", "c", "d", "e"]

    def test_merge_is_associative_and_commutative(self):
        def build(seed, n):
            sketch = ExchangeSketch()
            for i in range(n):
                sketch.observe(((seed * 31 + i) % 97) / 10.0,
                               trace_id=f"{seed}-{i}")
            return sketch

        left = build(1, 40).merge(build(2, 40)).merge(build(3, 40))
        right = build(3, 40).merge(
            build(2, 40).merge(build(1, 40))
        )
        assert left.to_dict() == right.to_dict()
        assert left.count == 120
        assert sum(left.bucket_counts) == 120

    def test_dict_roundtrip(self):
        sketch = ExchangeSketch()
        for i in range(7):
            sketch.observe(0.1 * (i + 1), trace_id=f"t{i}", label="smart")
        data = sketch.to_dict()
        again = ExchangeSketch.from_dict(data)
        assert again.to_dict() == data
        assert len(data["buckets"]) == len(SKETCH_BUCKETS) + 1


class TestFleetReducer:
    def run_traced(self, slo=""):
        from repro.fleet import canned_campaign
        from repro.fleet.executor import execute_run

        spec = canned_campaign("faults", seed_count=1).plan()[0]
        if slo:
            spec = spec.with_overrides(slo=slo)
        return execute_run(spec, obs=Observability.enabled())

    def test_trace_summary_folded_into_run_result(self):
        result = self.run_traced()
        summary = result.trace_summary
        assert summary["traces"] >= 1
        assert summary["spans"] > summary["traces"]
        sketch = ExchangeSketch.from_dict(summary["exchanges"])
        assert sketch.count == summary["traces"]
        assert all(row[1] for row in sketch.top)  # trace ids present
        assert "ra.round_trip.latency" in summary["exemplars"]

    def test_default_runs_keep_historical_artifact_bytes(self):
        """No obs -> no trace_summary/slo keys anywhere in the
        deterministic projection; golden runs.jsonl stays stable."""
        from repro.fleet import canned_campaign
        from repro.fleet.executor import execute_run

        spec = canned_campaign("faults", seed_count=1).plan()[0]
        result = execute_run(spec)
        assert result.trace_summary == {}
        line = result.to_json_line()
        assert "trace_summary" not in line and '"slo"' not in line

    def test_group_summary_merges_shards(self):
        results = []
        for shard in range(3):
            sketch = ExchangeSketch()
            for i in range(4):
                sketch.observe(0.05 * (shard + 1) * (i + 1),
                               trace_id=f"s{shard}-{i}")
            results.append(RunResult(
                run_id=f"run-{shard}",
                spec={"mechanism": "smart", "adversary": "none"},
                trace_summary={
                    "spans": 10, "traces": 4,
                    "exchanges": sketch.to_dict(),
                },
                slo={
                    "interval": 0.33,
                    "objectives": {
                        "svc": {"met": shard != 2, "alerts": shard},
                    },
                    "alerts": [
                        {"transition": "firing"} for _ in range(shard)
                    ],
                },
            ))
        summary = summarize(results, campaign="x")
        group = summary.group("smart", "none")
        assert group.traces == 12
        assert group.exchange_sketch.count == 12
        assert group.slo_alerts == 3  # 0 + 1 + 2 firing transitions
        assert group.slo_violations == 1
        data = group.to_dict()
        assert data["exchanges"]["count"] == 12
        assert data["slo_alerts"] == 3

    def test_untraced_group_serializes_historically(self):
        group = GroupSummary("smart", "none")
        data = group.to_dict()
        for key in ("exchanges", "exchange_sketch", "traces",
                    "slo_alerts", "slo_violations"):
            assert key not in data


class TestChromeByExchange:
    def test_one_track_per_traced_exchange(self):
        events = chrome_trace_events(hand_capture(), by_exchange=True)
        names = {
            e["args"]["name"] for e in events
            if e.get("name") == "thread_name"
        }
        assert "xchg:aaaa000011112222" in names
        assert "xchg:bbbb000011112222" in names
        # the untraced engine span keeps its category track
        assert any(not n.startswith("xchg:") for n in names)

    def test_default_grouping_unchanged(self):
        spans = hand_capture()
        default = chrome_trace_events(spans)
        names = {
            e["args"]["name"] for e in default
            if e.get("name") == "thread_name"
        }
        assert not any(n.startswith("xchg:") for n in names)


class TestExemplars:
    def test_exemplar_table_and_quantile_resolution(self):
        obs = Observability.enabled()
        hist = obs.metrics.histogram("x.latency", "test")
        hist.observe(0.02, exemplar="t-fast")
        hist.observe(0.3, exemplar="t-slow")
        table = exemplar_table(obs.metrics)
        assert "x.latency" in table
        assert {e["trace_id"] for e in table["x.latency"]} == {
            "t-fast", "t-slow"
        }
        hit = resolve_quantile(obs.metrics, "x.latency", 0.99)
        assert hit["trace_id"] == "t-slow"
        assert resolve_quantile(obs.metrics, "missing", 0.99) is None


class TestVerifyCostModel:
    def test_smoke_cost_is_pure_deferral(self):
        """Arming the verify-cost model defers conclusions (verdicts
        interleave differently in time) but never changes them: same
        stats, same ledger entries as a set, and the costless ledger
        still matches the golden byte-for-byte."""
        base = build_service_scenario(service_preset("smoke"))
        base_stats = base.run()
        cost = build_service_scenario(service_preset("smoke-cost"))
        cost_stats = cost.run()
        for key in ("submitted", "verified", "rejected", "unaccounted"):
            assert cost_stats[key] == base_stats[key]
        assert base_stats["unaccounted"] == 0
        base_lines = base.ledger_lines()
        assert sorted(cost.ledger_lines()) == sorted(base_lines)
        golden = GOLDEN_LEDGER.read_text(encoding="utf-8").splitlines()
        assert base_lines == golden

    def test_verify_stage_observes_nonzero_cost(self):
        scenario = build_service_scenario(service_preset("smoke-cost"))
        stats = scenario.run()
        (hist,) = [
            inst for inst in scenario.obs.metrics.instruments()
            if inst.name == "vserver.stage.verify"
        ]
        assert hist.count == stats["verified"]
        assert hist.sum > 0.0

    def test_default_smoke_verify_stage_is_free(self):
        scenario = build_service_scenario(service_preset("smoke"))
        scenario.run()
        (hist,) = [
            inst for inst in scenario.obs.metrics.instruments()
            if inst.name == "vserver.stage.verify"
        ]
        assert hist.sum == 0.0


class TestCli:
    def test_timeline_matches_golden(self, capsys):
        assert main(["obs", "timeline", "--service", "smoke"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        golden = GOLDEN_TIMELINE.read_text(encoding="utf-8").splitlines()
        assert out == golden

    def test_report_json(self, capsys):
        assert main([
            "obs", "report", "--campaign", "faults", "--runs", "1",
            "--slo", "exchange", "--format", "json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["campaign"] == "faults"
        assert data["traces"] >= 1
        assert data["exchanges"]["count"] == data["traces"]
        (run,) = data["runs"]
        assert run["slo"]["objectives"]
        assert any(
            row["metric"] == "ra.round_trip.latency"
            for row in data["p99_exemplars"]
        )

    def test_report_terminal(self, capsys):
        assert main([
            "obs", "report", "--campaign", "faults", "--runs", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "traced exchange(s)" in out
        assert "slowest exchanges:" in out
        assert "trace=" in out
