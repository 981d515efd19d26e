"""Instrumentation end-to-end: engine counters, attestation spans,
fleet telemetry parity, and the obs/profile CLI commands."""

import json

import pytest

from repro.cli import main
from repro.fleet import (
    ProcessPoolBackend,
    RunSpec,
    SerialBackend,
    execute_run,
    make_shards,
)
from repro.fleet.results import summarize
from repro.obs.core import NULL_OBS, Observability
from repro.sim.engine import Simulator
from repro.units import MiB


def spec(**overrides) -> RunSpec:
    fields = dict(
        mechanism="all-lock",
        adversary="none",
        block_count=8,
        sim_block_size=MiB,
        horizon=10.0,
    )
    fields.update(overrides)
    return RunSpec(**fields)


class TestEngineCounters:
    def test_scheduled_fired_cancelled(self):
        obs = Observability.enabled()
        sim = Simulator(obs=obs)
        keep = [sim.schedule(float(i), lambda: None) for i in range(4)]
        keep[2].cancel()
        sim.run()
        flat = obs.metrics.snapshot_flat()
        assert flat["sim.events.scheduled"] == 4.0
        assert flat["sim.events.fired"] == 3.0
        assert flat["sim.events.cancelled"] == 1.0

    def test_metric_timestamps_use_sim_clock(self):
        obs = Observability.enabled()
        sim = Simulator(obs=obs)
        counter = obs.metrics.counter("probe")
        sim.schedule(2.5, counter.inc)
        sim.run()
        assert counter.updated_at == 2.5

    def test_default_simulator_attaches_null_bundle(self):
        sim = Simulator()
        assert sim.obs is NULL_OBS
        assert sim.obs.metrics.snapshot_flat() == {}
        sim.schedule(1.0, lambda: None)
        sim.run()  # no instrumentation side effects
        assert sim.obs.metrics.snapshot_flat() == {}


class TestAttestationSpans:
    def run_instrumented(self, **overrides):
        obs = Observability.enabled()
        execute_run(spec(**overrides), obs=obs)
        return obs

    def test_measurement_spans_nest_blocks(self):
        obs = self.run_instrumented()
        mps = obs.spans.find(name="ra.measurement")
        assert len(mps) >= 1
        blocks = obs.spans.children_of(mps[0])
        assert [b.name for b in blocks] == ["ra.block"] * 8

    def test_lock_hold_span_recorded(self):
        obs = self.run_instrumented()
        holds = obs.spans.find(name="ra.lock_hold")
        assert holds and holds[0].args["policy"] == "all-lock"
        assert holds[0].duration > 0

    def test_round_and_delivery_spans(self):
        obs = self.run_instrumented(mechanism="smart")
        assert obs.spans.find(name="ra.round")
        assert obs.spans.find(name="net.delivery", category="net")

    def test_no_open_spans_after_healthy_run(self):
        obs = self.run_instrumented()
        assert obs.spans.open_spans() == []

    def test_identical_runs_identical_span_sets(self):
        first = [s.to_dict() for s in self.run_instrumented().spans]
        second = [s.to_dict() for s in self.run_instrumented().spans]
        assert first == second


class TestFleetTelemetry:
    def test_execute_run_snapshots_metrics_by_default(self):
        result = execute_run(spec())
        assert result.telemetry["sim.events.fired"] > 0
        assert result.telemetry["ra.blocks.measured{mechanism=all-lock}"] \
            == 8.0
        assert result.telemetry[
            "ra.measurement.duration{mechanism=all-lock}.count"
        ] == 1.0

    def test_telemetry_survives_jsonl_round_trip(self):
        from repro.fleet.telemetry import RunResult

        result = execute_run(spec())
        back = RunResult.from_json_line(result.to_json_line())
        assert back.telemetry == result.telemetry

    def test_serial_and_parallel_telemetry_identical(self):
        specs = [spec(), spec(mechanism="smart"),
                 spec(mechanism="erasmus", horizon=20.0)]
        shards = make_shards(specs, 2)

        def telemetry_by_id(backend):
            return {
                result.run_id: result.telemetry
                for outcome in backend.execute(shards)
                for result in outcome.results
            }

        serial = telemetry_by_id(SerialBackend())
        parallel = telemetry_by_id(ProcessPoolBackend(workers=2))
        assert serial == parallel
        assert all(t for t in serial.values())

    def test_summarize_folds_telemetry_totals(self):
        results = [execute_run(spec()), execute_run(spec())]
        summary = summarize(results, campaign="test")
        group = summary.group("all-lock", "none")
        assert group.telemetry_totals["sim.events.fired"] == \
            2 * results[0].telemetry["sim.events.fired"]
        assert "telemetry_totals" in group.to_dict()


class TestCliCommands:
    def test_obs_export_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main([
            "obs", "export-trace", "--campaign", "locking",
            "--index", "0", "--out", str(out),
        ])
        assert code == 0
        assert "trace events" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert "ra.measurement" in names

    def test_obs_export_metrics_prometheus(self, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        code = main([
            "obs", "export-metrics", "--campaign", "locking",
            "--index", "0", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "# TYPE sim_events_fired counter" in text

    def test_obs_export_metrics_jsonl(self, tmp_path, capsys):
        out = tmp_path / "metrics.jsonl"
        code = main([
            "obs", "export-metrics", "--campaign", "locking",
            "--format", "jsonl", "--out", str(out),
        ])
        assert code == 0
        rows = [json.loads(line)
                for line in out.read_text().splitlines()]
        assert any(r["metric"] == "sim.events.fired" for r in rows)

    def test_obs_index_out_of_range(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "obs", "export-trace", "--campaign", "locking",
                "--index", "9999",
                "--out", str(tmp_path / "x.json"),
            ])

    def test_profile_prints_hotspot_table(self, capsys):
        code = main([
            "profile", "--campaign", "qoa", "--runs", "1", "--top", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out and "events" in out

    def test_profile_no_wall_is_deterministic(self, capsys):
        assert main(["profile", "--campaign", "qoa", "--runs", "1",
                     "--no-wall"]) == 0
        first = capsys.readouterr().out
        assert main(["profile", "--campaign", "qoa", "--runs", "1",
                     "--no-wall"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "wall_ms" not in first
