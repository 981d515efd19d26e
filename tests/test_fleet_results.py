"""Telemetry serialization, aggregation and artifact round-trips."""

import json

import pytest

from repro.apps.metrics import AvailabilityReport
from repro.errors import ConfigurationError
from repro.fleet import (
    CampaignSpec,
    PipelineConfig,
    RunResult,
    RunSpec,
    execute_run,
    failure_result,
    percentile,
    read_manifest,
    read_results_jsonl,
    run_one,
    run_pipeline,
    summarize,
)
from repro.sim.task import TaskStats
from repro.units import MiB


def make_result(**overrides) -> RunResult:
    spec = RunSpec(
        mechanism=overrides.pop("mechanism", "smart"),
        adversary=overrides.pop("adversary", "none"),
        seed=overrides.pop("seed", 0),
    )
    fields = dict(
        run_id=spec.run_id,
        spec=spec.to_dict(),
        verdict_counts={"healthy": 1},
        measurements=1,
        mp_duration=0.5,
        sim_time=10.0,
    )
    fields.update(overrides)
    return RunResult(**fields)


class TestPercentile:
    def test_median(self):
        assert percentile([1, 3, 2], 50) == 2

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_single_value(self):
        assert percentile([4.2], 90) == 4.2

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101)


class TestRunResultSerialization:
    def test_volatile_fields_excluded_from_json_line(self):
        a = make_result(wall_clock=1.23, attempts=2, worker="pid-1")
        b = make_result(wall_clock=9.87, attempts=1, worker="pid-999")
        assert a.to_json_line() == b.to_json_line()

    def test_json_line_round_trip(self):
        result = make_result(
            detected=True,
            detection_latency=3.5,
            qoa={"t_m": 2.0, "detection_probability": 0.5},
            availability={"jobs_released": 10, "deadline_misses": 1,
                          "per_task": {}},
        )
        clone = RunResult.from_json_line(result.to_json_line())
        assert clone.run_id == result.run_id
        assert clone.detected is True
        assert clone.detection_latency == 3.5
        assert clone.miss_rate == pytest.approx(0.1)
        # volatile fields come back at their defaults
        assert clone.wall_clock == 0.0

    def test_jsonl_file_round_trip(self, tmp_path):
        results = [make_result(seed=i) for i in range(4)]
        path = tmp_path / "runs.jsonl"
        path.write_text(
            "".join(r.to_json_line() + "\n" for r in results),
            encoding="utf-8",
        )
        loaded = read_results_jsonl(path)
        assert [r.to_json_line() for r in loaded] == [
            r.to_json_line() for r in results
        ]


class TestAvailabilityReportRoundTrip:
    def test_round_trip_with_per_task(self):
        report = AvailabilityReport(
            elapsed=30.0,
            jobs_released=100,
            jobs_finished=98,
            deadline_misses=4,
            worst_response=0.25,
            write_faults=7,
            locked_block_seconds=1.5,
            per_task={
                "writer0": TaskStats(jobs_released=50, deadline_misses=4,
                                     worst_response=0.25),
                "writer1": TaskStats(jobs_released=50, jobs_finished=50),
            },
        )
        clone = AvailabilityReport.from_dict(report.to_dict())
        assert clone == report
        assert clone.per_task["writer0"].deadline_misses == 4
        assert clone.miss_rate == pytest.approx(0.04)

    def test_survives_json(self):
        report = AvailabilityReport(
            elapsed=1.0, per_task={"t": TaskStats(jobs_released=3)}
        )
        clone = AvailabilityReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert clone == report

    def test_real_run_round_trip(self):
        spec = RunSpec(block_count=8, sim_block_size=MiB, horizon=8.0)
        availability = run_one(spec).availability_report
        assert availability is not None
        assert availability.jobs_released > 0
        assert AvailabilityReport.from_dict(
            availability.to_dict()
        ) == availability


class TestSummarize:
    def test_groups_and_rates(self):
        results = [
            make_result(adversary="transient", seed=0, detected=True,
                        detection_latency=2.0),
            make_result(adversary="transient", seed=1, detected=True,
                        detection_latency=4.0),
            make_result(adversary="transient", seed=2, detected=False),
            make_result(seed=3),
        ]
        summary = summarize(results)
        cell = summary.group("smart", "transient")
        assert cell.runs == 3
        assert cell.detection_rate == pytest.approx(2 / 3)
        # latencies fold into a bounded ValueSketch: 2.0 and 4.0 land
        # in the same (1.0, 5.0] bucket, so the bucket-resolution p50
        # reports the bucket bound clamped to the observed max
        assert cell.latency_percentiles()["p50"] == pytest.approx(4.0)
        assert cell.detection_latency.count == 2
        assert cell.detection_latency.mean == pytest.approx(3.0)
        assert cell.detection_latency.min == pytest.approx(2.0)
        assert cell.detection_latency.max == pytest.approx(4.0)
        assert summary.group("smart", "none").detected == 0
        assert summary.total_runs == 4

    def test_failures_counted_not_aggregated(self):
        spec = RunSpec(mechanism="erasmus")
        results = [
            make_result(seed=0),
            failure_result(spec.run_id, spec.to_dict(), "error", "boom"),
            failure_result(spec.run_id, spec.to_dict(), "timeout", "slow"),
        ]
        summary = summarize(results)
        cell = summary.group("erasmus", "none")
        assert cell.errors == 1 and cell.timeouts == 1 and cell.ok == 0
        assert cell.detection_rate == 0.0

    def test_render_mentions_every_mechanism(self):
        results = [make_result(), make_result(mechanism="erasmus")]
        text = summarize(results).render()
        assert "smart" in text and "erasmus" in text


class TestArtifacts:
    def campaign(self):
        return CampaignSpec(
            name="artifact-test",
            base={"block_count": 8, "horizon": 8.0},
            axes={"mechanism": ["smart", "erasmus"]},
            seeds=range(2),
        )

    def test_full_artifact_layout(self, tmp_path):
        campaign = self.campaign()
        paths = run_pipeline(campaign, out_dir=tmp_path).paths
        assert paths.runs.exists()
        assert paths.summary_txt.exists()
        assert json.loads(paths.summary_json.read_text())["total_runs"] == 4
        manifest = read_manifest(paths.manifest)
        assert manifest.campaign == "artifact-test"
        assert manifest.spec_hash == campaign.spec_hash
        assert manifest.run_count == 4
        assert manifest.status_counts == {"ok": 4}
        assert manifest.mode == "serial"

    def test_runs_jsonl_sorted_and_reloadable(self, tmp_path):
        campaign = self.campaign()
        paths = run_pipeline(campaign, out_dir=tmp_path).paths
        loaded = read_results_jsonl(paths.runs)
        assert [r.run_id for r in loaded] == sorted(
            s.run_id for s in campaign.plan()
        )


def fail_seed_one(spec: RunSpec) -> RunResult:
    if spec.seed == 1:
        raise RuntimeError("injected failure")
    return execute_run(spec)


class TestResume:
    def test_resume_reruns_only_failures(self, tmp_path):
        campaign = CampaignSpec(
            name="resume-test",
            base={"block_count": 8, "sim_block_size": MiB, "horizon": 8.0},
            seeds=range(3),
        )
        first = run_pipeline(
            campaign, out_dir=tmp_path, runner=fail_seed_one,
            config=PipelineConfig(retries=0),
        )
        assert first.status_counts == {"ok": 2, "error": 1}

        resumed = run_pipeline(
            campaign, out_dir=tmp_path, config=PipelineConfig(resume=True)
        )
        assert resumed.executed == 1
        assert resumed.restored == 2
        assert resumed.status_counts == {"ok": 1}
        assert read_manifest(resumed.paths.manifest).status_counts == {
            "ok": 3
        }
