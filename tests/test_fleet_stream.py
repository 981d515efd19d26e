"""The staged pipeline: streaming reduce, shard checkpoints, resume.

The contracts under test are the tentpole guarantees of the pipeline
API (docs/fleet.md):

* streaming artifacts are byte-identical to a reference serialized
  in the test from the run_id-sorted result list, campaign by
  campaign;
* a campaign killed mid-shard resumes from its checkpoints and
  finalizes artifacts byte-identical to an uninterrupted pass
  (manifest included, given an injected clock);
* reducer memory stays flat in the run count.
"""

import json
import tracemalloc

import pytest

from repro.errors import ConfigurationError
from repro.fleet import (
    PipelineConfig,
    RunResult,
    RunSpec,
    SerialBackend,
    ShardCheckpointStore,
    StreamingAggregator,
    artifact_paths,
    canned_campaign,
    run_one,
    run_pipeline,
    source_fingerprint,
    summarize,
)
from repro.fleet.pipeline import _reduce_stream
from repro.units import MiB

FIXED_CLOCK = lambda: 1700000000.0  # noqa: E731


def fast_spec(**overrides) -> RunSpec:
    fields = dict(
        mechanism="smart",
        adversary="none",
        block_count=8,
        sim_block_size=MiB,
        horizon=10.0,
    )
    fields.update(overrides)
    return RunSpec(**fields)


def synthetic_runner(spec: RunSpec) -> RunResult:
    """Deterministic, simulation-free result for high-volume tests."""
    seed = spec.seed
    return RunResult(
        run_id=spec.run_id,
        spec=spec.to_dict(),
        detected=seed % 2 == 0,
        detection_latency=float(seed % 7) + 0.5 if seed % 2 == 0 else None,
        mp_duration=0.25 + (seed % 3) * 0.125,
        measurements=1,
        qoa={"miss_rate": (seed % 5) / 10.0},
        telemetry={"sim.events": float(100 + seed)},
    )


class KillAfter(SerialBackend):
    """Serial backend that dies (like a SIGKILL would land) after
    yielding ``n`` shard outcomes."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def execute(self, shards, **kwargs):
        for count, outcome in enumerate(super().execute(shards, **kwargs)):
            if count >= self.n:
                raise KeyboardInterrupt("simulated kill")
            yield outcome


def pipeline_config(**overrides) -> PipelineConfig:
    fields = dict(shard_size=2)
    fields.update(overrides)
    return PipelineConfig(**fields)


def artifact_bytes(out_dir, campaign_name):
    paths = artifact_paths(out_dir, campaign_name)
    return {
        name: getattr(paths, name).read_bytes()
        for name in ("runs", "summary_json", "summary_txt", "manifest")
    }


class TestStreamingEqualsBatch:
    @pytest.mark.parametrize("name", ["qoa", "matrix", "faults"])
    def test_canned_campaign_artifacts_byte_identical(self, name, tmp_path):
        campaign = canned_campaign(name, seed_count=1)
        specs = campaign.plan()[:6]

        # the reference: every result in memory, run_id-sorted, and
        # serialized without going through the pipeline's reduce
        ordered = sorted(
            (run_one(spec) for spec in specs), key=lambda r: r.run_id
        )
        reference = summarize(ordered, campaign=campaign.name)
        run_pipeline(
            campaign, specs,
            out_dir=tmp_path / "stream",
            config=pipeline_config(),
            clock=FIXED_CLOCK,
        )

        stream = artifact_bytes(tmp_path / "stream", campaign.name)
        # canonical artifacts: byte-for-byte
        assert stream["runs"] == "".join(
            result.to_json_line() + "\n" for result in ordered
        ).encode("utf-8")
        assert stream["summary_json"] == (
            json.dumps(reference.to_dict(), indent=2, sort_keys=True)
            + "\n"
        ).encode("utf-8")
        assert stream["summary_txt"] == (
            reference.render() + "\n"
        ).encode("utf-8")
        # the manifest's canonical fields; wall clock and shard
        # topology are volatile
        manifest = json.loads(stream["manifest"])
        assert manifest["campaign"] == campaign.name
        assert manifest["spec_hash"] == campaign.spec_hash
        assert manifest["run_count"] == len(specs)
        assert manifest["status_counts"] == {"ok": len(specs)}
        assert manifest["code_fingerprint"] == source_fingerprint()
        assert manifest["cache_hits"] == 0

    def test_summarize_is_the_streaming_fold(self):
        specs = [fast_spec(seed=i) for i in range(8)]
        results = [synthetic_runner(spec) for spec in specs]
        aggregator = StreamingAggregator("unit")
        for result in sorted(results, key=lambda r: r.run_id):
            aggregator.add(result)
        batch = summarize(
            sorted(results, key=lambda r: r.run_id), campaign="unit"
        )
        assert aggregator.summary().to_dict() == batch.to_dict()

    def test_aggregator_merge_matches_single_pass(self):
        results = [
            synthetic_runner(fast_spec(seed=i)) for i in range(20)
        ]
        left, right = StreamingAggregator("m"), StreamingAggregator("m")
        for result in results[:11]:
            left.add(result)
        for result in results[11:]:
            right.add(result)
        merged = left.merge(right).summary()
        single = summarize(results, campaign="m")
        assert merged.total_runs == single.total_runs
        for key, group in single.groups.items():
            other = merged.groups[key]
            assert other.runs == group.runs
            assert other.detected == group.detected
            assert other.detection_latency.count == \
                group.detection_latency.count
            assert other.detection_latency.sum == pytest.approx(
                group.detection_latency.sum
            )
            assert other.mean_miss_rate == pytest.approx(
                group.mean_miss_rate
            )


class TestKillAndResume:
    def test_kill_mid_campaign_then_resume_byte_identical(self, tmp_path):
        campaign = canned_campaign("qoa", seed_count=1)
        specs = campaign.plan()[:6]

        run_pipeline(
            campaign, specs, out_dir=tmp_path / "clean",
            config=pipeline_config(), clock=FIXED_CLOCK,
            perf=lambda: 0.0,
        )

        with pytest.raises(KeyboardInterrupt):
            run_pipeline(
                campaign, specs, out_dir=tmp_path / "killed",
                backend=KillAfter(1), config=pipeline_config(),
                clock=FIXED_CLOCK, perf=lambda: 0.0,
            )
        shards_dir = tmp_path / "killed" / campaign.name / "shards"
        checkpointed = sorted(p.name for p in shards_dir.glob("*.jsonl"))
        assert checkpointed == ["shard-000000.jsonl"]
        assert not (
            tmp_path / "killed" / campaign.name / "runs.jsonl"
        ).exists()

        report = run_pipeline(
            campaign, specs, out_dir=tmp_path / "killed",
            config=pipeline_config(resume=True), clock=FIXED_CLOCK,
            perf=lambda: 0.0,
        )
        assert report.restored == 2
        assert report.executed == 4
        assert report.total_runs == 6
        assert not shards_dir.exists()  # consumed by the finalize

        assert artifact_bytes(tmp_path / "killed", campaign.name) == \
            artifact_bytes(tmp_path / "clean", campaign.name)

    def test_resume_of_finished_campaign_is_a_noop(self, tmp_path):
        campaign = canned_campaign("qoa", seed_count=1)
        specs = campaign.plan()[:4]
        run_pipeline(
            campaign, specs, out_dir=tmp_path,
            config=pipeline_config(), clock=FIXED_CLOCK,
            perf=lambda: 0.0,
        )
        before = artifact_bytes(tmp_path, campaign.name)
        report = run_pipeline(
            campaign, specs, out_dir=tmp_path,
            config=pipeline_config(resume=True), clock=FIXED_CLOCK,
            perf=lambda: 0.0,
        )
        assert report.executed == 0
        assert "0 runs" in report.summary_line()
        assert "nothing to do" in report.summary_line()
        # reused results are cache hits, volatile and manifest-only
        after = artifact_bytes(tmp_path, campaign.name)
        manifests = [
            json.loads(artifacts.pop("manifest"))
            for artifacts in (before, after)
        ]
        assert after == before
        assert manifests[1].pop("cache_hits") == 4
        assert manifests[0].pop("cache_hits") == 0
        assert manifests[1] == manifests[0]

    def test_resumed_results_are_not_marked_cache_hits(self, tmp_path):
        # byte-identity demands it: an uninterrupted run has
        # cache_hits=0, so a resumed one must too
        campaign = canned_campaign("qoa", seed_count=1)
        specs = campaign.plan()[:4]
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(
                campaign, specs, out_dir=tmp_path,
                backend=KillAfter(1), config=pipeline_config(),
                clock=FIXED_CLOCK,
            )
        report = run_pipeline(
            campaign, specs, out_dir=tmp_path,
            config=pipeline_config(resume=True), clock=FIXED_CLOCK,
        )
        assert report.cache_hits == 0
        paths = artifact_paths(tmp_path, campaign.name)
        manifest = json.loads(paths.manifest.read_text())
        assert manifest["cache_hits"] == 0
        assert manifest["run_count"] == 4


class TestShardCheckpoints:
    def store_for(self, tmp_path, specs, shard_size=2, **meta):
        campaign = canned_campaign("qoa", seed_count=1)
        fields = dict(
            out_dir=tmp_path,
            campaign_name=campaign.name,
            spec_hash=campaign.spec_hash,
            specs=specs,
            shard_size=shard_size,
            code_fingerprint="fp-1",
        )
        fields.update(meta)
        return ShardCheckpointStore(**fields)

    def test_checkpoints_round_trip_sorted(self, tmp_path):
        specs = [fast_spec(seed=i) for i in range(4)]
        results = [synthetic_runner(spec) for spec in specs]
        store = self.store_for(tmp_path, specs)
        store.open()
        store.write_shard(0, list(reversed(results)))
        read_back = list(store.read_shard(0))
        assert [r.run_id for r in read_back] == sorted(
            r.run_id for r in results
        )
        assert read_back[0].to_json_line() == sorted(
            results, key=lambda r: r.run_id
        )[0].to_json_line()

    def test_meta_mismatch_invalidates_checkpoints(self, tmp_path):
        specs = [fast_spec(seed=i) for i in range(4)]
        store = self.store_for(tmp_path, specs)
        store.open()
        store.write_shard(0, [synthetic_runner(specs[0])])
        assert store.completed_shards() == {0: store.shard_path(0)}

        # a different shard size is a different plan partition: the
        # old checkpoints must not be restorable
        stale = self.store_for(tmp_path, specs, shard_size=3)
        assert stale.completed_shards() == {}
        stale.open()  # discards the mismatched directory
        assert not stale.shard_path(0).exists()

    def test_code_fingerprint_mismatch_invalidates(self, tmp_path):
        specs = [fast_spec(seed=i) for i in range(2)]
        store = self.store_for(tmp_path, specs)
        store.open()
        store.write_shard(0, [synthetic_runner(specs[0])])
        edited = self.store_for(tmp_path, specs, code_fingerprint="fp-2")
        assert edited.completed_shards() == {}

    def test_pipeline_validates_config(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(shard_size=0)
        with pytest.raises(ConfigurationError):
            PipelineConfig(retries=-1)


class TestBoundedMemory:
    def reduce_peak(self, tmp_path, count: int) -> int:
        campaign = canned_campaign("qoa", seed_count=1)
        paths = artifact_paths(tmp_path, f"mem-{count}")
        paths.root.mkdir(parents=True, exist_ok=True)
        specs = [fast_spec(seed=i) for i in range(count)]
        stream = (
            synthetic_runner(spec)
            for spec in sorted(specs, key=lambda s: s.run_id)
        )
        tracemalloc.start()
        try:
            aggregator = _reduce_stream(stream, paths, campaign)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert aggregator.total == count
        return peak

    def test_reducer_memory_flat_in_run_count(self, tmp_path):
        small = self.reduce_peak(tmp_path, 300)
        large = self.reduce_peak(tmp_path, 3000)
        # 10x the runs must not cost 10x the memory; allow generous
        # slack for allocator noise while still catching O(runs) state
        assert large < max(2.5 * small, small + 256 * 1024), (
            small, large
        )
