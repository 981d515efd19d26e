"""Incremental fleet campaigns: fingerprinting, the result store, and
byte-identical artifact reuse.

``--resume`` reuse is only safe because three layers agree: the source
fingerprint pins the code tree, ``RunResultStore.cached`` refuses
anything but prior *ok* results under a matching fingerprint, and
``cache_hit`` stays volatile so reused results serialize exactly as
freshly computed ones.
"""

import json

import pytest

from repro import fleet
from repro.fleet import pipeline as pipeline_module
from repro.fleet.campaign import RunSpec
from repro.fleet.results import (
    CampaignManifest,
    read_manifest,
    summarize,
)
from repro.fleet.store import RunResultStore, source_fingerprint
from repro.fleet.telemetry import (
    STATUS_ERROR,
    VOLATILE_FIELDS,
    RunResult,
)


# -- source fingerprint ----------------------------------------------------


class TestSourceFingerprint:
    def make_tree(self, tmp_path, contents):
        for name, text in contents.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")

    def test_deterministic(self, tmp_path):
        self.make_tree(tmp_path, {"a.py": "x = 1\n", "sub/b.py": "y = 2\n"})
        assert source_fingerprint(tmp_path) == source_fingerprint(tmp_path)

    def test_content_change_changes_fingerprint(self, tmp_path):
        self.make_tree(tmp_path, {"a.py": "x = 1\n"})
        before = source_fingerprint(tmp_path)
        (tmp_path / "a.py").write_text("x = 2\n", encoding="utf-8")
        assert source_fingerprint(tmp_path) != before

    def test_path_change_changes_fingerprint(self, tmp_path):
        self.make_tree(tmp_path, {"a.py": "x = 1\n"})
        before = source_fingerprint(tmp_path)
        (tmp_path / "a.py").rename(tmp_path / "b.py")
        assert source_fingerprint(tmp_path) != before

    def test_non_python_files_ignored(self, tmp_path):
        self.make_tree(tmp_path, {"a.py": "x = 1\n"})
        before = source_fingerprint(tmp_path)
        (tmp_path / "notes.md").write_text("irrelevant", encoding="utf-8")
        assert source_fingerprint(tmp_path) == before

    def test_default_root_is_repro_package(self):
        assert len(source_fingerprint()) == 64


# -- RunResultStore partitioning ------------------------------------------


def result_for(spec, status="ok"):
    return RunResult(run_id=spec.run_id, spec=spec.to_dict(), status=status)


def write_campaign(out_dir, specs, runner=result_for):
    """Artifacts for ``specs`` as the pipeline writes them, stamped
    with the current source fingerprint."""
    return fleet.run_pipeline(
        fleet.CampaignSpec(name="inc-test"), specs,
        out_dir=out_dir, runner=runner,
    )


@pytest.fixture
def specs():
    return [
        RunSpec(campaign="inc-test", mechanism="smart", seed=s)
        for s in range(3)
    ]


@pytest.fixture
def campaign_dir(tmp_path, specs):
    write_campaign(tmp_path, specs)
    return tmp_path


class TestRunResultStore:
    def test_empty_store_runs_everything(self, tmp_path, specs):
        store = RunResultStore(tmp_path, "inc-test")
        hits, pending = store.cached(specs, source_fingerprint())
        assert hits == [] and pending == specs
        assert len(store) == 0

    def test_fingerprint_mismatch_runs_everything(self, campaign_dir, specs):
        store = RunResultStore(campaign_dir, "inc-test")
        hits, pending = store.cached(specs, "fp-other")
        assert hits == [] and len(pending) == 3

    def test_empty_fingerprint_never_hits(self, campaign_dir, specs):
        store = RunResultStore(campaign_dir, "inc-test")
        hits, pending = store.cached(specs, "")
        assert hits == [] and len(pending) == 3

    def test_matching_store_hits_and_marks(self, campaign_dir, specs):
        store = RunResultStore(campaign_dir, "inc-test")
        assert len(store) == 3
        assert store.code_fingerprint == source_fingerprint()
        hits, pending = store.cached(specs, source_fingerprint())
        assert len(hits) == 3 and pending == []
        assert all(hit.cache_hit for hit in hits)

    def test_failed_results_rerun(self, tmp_path, specs):
        def fail_second(spec):
            failed = spec.run_id == specs[1].run_id
            return result_for(spec, STATUS_ERROR if failed else "ok")

        write_campaign(tmp_path, specs[:2], runner=fail_second)
        store = RunResultStore(tmp_path, "inc-test")
        hits, pending = store.cached(specs, source_fingerprint())
        assert [hit.run_id for hit in hits] == [specs[0].run_id]
        # the failed run and the never-run spec both re-execute
        assert {spec.run_id for spec in pending} == {
            specs[1].run_id, specs[2].run_id,
        }


# -- serialization invariants ---------------------------------------------


class TestVolatility:
    def test_cache_hit_is_volatile(self):
        assert "cache_hit" in VOLATILE_FIELDS
        spec = RunSpec(campaign="v", seed=1)
        fresh = result_for(spec)
        reused = result_for(spec)
        reused.cache_hit = True
        assert fresh.to_json_line() == reused.to_json_line()

    def test_manifest_from_dict_tolerates_old_and_new_keys(self):
        old = CampaignManifest(
            version=1, campaign="c", spec_hash="h", run_count=0,
            status_counts={}, mode="serial", workers=1, shard_count=1,
            degraded_shards=0, wall_clock=0.0, created_at=0.0,
            artifacts={},
        ).to_dict()
        old.pop("code_fingerprint")
        old.pop("cache_hits")
        old["future_key"] = "ignored"
        manifest = CampaignManifest.from_dict(old)
        assert manifest.code_fingerprint == ""
        assert manifest.cache_hits == 0

    def test_summary_counts_hits_but_omits_from_dict(self):
        spec = RunSpec(campaign="v", seed=1)
        hit = result_for(spec)
        hit.cache_hit = True
        summary = summarize([hit, result_for(RunSpec(campaign="v", seed=2))],
                            campaign="v")
        groups = [g for g in summary.groups.values() if g.cache_hits]
        assert groups and groups[0].cache_hits == 1
        payload = json.dumps(summary.to_dict())
        assert "cache_hits" not in payload


# -- end-to-end: real campaign, resumed rerun -----------------------------


class TestEndToEnd:
    def test_incremental_rerun_is_identical_and_skips_all(self, tmp_path):
        campaign = fleet.canned_campaign("faults", seed_count=1)
        specs = campaign.plan()[:2]

        report = fleet.run_pipeline(campaign, specs, out_dir=tmp_path)
        paths = report.paths
        runs_before = paths.runs.read_bytes()
        summary_before = paths.summary_json.read_bytes()

        report2 = fleet.run_pipeline(
            campaign, specs, out_dir=tmp_path,
            config=fleet.PipelineConfig(resume=True),
        )
        assert report2.cache_hits == len(specs)
        assert report2.executed == 0

        assert paths.runs.read_bytes() == runs_before
        assert paths.summary_json.read_bytes() == summary_before
        manifest = read_manifest(paths.manifest)
        assert manifest.cache_hits == len(specs)
        assert manifest.code_fingerprint == fleet.source_fingerprint()

    def test_resume_after_a_source_edit_executes_every_run(
        self, tmp_path, monkeypatch
    ):
        """Results the old code wrote are not reused once the source
        tree changes: the resumed pass executes every run and stamps
        the new fingerprint only over results it produced."""
        campaign = fleet.canned_campaign("faults", seed_count=1)
        specs = campaign.plan()[:3]
        fleet.run_pipeline(campaign, specs, out_dir=tmp_path)

        monkeypatch.setattr(
            pipeline_module, "source_fingerprint", lambda: "edited"
        )
        report = fleet.run_pipeline(
            campaign, specs, out_dir=tmp_path,
            config=fleet.PipelineConfig(resume=True),
        )
        assert report.executed == len(specs)
        assert report.cache_hits == 0
        assert read_manifest(report.paths.manifest).code_fingerprint == (
            "edited"
        )

    def test_manifest_always_carries_fingerprint(self, tmp_path):
        """Plain (non-resumed) pipeline passes stamp the fingerprint
        too, so any prior out-dir seeds a later --resume pass."""
        campaign = fleet.canned_campaign("faults", seed_count=1)
        specs = campaign.plan()[:1]
        paths = fleet.run_pipeline(campaign, specs, out_dir=tmp_path).paths
        manifest = read_manifest(paths.manifest)
        assert manifest.code_fingerprint == fleet.source_fingerprint()
