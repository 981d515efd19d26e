"""Fleet campaigns: plan, execute and aggregate simulation sweeps.

The fleet layer sits *above* the single-run stack (``sim``/``ra``/
``apps``): it turns declarative :class:`CampaignSpec` sweeps -- flat
axes or heterogeneous :class:`Cohort` populations -- into deterministic
:class:`RunSpec` plans and pushes them through a five-stage pipeline
(:func:`run_pipeline`): plan -> shard -> execute -> stream -> reduce.
Execution is pluggable via :class:`ExecutorBackend` (in-process serial
or a local process pool); completed shards checkpoint to disk for
kill-safe ``--resume``; and results stream through a memory-bounded
:class:`StreamingAggregator`, so the artifacts are byte-identical
whichever backend ran the shards.  See
docs/fleet.md for the artifact layout.
"""

from repro import export_lazily

__all__ = export_lazily(globals(), {
    "repro.fleet.backends": (
        "ExecutorBackend", "ProcessPoolBackend", "SerialBackend", "Shard",
        "ShardOutcome", "make_shards", "resolve_backend",
    ),
    "repro.fleet.campaign": (
        "CANNED_CAMPAIGNS", "DEVICE_CLASSES", "CampaignSpec", "Cohort",
        "RunSpec", "canned_campaign", "hetero_fleet_campaign",
        "locking_availability_campaign", "matrix_fleet_campaign",
        "qoa_fleet_campaign",
    ),
    "repro.fleet.clock": ("ClockFn", "perf_time", "wall_time"),
    "repro.fleet.executor": ("FleetTimeout", "execute_run", "run_one"),
    "repro.fleet.pipeline": (
        "PipelineConfig", "PipelineReport", "run_pipeline",
    ),
    "repro.fleet.results": (
        "ArtifactPaths", "CampaignManifest", "CampaignSummary", "GroupSummary",
        "StreamingAggregator", "artifact_paths", "read_manifest",
        "read_results_jsonl", "summarize",
    ),
    "repro.fleet.store": (
        "RunResultStore", "ShardCheckpointStore", "plan_hash",
        "source_fingerprint",
    ),
    "repro.fleet.telemetry": (
        "STATUS_ERROR", "STATUS_OK", "STATUS_TIMEOUT", "ExchangeSketch",
        "RunResult", "ValueSketch", "failure_result", "verdict_histogram",
    ),
})
