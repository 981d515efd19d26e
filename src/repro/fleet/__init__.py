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

from repro.fleet.backends import (
    ExecutorBackend,
    ProcessPoolBackend,
    SerialBackend,
    Shard,
    ShardOutcome,
    make_shards,
    resolve_backend,
)
from repro.fleet.campaign import (
    CANNED_CAMPAIGNS,
    DEVICE_CLASSES,
    CampaignSpec,
    Cohort,
    RunSpec,
    canned_campaign,
    hetero_fleet_campaign,
    locking_availability_campaign,
    matrix_fleet_campaign,
    qoa_fleet_campaign,
)
from repro.fleet.clock import ClockFn, perf_time, wall_time
from repro.fleet.executor import (
    FleetTimeout,
    execute_run,
    run_one,
)
from repro.fleet.pipeline import (
    PipelineConfig,
    PipelineReport,
    run_pipeline,
)
from repro.fleet.results import (
    ArtifactPaths,
    CampaignManifest,
    CampaignSummary,
    GroupSummary,
    StreamingAggregator,
    artifact_paths,
    percentile,
    read_manifest,
    read_results_jsonl,
    summarize,
)
from repro.fleet.store import (
    RunResultStore,
    ShardCheckpointStore,
    plan_hash,
    source_fingerprint,
)
from repro.fleet.telemetry import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    ExchangeSketch,
    RunResult,
    ValueSketch,
    failure_result,
    verdict_histogram,
)

__all__ = [
    "CANNED_CAMPAIGNS",
    "DEVICE_CLASSES",
    "ArtifactPaths",
    "ClockFn",
    "CampaignManifest",
    "CampaignSpec",
    "CampaignSummary",
    "Cohort",
    "ExchangeSketch",
    "ExecutorBackend",
    "FleetTimeout",
    "GroupSummary",
    "PipelineConfig",
    "PipelineReport",
    "ProcessPoolBackend",
    "RunResult",
    "RunResultStore",
    "RunSpec",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "SerialBackend",
    "Shard",
    "ShardCheckpointStore",
    "ShardOutcome",
    "StreamingAggregator",
    "ValueSketch",
    "artifact_paths",
    "canned_campaign",
    "execute_run",
    "failure_result",
    "hetero_fleet_campaign",
    "locking_availability_campaign",
    "make_shards",
    "matrix_fleet_campaign",
    "perf_time",
    "percentile",
    "plan_hash",
    "qoa_fleet_campaign",
    "read_manifest",
    "read_results_jsonl",
    "resolve_backend",
    "run_one",
    "run_pipeline",
    "source_fingerprint",
    "summarize",
    "verdict_histogram",
    "wall_time",
]
