"""The staged campaign pipeline: plan -> shard -> execute -> stream -> reduce.

This is the one way a campaign runs and writes its artifacts.  No
stage holds the campaign's :class:`~repro.fleet.telemetry.RunResult`
list in memory -- at a million provers that list *is* the OOM; the
pipeline keeps results moving instead:

1. **plan** -- :meth:`CampaignSpec.plan` expands the declarative sweep
   (cohorts, device classes, firmware versions included) into an
   ordered spec list;
2. **shard** -- :func:`repro.fleet.backends.make_shards` slices the
   plan into fixed-size shards, the unit of dispatch and resume;
3. **execute** -- an :class:`~repro.fleet.backends.ExecutorBackend`
   (in-process or process pool) yields each shard's results as it
   completes;
4. **stream** -- every completed shard is immediately checkpointed to
   a run_id-sorted JSONL file (atomic rename) via
   :class:`~repro.fleet.store.ShardCheckpointStore`, so a killed
   campaign resumes from its last completed shard;
5. **reduce** -- a k-way merge over the checkpoint files streams
   results one at a time, in global run_id order, through a
   :class:`~repro.fleet.results.StreamingAggregator` while writing
   ``runs.jsonl`` incrementally.

Peak aggregator memory is O(groups + shards), never O(runs), and the
reduce fold visits results in run_id-sorted order whatever the backend,
shard completion order or resume history -- which is why a streamed,
resumed, or process-pool campaign produces *byte-identical*
artifacts to an uninterrupted serial run.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.fleet.backends import (
    ExecutorBackend,
    LogFn,
    SerialBackend,
    Shard,
    make_shards,
)
from repro.fleet.campaign import CampaignSpec, RunSpec
from repro.fleet.clock import ClockFn, perf_time, wall_time
from repro.fleet.executor import Runner, execute_run
from repro.fleet.results import (
    MANIFEST_VERSION,
    ArtifactPaths,
    CampaignManifest,
    CampaignSummary,
    StreamingAggregator,
    artifact_paths,
    read_results_jsonl,
)
from repro.fleet.store import (
    RunResultStore,
    ShardCheckpointStore,
    source_fingerprint,
)
from repro.fleet.telemetry import RunResult


@dataclass
class PipelineConfig:
    """Knobs for one streamed campaign execution."""

    shard_size: int = 8
    retries: int = 1
    #: reuse prior shard checkpoints and prior final artifacts for the
    #: same plan (continuation after a kill; trusts run_ids)
    resume: bool = False
    #: reuse prior *ok* results only under a matching source
    #: fingerprint (stricter than resume, which it subsumes)
    incremental: bool = False
    #: keep the shards/ directory after a successful finalize
    #: (debugging aid; normally it is deleted)
    keep_checkpoints: bool = False

    def __post_init__(self) -> None:
        if self.shard_size <= 0:
            raise ConfigurationError("shard_size must be positive")
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")


@dataclass
class PipelineReport:
    """What one pipeline pass did.

    ``executed``/``status_counts`` cover only runs that actually
    executed this pass; ``total_runs`` and ``summary`` cover the whole
    campaign (executed + restored from checkpoints or caches).
    """

    campaign: str
    total_runs: int
    executed: int
    restored: int
    cache_hits: int
    status_counts: Dict[str, int]
    mode: str
    workers: int
    shard_count: int
    executed_shards: int
    degraded_shards: int
    wall_clock: float
    summary: CampaignSummary
    paths: ArtifactPaths
    log: List[str] = field(default_factory=list)

    def summary_line(self) -> str:
        breakdown = " ".join(
            f"{status}={count}"
            for status, count in sorted(self.status_counts.items())
        )
        return (
            f"{self.executed} runs in {self.wall_clock:.2f}s "
            f"({self.mode}, workers={self.workers}, "
            f"shards={self.shard_count}, degraded={self.degraded_shards}): "
            f"{breakdown or 'nothing to do'}"
        )


# ---------------------------------------------------------------------------
# Prior-result discovery (resume / incremental)
# ---------------------------------------------------------------------------


def _prior_results(
    out_dir: Any,
    campaign: CampaignSpec,
    specs: Sequence[RunSpec],
    config: PipelineConfig,
    fingerprint: str,
    emit: LogFn,
) -> Tuple[Dict[str, RunResult], int]:
    """Reusable prior results keyed by run_id, plus the cache-hit count.

    ``--incremental`` consults the final-artifact store under the
    fingerprint contract (reused results count as cache hits);
    ``--resume`` trusts any prior final artifacts for the same run ids
    (a continuation, not a cache -- hits are not counted).
    """
    prior: Dict[str, RunResult] = {}
    cache_hits = 0
    if config.incremental:
        store = RunResultStore(out_dir, campaign.name)
        hits, pending = store.cached(specs, fingerprint)
        for result in hits:
            prior[result.run_id] = result
        cache_hits = len(hits)
        emit(
            f"incremental: {len(hits)}/{len(specs)} cache hits "
            f"({len(pending)} to run)"
        )
    elif config.resume:
        paths = artifact_paths(out_dir, campaign.name)
        if paths.runs.exists():
            for result in read_results_jsonl(paths.runs):
                if result.ok:
                    prior[result.run_id] = result
    return prior, cache_hits


# ---------------------------------------------------------------------------
# Stage 5: the streaming reduce
# ---------------------------------------------------------------------------


def _merged_stream(
    checkpoints: ShardCheckpointStore, shard_indices: Sequence[int]
) -> Iterator[RunResult]:
    """K-way merge of run_id-sorted shard checkpoints into one
    globally run_id-sorted result stream."""
    iterators = [checkpoints.read_shard(index) for index in shard_indices]
    return heapq.merge(*iterators, key=lambda result: result.run_id)


def _reduce_stream(
    stream: Iterator[RunResult],
    paths: ArtifactPaths,
    campaign: CampaignSpec,
) -> StreamingAggregator:
    """Write ``runs.jsonl`` incrementally while folding the canonical
    summary -- one pass, one result in memory at a time.

    Every line is newline-terminated (an empty campaign writes an
    empty file), and the fold order is the run_id-sorted order
    :func:`~repro.fleet.results.summarize` would see over the whole
    result list, so streaming changes *where* results live, never
    what the artifacts say.
    """
    aggregator = StreamingAggregator(campaign.name)
    with open(paths.runs, "w", encoding="utf-8") as handle:
        for result in stream:
            handle.write(result.to_json_line() + "\n")
            aggregator.add(result)
    return aggregator


def _write_summary_and_manifest(
    paths: ArtifactPaths,
    campaign: CampaignSpec,
    aggregator: StreamingAggregator,
    *,
    mode: str,
    workers: int,
    shard_count: int,
    degraded_shards: int,
    wall_clock: float,
    code_fingerprint: str,
    cache_hits: int,
    clock: Optional[ClockFn],
) -> CampaignSummary:
    summary = aggregator.summary()
    paths.summary_txt.write_text(summary.render() + "\n", encoding="utf-8")
    paths.summary_json.write_text(
        json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    manifest = CampaignManifest(
        version=MANIFEST_VERSION,
        campaign=campaign.name,
        spec_hash=campaign.spec_hash,
        run_count=aggregator.total,
        status_counts=dict(aggregator.status_counts),
        mode=mode,
        workers=workers,
        shard_count=shard_count,
        degraded_shards=degraded_shards,
        wall_clock=wall_clock,
        created_at=(clock or wall_time)(),
        artifacts={
            "runs": paths.runs.name,
            "summary_json": paths.summary_json.name,
            "summary_txt": paths.summary_txt.name,
        },
        code_fingerprint=code_fingerprint,
        cache_hits=cache_hits,
    )
    paths.manifest.write_text(
        json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return summary


# ---------------------------------------------------------------------------
# The pipeline driver
# ---------------------------------------------------------------------------


def run_pipeline(
    campaign: CampaignSpec,
    specs: Optional[Sequence[RunSpec]] = None,
    *,
    out_dir: Any = "fleet-artifacts",
    backend: Optional[ExecutorBackend] = None,
    config: Optional[PipelineConfig] = None,
    runner: Runner = execute_run,
    log: Optional[LogFn] = None,
    clock: Optional[ClockFn] = None,
    perf: Optional[ClockFn] = None,
) -> PipelineReport:
    """Run one campaign through the five stages; never raises for
    per-run failures (they become ``error``/``timeout`` results).

    ``specs`` overrides the plan (the CLI passes a truncated or
    timeout-stamped list); ``backend`` defaults to in-process serial.
    ``clock``/``perf`` inject the manifest timestamp and stopwatch for
    tests that need volatile-free manifests.

    A killed campaign (worker crash, SIGKILL, power loss) leaves its
    completed shards checkpointed on disk; re-running with
    ``config.resume=True`` restores them and executes only the rest,
    then finalizes artifacts byte-identical to an uninterrupted pass.
    """
    stopwatch = perf or perf_time
    start = stopwatch()
    emit_log: List[str] = []

    def emit(message: str) -> None:
        emit_log.append(message)
        if log is not None:
            log(message)

    config = config or PipelineConfig()
    backend = backend or SerialBackend()
    if specs is None:
        specs = campaign.plan()
    specs = list(specs)

    fingerprint = source_fingerprint()
    paths = artifact_paths(out_dir, campaign.name)
    paths.root.mkdir(parents=True, exist_ok=True)

    # -- stage 2: shard -------------------------------------------------
    shards = make_shards(specs, config.shard_size)

    checkpoints = ShardCheckpointStore(
        out_dir,
        campaign.name,
        campaign.spec_hash,
        specs,
        config.shard_size,
        fingerprint,
    )
    completed = (
        checkpoints.completed_shards()
        if (config.resume or config.incremental)
        else {}
    )
    checkpoints.open()

    prior, cache_hits = _prior_results(
        out_dir, campaign, specs, config, fingerprint, emit
    )

    # -- stages 3+4: execute and checkpoint -----------------------------
    # A shard is (a) already checkpointed from a killed pass, (b) fully
    # covered by prior results (synthesize its checkpoint without
    # executing), or (c) executed -- in full, or only its missing specs
    # merged with prior hits.
    restored = 0
    pending_work: List[Shard] = []
    prior_by_shard: Dict[int, List[RunResult]] = {}
    for shard in shards:
        if shard.index in completed:
            restored += len(shard.specs)
            continue
        hits = [
            prior[spec.run_id]
            for spec in shard.specs
            if spec.run_id in prior
        ]
        missing = [
            spec for spec in shard.specs if spec.run_id not in prior
        ]
        if not missing:
            checkpoints.write_shard(shard.index, hits)
            restored += len(hits)
            continue
        if hits:
            prior_by_shard[shard.index] = hits
            restored += len(hits)
        pending_work.append(Shard(index=shard.index, specs=missing))

    if completed:
        emit(
            f"resume: restored {len(completed)}/{len(shards)} "
            f"checkpointed shard(s)"
        )

    executed = 0
    executed_shards = 0
    degraded_shards = 0
    status_counts: Dict[str, int] = {}
    for outcome in backend.execute(
        pending_work, retries=config.retries, runner=runner, log=emit
    ):
        executed_shards += 1
        if outcome.degraded:
            degraded_shards += 1
        for result in outcome.results:
            executed += 1
            status_counts[result.status] = (
                status_counts.get(result.status, 0) + 1
            )
        checkpoints.write_shard(
            outcome.shard.index,
            outcome.results + prior_by_shard.get(outcome.shard.index, []),
        )

    # -- stage 5: stream + reduce ---------------------------------------
    shard_indices = [shard.index for shard in shards]
    aggregator = _reduce_stream(
        _merged_stream(checkpoints, shard_indices), paths, campaign
    )
    wall_clock = stopwatch() - start
    summary = _write_summary_and_manifest(
        paths,
        campaign,
        aggregator,
        mode=backend.mode,
        workers=backend.workers,
        shard_count=len(shards),
        degraded_shards=degraded_shards,
        wall_clock=wall_clock,
        code_fingerprint=fingerprint,
        cache_hits=cache_hits,
        clock=clock,
    )
    if not config.keep_checkpoints:
        checkpoints.discard()

    return PipelineReport(
        campaign=campaign.name,
        total_runs=aggregator.total,
        executed=executed,
        restored=restored,
        cache_hits=cache_hits,
        status_counts=status_counts,
        mode=backend.mode,
        workers=backend.workers,
        shard_count=len(shards),
        executed_shards=executed_shards,
        degraded_shards=degraded_shards,
        wall_clock=wall_clock,
        summary=summary,
        paths=paths,
        log=emit_log,
    )
