"""Campaign artifacts and aggregation.

One executed campaign lands on disk as::

    <out>/<campaign-name>/
        runs.jsonl      # one deterministic RunResult per line
        manifest.json   # machine-readable campaign manifest
        summary.json    # per-mechanism aggregate numbers
        summary.txt     # the same table, human-readable

``runs.jsonl`` holds only the deterministic projection of each result
(no wall clocks, no worker ids), so serial and parallel executions of
the same plan produce byte-identical files and artifacts diff cleanly
across machines.  The manifest carries the volatile side: wall-clock,
mode, worker count, status histogram.

The aggregator folds results into per-``(mechanism, adversary)``
summaries: detection rate and latency percentiles, deadline-miss
rates, QoA detection probabilities, measurement durations.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.fleet.telemetry import ExchangeSketch, RunResult, ValueSketch

MANIFEST_VERSION = 1


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]); no numpy."""
    if not values:
        raise ConfigurationError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError("q must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


# ---------------------------------------------------------------------------
# JSONL read-back
# ---------------------------------------------------------------------------


def read_results_jsonl(path: Any) -> List[RunResult]:
    results = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                results.append(RunResult.from_json_line(line))
    return results


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass
class GroupSummary:
    """Aggregates over one (mechanism, adversary) cell.

    Every field is a bounded, merge-able partial: counters, running
    sums, and :class:`ValueSketch` distributions.  No per-run list is
    retained, so a cell's footprint is independent of how many runs
    fold into it, and two cells built from disjoint shard streams
    combine exactly via :meth:`merge`.
    """

    mechanism: str
    adversary: str
    runs: int = 0
    ok: int = 0
    errors: int = 0
    timeouts: int = 0
    detected: int = 0
    #: bounded distribution of detection latencies across ok runs
    detection_latency: ValueSketch = field(default_factory=ValueSketch)
    #: running sum/count of per-run deadline-miss rates
    miss_rate_sum: float = 0.0
    miss_rate_count: int = 0
    worst_response: float = 0.0
    write_faults: int = 0
    #: running sum/count + bounded distribution of MP durations
    mp_duration: ValueSketch = field(default_factory=ValueSketch)
    #: summed sim-time metric snapshots (repro.obs) across ok runs
    telemetry_totals: Dict[str, float] = field(default_factory=dict)
    #: merged per-shard exchange sketches (span-enabled runs only);
    #: None until the first run contributes one, so default campaigns
    #: serialize exactly their historical summaries
    exchange_sketch: Optional[ExchangeSketch] = None
    #: distinct traces observed across contributing runs
    traces: int = 0
    #: SLO burn-rate alerts fired across contributing runs
    slo_alerts: int = 0
    #: runs whose SLO summary reported an unmet objective
    slo_violations: int = 0
    #: runs served from the incremental artifact cache; volatile, so
    #: excluded from the serialized summary (see :meth:`to_dict`)
    cache_hits: int = 0

    def fold(self, result: RunResult) -> None:
        """Fold one run's telemetry into this cell (streaming unit)."""
        self.runs += 1
        if result.status == "error":
            self.errors += 1
            return
        if result.status == "timeout":
            self.timeouts += 1
            return
        self.ok += 1
        if result.cache_hit:
            self.cache_hits += 1
        if result.detected:
            self.detected += 1
        if result.detection_latency is not None:
            self.detection_latency.observe(result.detection_latency)
        if result.availability is not None:
            self.miss_rate_sum += result.miss_rate
            self.miss_rate_count += 1
            self.worst_response = max(
                self.worst_response,
                result.availability.get("worst_response", 0.0),
            )
            self.write_faults += result.availability.get("write_faults", 0)
        if result.measurements:
            self.mp_duration.observe(result.mp_duration)
        for name, value in result.telemetry.items():
            self.telemetry_totals[name] = (
                self.telemetry_totals.get(name, 0.0) + value
            )
        self.fold_trace_summary(result.trace_summary)
        self.fold_slo(result.slo)

    def merge(self, other: "GroupSummary") -> "GroupSummary":
        """Combine another cell's partials into this one.

        Associative and commutative up to float-addition rounding, so
        per-shard partial summaries reduce in any arrival order.
        """
        self.runs += other.runs
        self.ok += other.ok
        self.errors += other.errors
        self.timeouts += other.timeouts
        self.detected += other.detected
        self.detection_latency.merge(other.detection_latency)
        self.miss_rate_sum += other.miss_rate_sum
        self.miss_rate_count += other.miss_rate_count
        self.worst_response = max(self.worst_response, other.worst_response)
        self.write_faults += other.write_faults
        self.mp_duration.merge(other.mp_duration)
        for name, value in other.telemetry_totals.items():
            self.telemetry_totals[name] = (
                self.telemetry_totals.get(name, 0.0) + value
            )
        if other.exchange_sketch is not None:
            if self.exchange_sketch is None:
                self.exchange_sketch = ExchangeSketch.from_dict(
                    other.exchange_sketch.to_dict()
                )
            else:
                self.exchange_sketch.merge(other.exchange_sketch)
        self.traces += other.traces
        self.slo_alerts += other.slo_alerts
        self.slo_violations += other.slo_violations
        self.cache_hits += other.cache_hits
        return self

    def fold_trace_summary(self, summary: Dict[str, Any]) -> None:
        """Merge one run's ``trace_summary`` without rehydrating spans."""
        if not summary:
            return
        self.traces += int(summary.get("traces", 0))
        exchanges = summary.get("exchanges")
        if exchanges:
            sketch = ExchangeSketch.from_dict(exchanges)
            if self.exchange_sketch is None:
                self.exchange_sketch = sketch
            else:
                self.exchange_sketch.merge(sketch)

    def fold_slo(self, slo: Dict[str, Any]) -> None:
        if not slo:
            return
        self.slo_alerts += sum(
            1 for alert in slo.get("alerts", ())
            if alert.get("transition") == "firing"
        )
        if any(
            not objective.get("met", True)
            for objective in slo.get("objectives", {}).values()
        ):
            self.slo_violations += 1

    @property
    def detection_rate(self) -> float:
        return self.detected / self.ok if self.ok else 0.0

    @property
    def mean_miss_rate(self) -> float:
        if not self.miss_rate_count:
            return 0.0
        return self.miss_rate_sum / self.miss_rate_count

    @property
    def mean_mp_duration(self) -> float:
        return self.mp_duration.mean

    def latency_percentiles(self) -> Dict[str, float]:
        if not self.detection_latency.count:
            return {}
        return {
            f"p{q}": self.detection_latency.quantile(q / 100.0)
            for q in (50, 90, 99)
        }

    def to_dict(self) -> Dict[str, Any]:
        # built explicitly (not via asdict) because the sketches
        # serialize through their own canonical form; optional keys
        # appear only when traced/SLO runs contributed, so untraced
        # campaigns keep their historical summary shape.  cache_hits
        # is volatile (depends on what happened to be in the artifact
        # cache), so a full run and an incremental re-run serialize
        # identical summaries.
        data: Dict[str, Any] = {
            "mechanism": self.mechanism,
            "adversary": self.adversary,
            "runs": self.runs,
            "ok": self.ok,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "detected": self.detected,
            "worst_response": self.worst_response,
            "write_faults": self.write_faults,
        }
        for optional, value in (
            ("traces", self.traces),
            ("slo_alerts", self.slo_alerts),
            ("slo_violations", self.slo_violations),
        ):
            if value:
                data[optional] = value
        if self.exchange_sketch is not None and self.exchange_sketch.count:
            data["exchanges"] = self.exchange_sketch.to_dict()
        if self.detection_latency.count:
            data["detection_latency"] = self.detection_latency.to_dict()
        data["detection_rate"] = self.detection_rate
        data["mean_miss_rate"] = self.mean_miss_rate
        data["latency_percentiles"] = self.latency_percentiles()
        data["telemetry_totals"] = dict(
            sorted(self.telemetry_totals.items())
        )
        data["mean_mp_duration"] = self.mean_mp_duration
        return data


@dataclass
class CampaignSummary:
    """All group summaries for one campaign's results."""

    campaign: str
    groups: Dict[Tuple[str, str], GroupSummary]
    total_runs: int

    def group(self, mechanism: str, adversary: str) -> GroupSummary:
        return self.groups[(mechanism, adversary)]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.campaign,
            "total_runs": self.total_runs,
            "groups": [
                self.groups[key].to_dict() for key in sorted(self.groups)
            ],
        }

    def render(self) -> str:
        header = (
            f"{'mechanism':<10} {'adversary':<11} {'runs':>5} {'ok':>4} "
            f"{'err':>4} {'t/o':>4} {'detect':>7} {'lat p50':>9} "
            f"{'lat p90':>9} {'miss%':>7} {'mp[s]':>8}"
        )
        lines = [f"campaign {self.campaign}: {self.total_runs} runs",
                 header, "-" * len(header)]
        for key in sorted(self.groups):
            g = self.groups[key]
            pcts = g.latency_percentiles()
            p50 = f"{pcts['p50']:9.3f}" if pcts else "        -"
            p90 = f"{pcts['p90']:9.3f}" if pcts else "        -"
            mp = (
                f"{g.mean_mp_duration:8.3f}"
                if g.mp_duration.count
                else "       -"
            )
            lines.append(
                f"{g.mechanism:<10} {g.adversary:<11} {g.runs:>5} "
                f"{g.ok:>4} {g.errors:>4} {g.timeouts:>4} "
                f"{g.detection_rate:>6.0%} {p50} {p90} "
                f"{g.mean_miss_rate:>6.1%} {mp}"
            )
        return "\n".join(lines)


class StreamingAggregator:
    """Memory-bounded reducer over a stream of :class:`RunResult`.

    The *reduce* stage of the campaign pipeline: results fold one at a
    time into per-(mechanism, adversary) :class:`GroupSummary` cells
    and a status histogram; nothing per-run is retained, so peak
    memory is a function of cell count, never run count.  Whole
    aggregators combine via :meth:`merge` -- the unit of cross-shard
    (or cross-host) reduction.

    :func:`summarize` is this class applied to an in-RAM result list,
    so a summary folded over a stream and one folded over a list are
    identical when fed the same result order.
    """

    def __init__(self, campaign: str = "") -> None:
        self.campaign = campaign
        self.total = 0
        self.groups: Dict[Tuple[str, str], GroupSummary] = {}
        self.status_counts: Dict[str, int] = {}

    def add(self, result: RunResult) -> None:
        self.total += 1
        self.status_counts[result.status] = (
            self.status_counts.get(result.status, 0) + 1
        )
        mechanism = str(result.spec.get("mechanism", "?"))
        adversary = str(result.spec.get("adversary", "?"))
        self.campaign = self.campaign or str(result.spec.get("campaign", ""))
        key = (mechanism, adversary)
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = GroupSummary(mechanism, adversary)
        group.fold(result)

    def merge(self, other: "StreamingAggregator") -> "StreamingAggregator":
        self.total += other.total
        self.campaign = self.campaign or other.campaign
        for status, count in other.status_counts.items():
            self.status_counts[status] = (
                self.status_counts.get(status, 0) + count
            )
        for key, group in other.groups.items():
            mine = self.groups.get(key)
            if mine is None:
                self.groups[key] = mine = GroupSummary(key[0], key[1])
            mine.merge(group)
        return self

    def summary(self) -> CampaignSummary:
        return CampaignSummary(
            campaign=self.campaign,
            groups=self.groups,
            total_runs=self.total,
        )


def summarize(
    results: Iterable[RunResult], campaign: str = ""
) -> CampaignSummary:
    """Fold run results into per-(mechanism, adversary) summaries."""
    aggregator = StreamingAggregator(campaign)
    for result in results:
        aggregator.add(result)
    return aggregator.summary()


# ---------------------------------------------------------------------------
# Manifest + artifact layout
# ---------------------------------------------------------------------------


@dataclass
class CampaignManifest:
    """Machine-readable record of one campaign execution."""

    version: int
    campaign: str
    spec_hash: str
    run_count: int
    status_counts: Dict[str, int]
    mode: str
    workers: int
    shard_count: int
    degraded_shards: int
    wall_clock: float
    created_at: float
    artifacts: Dict[str, str]
    #: fingerprint of the ``repro`` source tree that produced the
    #: results -- the incremental cache refuses to reuse artifacts
    #: written by different code (``""`` on manifests that predate it)
    code_fingerprint: str = ""
    #: how many of ``run_count`` were served from the artifact cache
    cache_hits: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignManifest":
        # Tolerant of both older manifests (missing the newer optional
        # fields) and newer ones (unknown keys are dropped), so mixed
        # artifact directories stay readable.
        known = {f.name for f in dataclass_fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class ArtifactPaths:
    root: Path
    runs: Path
    manifest: Path
    summary_json: Path
    summary_txt: Path


def artifact_paths(out_dir: Any, campaign_name: str) -> ArtifactPaths:
    root = Path(out_dir) / campaign_name
    return ArtifactPaths(
        root=root,
        runs=root / "runs.jsonl",
        manifest=root / "manifest.json",
        summary_json=root / "summary.json",
        summary_txt=root / "summary.txt",
    )


def read_manifest(path: Any) -> CampaignManifest:
    with open(path, "r", encoding="utf-8") as handle:
        return CampaignManifest.from_dict(json.load(handle))
