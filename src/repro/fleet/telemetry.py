"""Structured per-run telemetry.

Every fleet run folds its whole simulation into one
:class:`RunResult`: verdict histogram, detection latency, QoA
parameters, the availability report from :mod:`repro.apps.metrics`,
measurement and crypto-op counters, simulated and wall-clock time.

Results are JSON-serializable so they cross process boundaries and
land in JSONL artifacts.  The *deterministic* projection
(:meth:`RunResult.to_json_line`) excludes volatile fields (wall clock,
attempt count, worker host) so the same :class:`RunSpec` produces a
byte-identical line whether it ran serially, in a pool, or on another
machine -- which is what makes artifacts diffable and resumable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

from repro.apps.metrics import AvailabilityReport

#: fields excluded from the deterministic projection.  ``cache_hit``
#: is volatile by the same argument as wall clock: whether a run was
#: served from a :class:`repro.fleet.store.RunResultStore` says
#: nothing about the simulation, and a resumed re-run must emit
#: a ``runs.jsonl`` byte-identical to the full run it skipped.
VOLATILE_FIELDS = ("wall_clock", "attempts", "worker", "cache_hit")

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"

#: fixed bucket bounds every :class:`ExchangeSketch` shares -- merging
#: across shards requires identical geometry, so these are a protocol
#: constant, not a knob
SKETCH_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0,
)

#: how many slowest exchanges a sketch remembers by trace_id
SKETCH_TOP_K = 5


class ValueSketch:
    """Mergeable bounded-memory summary of a scalar distribution.

    The streaming reducer's unit of numeric telemetry: count / sum /
    min / max plus fixed-size bucket counts over the shared
    :data:`SKETCH_BUCKETS` geometry.  A million-run campaign folds any
    per-run scalar (detection latency, MP duration) into a handful of
    integers, so peak aggregator memory is independent of run count.
    ``merge`` is associative and commutative, which is what lets
    per-shard partial summaries reduce in any arrival order.
    """

    __slots__ = ("count", "sum", "min", "max", "bucket_counts")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.bucket_counts = [0] * (len(SKETCH_BUCKETS) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(SKETCH_BUCKETS)
        for i, bound in enumerate(SKETCH_BUCKETS):
            if value <= bound:
                index = i
                break
        self.bucket_counts[index] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "ValueSketch") -> "ValueSketch":
        self.count += other.count
        self.sum += other.sum
        if other.count:
            if other.min < self.min:
                self.min = other.min
            if other.max > self.max:
                self.max = other.max
        for i, bucket in enumerate(other.bucket_counts):
            self.bucket_counts[i] += bucket
        return self

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile (upper bound of the containing
        bucket, clamped to the observed max)."""
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bucket in enumerate(self.bucket_counts):
            cumulative += bucket
            if bucket and cumulative >= rank:
                if i == len(SKETCH_BUCKETS):
                    return self.max
                return min(SKETCH_BUCKETS[i], self.max)
        return self.max

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "min": round(self.min, 9) if self.count else 0.0,
            "max": round(self.max, 9) if self.count else 0.0,
            "buckets": list(self.bucket_counts),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ValueSketch":
        sketch = cls()
        sketch.count = int(data.get("count", 0))
        sketch.sum = float(data.get("sum", 0.0))
        if sketch.count:
            sketch.min = float(data.get("min", 0.0))
            sketch.max = float(data.get("max", 0.0))
        buckets = data.get("buckets") or []
        if len(buckets) == len(sketch.bucket_counts):
            sketch.bucket_counts = [int(b) for b in buckets]
        return sketch


class ExchangeSketch(ValueSketch):
    """Mergeable bounded-memory summary of per-exchange latencies.

    A :class:`ValueSketch` that additionally remembers a top-K list of
    the slowest exchanges with their trace ids, so a million-exchange
    campaign folds into ``GroupSummary`` without any shard ever
    shipping full traces.  ``merge`` is associative and commutative
    over everything except top-K tie order, which is made
    deterministic by the (latency desc, trace_id asc) sort.
    """

    __slots__ = ("top",)

    def __init__(self) -> None:
        super().__init__()
        #: [(latency, trace_id, label), ...] slowest-first, <= TOP_K
        self.top: List[List[Any]] = []

    def observe(self, latency: float, trace_id: str = "",
                label: str = "") -> None:
        super().observe(latency)
        # repro: allow[perf-unbounded-queue] -- _trim() caps at TOP_K
        self.top.append([float(latency), trace_id, label])
        self._trim()

    def _trim(self) -> None:
        self.top.sort(key=lambda row: (-row[0], row[1], row[2]))
        del self.top[SKETCH_TOP_K:]

    def merge(self, other: "ValueSketch") -> "ExchangeSketch":
        super().merge(other)
        if isinstance(other, ExchangeSketch):
            # repro: allow[perf-unbounded-queue] -- _trim() caps at TOP_K
            self.top.extend(list(row) for row in other.top)
            self._trim()
        return self

    def to_dict(self) -> Dict[str, Any]:
        data = super().to_dict()
        data["top"] = [
            [round(latency, 9), trace_id, label]
            for latency, trace_id, label in self.top
        ]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExchangeSketch":
        sketch = super().from_dict(data)
        sketch.top = [
            [float(row[0]), str(row[1]), str(row[2])]
            for row in (data.get("top") or [])
        ]
        sketch._trim()
        return sketch


@dataclass
class RunResult:
    """Everything measured from one fleet run."""

    run_id: str
    spec: Dict[str, Any]
    status: str = STATUS_OK
    error: str = ""
    # -- verdicts / detection ------------------------------------------
    verdict_counts: Dict[str, int] = field(default_factory=dict)
    detected: bool = False
    first_detection_at: Optional[float] = None
    detection_latency: Optional[float] = None
    # -- QoA ------------------------------------------------------------
    qoa: Dict[str, float] = field(default_factory=dict)
    # -- availability ---------------------------------------------------
    availability: Optional[Dict[str, Any]] = None
    #: mid-measurement write probes, ``attempted`` and promptly
    #: ``succeeded`` (``RunSpec.probe_count`` runs only); same empty-drop
    #: rule as ``outcomes``
    probes: Dict[str, int] = field(default_factory=dict)
    # -- measurement engine --------------------------------------------
    measurements: int = 0
    mp_duration: float = 0.0
    mp_interruptions: int = 0
    reports: int = 0
    # -- crypto-op counters --------------------------------------------
    hash_ops: int = 0
    hash_bytes: int = 0
    auth_ops: int = 0
    lock_ops: int = 0
    # -- trace ----------------------------------------------------------
    #: device trace records emitted, capped at ``RunSpec.trace_limit``:
    #: the count a ring buffer of that size would retain.  The run
    #: counts its records and keeps none; a reading equal to the cap
    #: means the cap was reached, not that exactly that many were
    #: emitted
    trace_events: int = 0
    #: records past the cap; ``trace_events + trace_dropped`` is the
    #: number of records the run emitted
    trace_dropped: int = 0
    # -- observability ---------------------------------------------------
    #: flat sim-time metric snapshot (repro.obs); deterministic because
    #: every value is stamped from the simulation clock
    telemetry: Dict[str, float] = field(default_factory=dict)
    # -- degradation ------------------------------------------------------
    #: OutcomeReport aggregate (fault-injected runs only); excluded
    #: from serialization when empty so fault-free artifacts keep their
    #: historical byte-identical form
    outcomes: Dict[str, Any] = field(default_factory=dict)
    # -- causal tracing ---------------------------------------------------
    #: exchange-trace summary (span-enabled runs only): distinct trace
    #: count, an :class:`ExchangeSketch` dict, exemplar tables.  Empty
    #: on default metrics-only runs and excluded from serialization,
    #: same byte-identity rule as ``outcomes``
    trace_summary: Dict[str, Any] = field(default_factory=dict)
    #: SLO engine summary (``RunSpec.slo`` runs only); same empty-drop
    #: rule
    slo: Dict[str, Any] = field(default_factory=dict)
    # -- time ------------------------------------------------------------
    sim_time: float = 0.0
    wall_clock: float = 0.0  # volatile
    attempts: int = 1  # volatile
    worker: str = ""  # volatile
    #: served from the artifact cache instead of executed
    cache_hit: bool = False  # volatile

    # -- serialization --------------------------------------------------

    def to_dict(self, deterministic: bool = False) -> Dict[str, Any]:
        # shallow: nested dicts are shared with this result, and the
        # only consumer (to_json_line) serialises without mutating them
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["spec"] = dict(sorted(self.spec.items()))
        data["verdict_counts"] = dict(sorted(self.verdict_counts.items()))
        data["qoa"] = dict(sorted(self.qoa.items()))
        data["telemetry"] = dict(sorted(self.telemetry.items()))
        if not data["outcomes"]:
            del data["outcomes"]
        if not data["trace_summary"]:
            del data["trace_summary"]
        if not data["slo"]:
            del data["slo"]
        if not data["probes"]:
            del data["probes"]
        if deterministic:
            for name in VOLATILE_FIELDS:
                data.pop(name, None)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def to_json_line(self) -> str:
        """The canonical, deterministic JSONL form of this result."""
        return json.dumps(
            self.to_dict(deterministic=True),
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json_line(cls, line: str) -> "RunResult":
        return cls.from_dict(json.loads(line))

    # -- convenience ----------------------------------------------------

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def availability_report(self) -> Optional[AvailabilityReport]:
        if self.availability is None:
            return None
        return AvailabilityReport.from_dict(self.availability)

    @property
    def miss_rate(self) -> float:
        if not self.availability:
            return 0.0
        released = self.availability.get("jobs_released", 0)
        if not released:
            return 0.0
        return self.availability.get("deadline_misses", 0) / released

    def summary_line(self) -> str:
        spec = self.spec
        tail = (
            f"detected={self.detected} mp={self.mp_duration:.3f}s "
            f"measurements={self.measurements}"
            if self.ok
            else f"{self.status}: {self.error.splitlines()[-1] if self.error else '?'}"
        )
        return (
            f"{self.run_id:<44} {spec.get('mechanism', '?'):<9} "
            f"vs {spec.get('adversary', '?'):<10} {tail}"
        )


def failure_result(
    run_id: str,
    spec: Dict[str, Any],
    status: str,
    error: str,
    attempts: int = 1,
    wall_clock: float = 0.0,
) -> RunResult:
    """A :class:`RunResult` for a run that never produced telemetry."""
    return RunResult(
        run_id=run_id,
        spec=spec,
        status=status,
        error=error,
        attempts=attempts,
        wall_clock=wall_clock,
    )


def verdict_histogram(results: List[Any]) -> Dict[str, int]:
    """Count verifier verdicts by name."""
    counts: Dict[str, int] = {}
    for result in results:
        key = result.verdict.value
        counts[key] = counts.get(key, 0) + 1
    return counts
