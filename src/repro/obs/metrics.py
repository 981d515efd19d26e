"""Sim-time metrics: counters, gauges and histograms with exporters.

A :class:`MetricsRegistry` is a flat namespace of named instruments.
Instrument mutations stamp the *simulation* clock (bound by the
simulator), never a wall clock, so two runs of the same scenario
produce byte-identical snapshots -- which is what lets the fleet
executor fold them into deterministic run artifacts and assert
serial/parallel parity.

Exporters:

* :meth:`MetricsRegistry.snapshot` -- nested dict, sorted keys;
* :meth:`MetricsRegistry.snapshot_flat` -- ``{name: float}`` for
  :attr:`repro.fleet.telemetry.RunResult.telemetry`;
* :meth:`MetricsRegistry.to_jsonl` -- one JSON object per sample line;
* :func:`to_prometheus_text` -- the Prometheus text exposition format
  (metric names are sanitized ``a.b.c`` -> ``a_b_c``).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

TimeFn = Callable[[], float]

#: default histogram bucket upper bounds (seconds-flavoured, but any
#: unit works: observations above the last bound land in +Inf)
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0,
)


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value", "updated_at", "_clock")

    kind = "counter"

    def __init__(self, name: str, labels: Dict[str, str],
                 clock: TimeFn) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.updated_at = 0.0
        self._clock = clock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount
        self.updated_at = self._clock()

    def sample(self) -> Dict[str, Any]:
        return {"value": self.value, "updated_at": self.updated_at}


class ReadCounter:
    """A counter read from its ``sources`` when sampled, never stored.

    ``value`` sums the sources (simulators sharing a registry add up);
    ``updated_at`` is the registry clock at sample time; ``inc`` raises.
    """

    __slots__ = ("name", "labels", "sources", "_registry")

    kind = "counter"

    def __init__(self, name: str, labels: Dict[str, str], clock: TimeFn,
                 registry: "MetricsRegistry") -> None:
        self.name = name
        self.labels = labels
        self.sources: List[Callable[[], float]] = []
        self._registry = registry

    @property
    def value(self) -> float:
        return float(sum(source() for source in self.sources))

    @property
    def updated_at(self) -> float:
        return self._registry.clock()

    def inc(self, amount: float = 1.0) -> None:
        raise ConfigurationError(
            f"counter {self.name!r} is read from its source, not incremented"
        )

    def sample(self) -> Dict[str, Any]:
        return {"value": self.value, "updated_at": self.updated_at}


class Gauge:
    """A value that can go up and down (deadline slack, queue depth)."""

    __slots__ = ("name", "labels", "value", "updated_at", "_clock")

    kind = "gauge"

    def __init__(self, name: str, labels: Dict[str, str],
                 clock: TimeFn) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.updated_at = 0.0
        self._clock = clock

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updated_at = self._clock()

    def add(self, amount: float) -> None:
        self.value += amount
        self.updated_at = self._clock()

    def sample(self) -> Dict[str, Any]:
        return {"value": self.value, "updated_at": self.updated_at}


class Histogram:
    """Bucketed distribution with exact count/sum/min/max.

    Memory is bounded by the bucket count, so per-block observations in
    million-run campaigns stay cheap.
    """

    __slots__ = (
        "name", "labels", "bounds", "bucket_counts", "count", "sum",
        "min", "max", "updated_at", "_clock", "_exemplars",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Dict[str, str],
        clock: TimeFn,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # trailing +Inf
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.updated_at = 0.0
        self._clock = clock
        # bucket index -> (value, trace_id, observed_at); lazily
        # allocated so untraced histograms pay nothing.
        self._exemplars: Optional[Dict[int, Tuple[float, str, float]]] = None

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        value = float(value)
        # first bound >= value, or the trailing +Inf slot -- bisect is
        # the C-speed version of the linear "value <= bound" scan
        index = bisect_left(self.bounds, value)
        self.bucket_counts[index] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.updated_at = self._clock()
        if exemplar is not None:
            # Keep the *slowest* observation per bucket: exemplars
            # exist to answer "which exchange is my p99", so within a
            # bucket the worst case is the interesting trace.
            if self._exemplars is None:
                self._exemplars = {}
            current = self._exemplars.get(index)
            if current is None or value >= current[0]:
                self._exemplars[index] = (value, exemplar, self.updated_at)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the cumulative buckets.

        Linear interpolation inside the containing bucket (the
        Prometheus ``histogram_quantile`` convention), clamped to the
        exact observed ``[min, max]`` so degenerate single-bucket
        distributions stay honest.  Returns 0.0 on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile q must be in [0, 1]")
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bucket in enumerate(self.bucket_counts):
            if not bucket:
                continue
            previous = cumulative
            cumulative += bucket
            if cumulative < rank:
                continue
            if i == len(self.bounds):
                # +Inf bucket: no finite upper bound to interpolate to
                return self.max
            lower = self.bounds[i - 1] if i else 0.0
            upper = self.bounds[i]
            estimate = lower + (upper - lower) * (
                (rank - previous) / bucket
            )
            return min(max(estimate, self.min), self.max)
        return self.max

    def sample(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": {
                ("+Inf" if i == len(self.bounds) else repr(self.bounds[i])):
                    cumulative
                for i, cumulative in enumerate(self._cumulative())
            },
            "updated_at": self.updated_at,
        }

    def _cumulative(self) -> List[int]:
        total = 0
        out = []
        for bucket in self.bucket_counts:
            total += bucket
            out.append(total)
        return out

    # -- exemplars ------------------------------------------------------
    #
    # Exemplars bind a latency observation back to the trace_id of the
    # exchange that produced it (OpenMetrics-style).  They are kept out
    # of sample()/snapshot_flat()/the Prometheus text so every golden
    # artifact stays byte-identical; consumers opt in via exemplars().

    def exemplars(self) -> List[Dict[str, Any]]:
        """Per-bucket exemplars, ascending by bucket bound."""
        if not self._exemplars:
            return []
        out = []
        for index in sorted(self._exemplars):
            value, trace_id, at = self._exemplars[index]
            bound = (
                "+Inf" if index == len(self.bounds)
                else repr(self.bounds[index])
            )
            out.append({
                "bucket": bound,
                "value": value,
                "trace_id": trace_id,
                "observed_at": at,
            })
        return out

    def exemplar_for_quantile(self, q: float) -> Optional[Dict[str, Any]]:
        """The exemplar nearest the bucket containing the q-quantile.

        Answers "show me a p99 exchange": finds the bucket the
        quantile rank lands in, then the closest bucket at-or-above it
        that holds an exemplar (falling back downward), so a sparse
        exemplar set still resolves.  ``None`` when no exemplars exist.
        """
        if not self._exemplars or not self.count:
            return None
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile q must be in [0, 1]")
        rank = q * self.count
        cumulative = 0
        target = len(self.bounds)
        for i, bucket in enumerate(self.bucket_counts):
            cumulative += bucket
            if bucket and cumulative >= rank:
                target = i
                break
        indices = sorted(self._exemplars)
        at_or_above = [i for i in indices if i >= target]
        chosen = at_or_above[0] if at_or_above else indices[-1]
        value, trace_id, at = self._exemplars[chosen]
        bound = (
            "+Inf" if chosen == len(self.bounds)
            else repr(self.bounds[chosen])
        )
        return {
            "bucket": bound,
            "value": value,
            "trace_id": trace_id,
            "observed_at": at,
        }


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    The same ``(name, labels)`` pair always returns the same instrument
    object, so call sites can re-resolve cheaply or cache the handle.
    """

    enabled = True

    def __init__(self, clock: Optional[TimeFn] = None) -> None:
        self.clock: TimeFn = clock if clock is not None else (lambda: 0.0)
        self._instruments: Dict[Tuple[str, Tuple], Any] = {}
        self._help: Dict[str, str] = {}

    # -- instrument factories ------------------------------------------

    def _get(self, cls, name: str, help_text: str,
             labels: Dict[str, str], **kwargs: Any):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, labels, self.clock, **kwargs)
            self._instruments[key] = instrument
            if help_text:
                self._help.setdefault(name, help_text)
        elif not isinstance(instrument, cls):
            raise ConfigurationError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, not {cls.kind}"
            )
        return instrument

    def counter(self, name: str, help_text: str = "",
                **labels: str) -> Counter:
        return self._get(Counter, name, help_text, labels)

    def read_counter(self, name: str, source: Callable[[], float],
                     help_text: str = "", **labels: str) -> ReadCounter:
        """Get-or-create a :class:`ReadCounter` and add ``source`` to it."""
        counter = self._get(ReadCounter, name, help_text, labels,
                            registry=self)
        counter.sources.append(source)
        return counter

    def gauge(self, name: str, help_text: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(
            Histogram, name, help_text, labels, buckets=buckets
        )

    # -- introspection --------------------------------------------------

    def instruments(self) -> List[Any]:
        """All instruments in deterministic (name, labels) order."""
        return [
            self._instruments[key] for key in sorted(self._instruments)
        ]

    def help_for(self, name: str) -> str:
        return self._help.get(name, "")

    def __len__(self) -> int:
        return len(self._instruments)

    # -- exporters ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Nested deterministic snapshot of every instrument."""
        out: Dict[str, Any] = {}
        for instrument in self.instruments():
            entry = {
                "kind": instrument.kind,
                "labels": dict(sorted(instrument.labels.items())),
            }
            entry.update(instrument.sample())
            out[_qualified(instrument)] = entry
        return out

    def snapshot_flat(self) -> Dict[str, float]:
        """Flat ``{name: number}`` projection for run telemetry.

        Counters and gauges export their value; histograms flatten to
        ``<name>.count`` / ``<name>.sum`` so aggregation stays a plain
        numeric fold.
        """
        out: Dict[str, float] = {}
        for instrument in self.instruments():
            name = _qualified(instrument)
            if instrument.kind == "histogram":
                out[f"{name}.count"] = float(instrument.count)
                out[f"{name}.sum"] = instrument.sum
            else:
                out[name] = instrument.value
        return out

    def to_jsonl(self, path: Any) -> int:
        """One JSON object per instrument line; returns the line count."""
        count = 0
        with open(path, "w", encoding="utf-8") as handle:
            for name, entry in sorted(self.snapshot().items()):
                record = {"metric": name}
                record.update(entry)
                handle.write(
                    json.dumps(record, sort_keys=True,
                               separators=(",", ":"))
                )
                handle.write("\n")
                count += 1
        return count


class _NullInstrument:
    """Shared no-op counter/gauge/histogram."""

    __slots__ = ()

    kind = "null"
    name = ""
    labels: Dict[str, str] = {}
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass

    def observe(self, value: float,
                exemplar: Optional[str] = None) -> None:
        pass

    def exemplars(self) -> List[Dict[str, Any]]:
        return []

    def exemplar_for_quantile(self, q: float) -> Optional[Dict[str, Any]]:
        return None

    def sample(self) -> Dict[str, Any]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Disabled registry: hands out shared no-op instruments."""

    enabled = False

    __slots__ = ()

    def counter(self, name, help_text="", **labels):
        return _NULL_INSTRUMENT

    def read_counter(self, name, source, help_text="", **labels):
        return _NULL_INSTRUMENT

    def gauge(self, name, help_text="", **labels):
        return _NULL_INSTRUMENT

    def histogram(self, name, help_text="", buckets=DEFAULT_BUCKETS,
                  **labels):
        return _NULL_INSTRUMENT

    def instruments(self):
        return []

    def snapshot(self):
        return {}

    def snapshot_flat(self):
        return {}

    def to_jsonl(self, path) -> int:
        return 0

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullMetricsRegistry()


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _qualified(instrument: Any) -> str:
    if not instrument.labels:
        return instrument.name
    labels = ",".join(
        f"{k}={v}" for k, v in sorted(instrument.labels.items())
    )
    return f"{instrument.name}{{{labels}}}"


def prom_name(name: str) -> str:
    """Sanitize a dotted metric name into a Prometheus identifier."""
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{prom_name(k)}="{v}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    as_int = int(value)
    if value == as_int:
        return str(as_int)
    return repr(value)


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render every instrument in the Prometheus text format."""
    lines: List[str] = []
    seen_headers = set()
    for instrument in registry.instruments():
        name = prom_name(instrument.name)
        if name not in seen_headers:
            seen_headers.add(name)
            help_text = registry.help_for(instrument.name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            header_kind = (
                "counter" if instrument.kind == "counter"
                else "gauge" if instrument.kind == "gauge"
                else "histogram"
            )
            lines.append(f"# TYPE {name} {header_kind}")
        labels = _prom_labels(instrument.labels)
        if instrument.kind == "histogram":
            cumulative = 0
            for i, bucket in enumerate(instrument.bucket_counts):
                cumulative += bucket
                bound = (
                    "+Inf" if i == len(instrument.bounds)
                    else _fmt(instrument.bounds[i])
                )
                merged = dict(instrument.labels)
                merged["le"] = bound
                lines.append(
                    f"{name}_bucket{_prom_labels(merged)} {cumulative}"
                )
            lines.append(f"{name}_sum{labels} {_fmt(instrument.sum)}")
            lines.append(f"{name}_count{labels} {instrument.count}")
        else:
            lines.append(f"{name}{labels} {_fmt(instrument.value)}")
    return "\n".join(lines) + ("\n" if lines else "")
