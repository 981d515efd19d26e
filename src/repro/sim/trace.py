"""Timeline recording.

Figures 1, 4 and 5 of the paper are *timelines*: requests, measurement
start/end, lock release, infections, detections.  :class:`Trace`
collects timestamped records from every component so the figure
benchmarks can print the same timelines from simulation output.

The device records raw events and readers interpret them: ``record``
appends its four arguments to four parallel columns and builds no
object, and a :class:`TraceRecord` exists only when a reader asks for
one (iteration, ``records``, the queries, ``render``).

A fleet run (:mod:`repro.fleet`) emits thousands of records and reads
back only how many, so it passes a :class:`CountingTrace` instead:
nothing kept but the count.  The CPU, which emits 99% of a fleet run's
records, sees a counting sink when it is attached and bumps its count
in place, with no call and no payload dict per record;
:meth:`CountingTrace.record` serves the other emitters (``mp.*``,
``net.send``, ``ra.*``, ``malware.*``, ``erasmus.collect``).  :class:`Trace`
still offers a bounded ring-buffer mode (``max_records``) and a JSONL
export hook (:meth:`Trace.to_jsonl`) for shipping timelines into
files.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
)


def _jsonable(value: Any) -> Any:
    """Coerce a trace payload value into something JSON can hold."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return str(value)


def _row(
    time: float, kind: str, source: str, data: Dict[str, Any]
) -> Dict[str, Any]:
    """The JSON object of one record (``TraceRecord.to_dict``)."""
    return {
        "time": time,
        "kind": kind,
        "source": source,
        "data": {k: _jsonable(v) for k, v in sorted(data.items())},
    }


@dataclass(slots=True)
class TraceRecord:
    """One timeline event, as a reader of a :class:`Trace` sees it.

    Built from the trace's columns on each read, so two reads give
    equal but distinct objects.  Treated as immutable by convention;
    ``slots`` (rather than ``frozen``) keeps the per-read construction
    cheap.
    """

    time: float
    kind: str
    source: str
    data: Dict[str, Any]

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in sorted(self.data.items()))
        text = f"[{self.time:12.6f}] {self.kind:<12} {self.source}"
        return f"{text} {extra}" if extra else text

    def to_dict(self) -> Dict[str, Any]:
        return _row(self.time, self.kind, self.source, self.data)


class CountingTrace:
    """A trace sink that keeps no record, only how many were emitted.

    ``record`` takes the arguments :meth:`Trace.record` takes, so any
    component can write to either.  The
    :class:`~repro.sim.process.CPU` does not call it: attached as
    ``cpu.trace``, a counting sink (this exact type) is tallied in
    place, one ``emitted += 1`` per record, so ``record`` serves only
    the rare emitters outside the CPU.  :meth:`ring_counts` gives the
    ``(len, dropped)`` a :class:`Trace` ring fed the same records would
    report, without keeping the ring.
    """

    __slots__ = ("emitted",)

    def __init__(self) -> None:
        self.emitted = 0

    def record(self, time: float, kind: str, source: str, **data: Any) -> None:
        self.emitted += 1

    def ring_counts(self, max_records: int) -> Tuple[int, int]:
        """``(len(ring), ring.dropped)`` of ``Trace(max_records)``."""
        emitted = self.emitted
        return min(emitted, max_records), max(0, emitted - max_records)


class Trace:
    """Timestamped event storage with :class:`TraceRecord` queries.

    Unbounded (append-only lists) by default; pass ``max_records`` to
    keep only the newest records in a ring buffer -- older records are
    silently discarded and counted in ``dropped``, so
    ``len(trace) + trace.dropped`` is the number of records emitted.
    """

    def __init__(self, max_records: Optional[int] = None) -> None:
        if max_records is not None and max_records <= 0:
            raise ValueError("max_records must be positive (or None)")
        #: the ring cap, or -1 (a length a list never has) when unbounded
        self._cap = -1 if max_records is None else max_records
        self._times, self._kinds, self._sources, self._data = (
            [] if max_records is None else deque(maxlen=max_records)
            for _ in range(4)
        )
        self.dropped = 0

    @property
    def max_records(self) -> Optional[int]:
        return None if self._cap < 0 else self._cap

    def record(self, time: float, kind: str, source: str, **data: Any) -> None:
        # one length test and four appends per record: the CPU alone
        # calls this about 170k times per canned ``qoa`` campaign pass
        times = self._times
        if len(times) == self._cap:
            self.dropped += 1
        times.append(time)
        self._kinds.append(kind)
        self._sources.append(source)
        self._data.append(data)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(
            TraceRecord, self._times, self._kinds, self._sources, self._data
        )

    @property
    def records(self) -> List[TraceRecord]:
        """The retained records, oldest first, built on each read."""
        return list(self)

    # -- queries --------------------------------------------------------

    def filter(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> List[TraceRecord]:
        """Records matching all provided criteria, in time order."""
        out = []
        for rec in self:
            if kind is not None and rec.kind != kind:
                continue
            if source is not None and rec.source != source:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def first(self, kind: str, source: Optional[str] = None) -> Optional[TraceRecord]:
        matches = self.filter(kind=kind, source=source)
        return matches[0] if matches else None

    def last(self, kind: str, source: Optional[str] = None) -> Optional[TraceRecord]:
        matches = self.filter(kind=kind, source=source)
        return matches[-1] if matches else None

    def between(self, t_start: float, t_end: float) -> List[TraceRecord]:
        return [r for r in self if t_start <= r.time <= t_end]

    def kinds(self) -> List[str]:
        """Distinct record kinds, in first-appearance order."""
        return list(dict.fromkeys(self._kinds))

    # -- rendering / export ---------------------------------------------

    def render(
        self, kinds: Optional[Iterable[str]] = None, limit: Optional[int] = None
    ) -> str:
        """Human-readable multi-line timeline (used by figure benches)."""
        wanted = set(kinds) if kinds is not None else None
        lines = [
            str(rec)
            for rec in self
            if wanted is None or rec.kind in wanted
        ]
        if limit is not None:
            lines = lines[:limit]
        return "\n".join(lines)

    def to_jsonl(self, path: Any) -> int:
        """Write every retained record to ``path`` as one JSON object
        per line, closed by a ``trace.meta`` line carrying the counts
        -- in ring-buffer mode the *oldest* records are silently
        discarded, so without the meta line a reader cannot tell a
        complete export from a truncated one.  Returns the number of
        data records written (the meta line is not counted).

        Each line is built straight from the columns (no
        :class:`TraceRecord`), and the export is serialized in memory
        and flushed with a single buffered ``write``: per-record
        ``write`` calls dominated export time for fleet-scale traces,
        and one join yields the identical bytes."""
        dumps = json.JSONEncoder(
            sort_keys=True, separators=(",", ":")
        ).encode
        lines = list(map(dumps, map(
            _row, self._times, self._kinds, self._sources, self._data
        )))
        count = len(lines)
        meta = {
            "kind": "trace.meta",
            "records": count,
            "dropped": self.dropped,
            "max_records": self.max_records,
        }
        lines.append(dumps(meta))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return count
