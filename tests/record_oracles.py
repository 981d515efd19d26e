"""Oracles for the record path: a trace ring and the write log as records.

The device keeps every trace record (:class:`~repro.sim.trace.Trace`)
or only counts them (:class:`~repro.sim.trace.CountingTrace`), and a
memory logs each committed write into four raw columns.  The tests
compare those against what the record path used to keep:

* :class:`RingTrace` keeps only the newest ``max_records`` records and
  counts the rest in ``dropped`` -- the ring a fleet run's
  ``(trace_events, trace_dropped)`` describes, and the one
  ``CountingTrace.ring_counts`` must agree with;
* :func:`write_log` and :func:`writes_in` build one :class:`WriteRecord`
  per committed write from a memory's columns;
* :func:`content_fingerprint` is the truncated SHA-256 the record pins
  were captured with.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.sim.memory import Memory
from repro.sim.trace import Trace


def content_fingerprint(content: bytes) -> bytes:
    """Truncated SHA-256 of one block's contents (8 bytes)."""
    return hashlib.sha256(content).digest()[:8]


class RingTrace(Trace):
    """A :class:`Trace` that keeps only the newest ``max_records``
    records (all of them for ``None``); ``len(trace) + trace.dropped``
    is the number of records emitted."""

    def __init__(self, max_records: Optional[int] = None) -> None:
        if max_records is not None and max_records <= 0:
            raise ValueError("max_records must be positive (or None)")
        super().__init__()
        self._cap = max_records
        self._times, self._kinds, self._sources, self._data = (
            deque(maxlen=max_records) for _ in range(4)
        )
        self.dropped = 0

    @property
    def max_records(self) -> Optional[int]:
        return self._cap

    def record(self, time: float, kind: str, source: str, **data: Any) -> None:
        if len(self._times) == self._cap:
            self.dropped += 1
        super().record(time, kind, source, **data)


@dataclass(slots=True)
class WriteRecord:
    """One committed write: ``content`` is the block's frozen ``bytes``
    after it, and ``fingerprint`` is derived from it on read."""

    time: float
    block: int
    actor: str
    content: bytes

    @property
    def fingerprint(self) -> bytes:
        return content_fingerprint(self.content)


def write_log(memory: Memory) -> List[WriteRecord]:
    """Every committed write of ``memory``, oldest first."""
    return list(map(
        WriteRecord, memory.write_times, memory.write_blocks,
        memory.write_actors, memory.write_contents,
    ))


def writes_in(memory: Memory, t_start: float,
              t_end: float) -> List[WriteRecord]:
    """The committed writes with ``t_start <= time <= t_end``."""
    return [rec for rec in write_log(memory) if t_start <= rec.time <= t_end]
