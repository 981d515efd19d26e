"""Temporal consistency of measurements (Figure 4, after [5]).

A measurement is *consistent with M at time t* if the contents MP
digested are exactly M's contents at instant t.  Figure 4's point:
a write at A (before t_s) or D (after t_r) never matters; whether a
write at B or C (inside the measurement) breaks consistency depends on
the mechanism.

The memory's write log is the one source of content identity: each
committed write carries the block's contents after it.  MP records,
per block, only the log's length when it read the block (its *mark*).
The contents MP digested are the block after the writes logged before
the mark, so the mark, not the read time, places a write that lands
at the very instant of a read; M's contents at instant t are the
block after the writes logged at or before t.  The analyzer indexes
each write's log position once, per block, and answers each query
with one bisection.  From that it derives:

* :meth:`ConsistencyAnalyzer.consistent_at` -- is the measurement
  consistent with M at t?
* :meth:`consistent_instants` -- which of a set of probe times are
  consistent;
* :meth:`consistency_window` -- the maximal set of instants around the
  measurement where consistency holds, probed at write-event
  boundaries (between two consecutive writes, consistency cannot
  change, so probing the midpoints of the write-partitioned timeline
  is exact).
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.ra.report import MeasurementRecord
from repro.sim.memory import Memory


class ConsistencyVerdict(enum.Enum):
    """Classification of one measurement's consistency guarantee."""

    INTERVAL = "interval"  # consistent over a closed interval
    INSTANT = "instant"  # consistent at isolated instant(s)
    NONE = "none"  # consistent with no full-memory state


@dataclass(frozen=True)
class ConsistencyProfile:
    """The result of probing a measurement's consistency over time."""

    verdict: ConsistencyVerdict
    consistent_times: Tuple[float, ...]
    probed_times: Tuple[float, ...]

    @property
    def any_consistent(self) -> bool:
        return bool(self.consistent_times)


class ConsistencyAnalyzer:
    """Answers "was this measurement consistent with M at time t?"."""

    def __init__(self, memory: Memory) -> None:
        self.memory = memory
        self._benign = memory.benign_image()
        #: per block: the log positions of its writes, in log order;
        #: extended from ``_indexed`` on when the log has grown
        self._writes: List[List[int]] = [
            [] for _ in range(memory.block_count)
        ]
        self._indexed = 0

    # -- content reconstruction -------------------------------------------

    def _block_writes(self, block_index: int) -> List[int]:
        """Log positions of ``block_index``'s writes, after indexing,
        once, each write the log gained since the last call."""
        blocks = self.memory.write_blocks
        for position in range(self._indexed, len(blocks)):
            self._writes[blocks[position]].append(position)
        self._indexed = len(blocks)
        return self._writes[block_index]

    def _content_after(
        self, block_index: int, writes: List[int], count: int
    ) -> bytes:
        """The block after the first ``count`` of its ``writes`` (its
        benign fill after none)."""
        if count == 0:
            return self._benign[block_index]
        return self.memory.write_contents[writes[count - 1]]

    def content_at(self, block_index: int, time: float) -> bytes:
        """Contents of ``block_index`` at instant ``time``.

        The last committed write at or before ``time`` determines the
        content; with no prior write the block still holds its benign
        fill.  Log times are simulation times and never decrease, so
        one bisection over the block's writes finds that write.
        (Assumes memory was not re-flashed via ``load_image`` mid-run,
        which bypasses the log.)
        """
        writes = self._block_writes(block_index)
        count = bisect_right(
            writes, time, key=self.memory.write_times.__getitem__
        )
        return self._content_after(block_index, writes, count)

    def measured_content(
        self, record: MeasurementRecord, block_index: int
    ) -> bytes:
        """The contents MP read (and digested) from ``block_index``:
        the block after the writes logged before the record's mark."""
        writes = self._block_writes(block_index)
        count = bisect_left(writes, record.audit_block_marks[block_index])
        return self._content_after(block_index, writes, count)

    # -- consistency checks ---------------------------------------------------

    def consistent_at(self, record: MeasurementRecord, time: float) -> bool:
        """True iff every measured block's digested content equals its
        content at instant ``time``."""
        if not record.audit_block_marks:
            raise ConfigurationError("record carries no audit data")
        for block_index, mark in enumerate(record.audit_block_marks):
            if mark >= 0 and self.measured_content(
                record, block_index
            ) != self.content_at(block_index, time):
                return False
        return True

    def consistent_instants(
        self, record: MeasurementRecord, probe_times: Sequence[float]
    ) -> List[float]:
        return [
            t for t in probe_times if self.consistent_at(record, t)
        ]

    def probe_times(
        self, record: MeasurementRecord, margin: float = 1e-6
    ) -> List[float]:
        """Exact probe set: one instant per write-free segment of the
        timeline around the measurement (plus t_s, t_e and t_r).

        Consistency is constant between consecutive writes, so probing
        one point per segment fully characterizes the window.
        """
        horizon_start = record.t_start - margin
        horizon_end = (
            record.t_release if record.t_release is not None else record.t_end
        ) + margin
        cuts = sorted(
            {
                time
                for time in self.memory.write_times
                if horizon_start <= time <= horizon_end
            }
            | {record.t_start, record.t_end, horizon_start, horizon_end}
        )
        probes = list(cuts)
        for left, right in zip(cuts, cuts[1:]):
            probes.append((left + right) / 2.0)
        return sorted(probes)

    def profile(self, record: MeasurementRecord) -> ConsistencyProfile:
        """Probe consistency across the measurement window."""
        probes = self.probe_times(record)
        consistent = tuple(self.consistent_instants(record, probes))
        if not consistent:
            verdict = ConsistencyVerdict.NONE
        elif len(consistent) >= 3:
            verdict = ConsistencyVerdict.INTERVAL
        else:
            verdict = ConsistencyVerdict.INSTANT
        return ConsistencyProfile(
            verdict=verdict,
            consistent_times=consistent,
            probed_times=tuple(probes),
        )


def expected_consistency(policy_name: str) -> str:
    """The paper's claimed guarantee per mechanism (Section 3.1)."""
    claims = {
        "no-lock": "none",
        "all-lock": "interval [t_s, t_e]",
        "all-lock-ext": "interval [t_s, t_r]",
        "dec-lock": "instant t_s",
        "inc-lock": "instant t_e",
        "inc-lock-ext": "interval [t_e, t_r]",
        "smart": "interval [t_s, t_e] (coincidental, via atomicity)",
        "smarm": "none",
        "erasmus": "interval [t_s, t_e] (atomic self-measurements)",
        "seed": "interval [t_s, t_e] (atomic triggered measurements)",
        "tytan": "per-process only (cross-process moves invisible)",
    }
    claim = claims.get(policy_name)
    if claim is None:
        raise ConfigurationError(f"no consistency claim for {policy_name!r}")
    return claim
