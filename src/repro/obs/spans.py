"""Nested sim-time spans: the interval layer over the flat trace.

The paper's figures are all *intervals*: a measurement window [t_s,
t_e], a lock-hold window [t_s, t_r], a verifier round trip, an
infection lifetime.  :class:`SpanTracker` records such intervals as
first-class objects with ids and parent links, so any simulation can
be folded into a hierarchy (attestation round > measurement > block)
and exported to a trace viewer (:mod:`repro.obs.chrome`).

Two recording styles, matching how the intervals arise in the code:

* ``begin_span`` / ``end_span`` -- stack-nested, for intervals opened
  and closed in the same process body (a measurement run, a request
  dispatch).  The static analyzer's ``obs-span-leak`` rule checks that
  a function body balances these calls, counting a call to a helper
  that returns an open span as a begin.
* ``add_span`` -- retrospective, for intervals whose endpoints live in
  different callbacks (a network delivery, a lock released by a timer,
  fire-to-alarm latency).  The start time is carried by the caller.

All times are *simulation* seconds; the tracker never reads a wall
clock, so span sets are deterministic and diffable across runs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

#: signature of the sim-time source bound by the simulator
TimeFn = Callable[[], float]


class Span:
    """One named interval in simulation time."""

    __slots__ = (
        "span_id", "parent_id", "name", "category", "start", "end", "args",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        category: str,
        start: float,
        end: Optional[float] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start = start
        self.end = end
        self.args = args or {}

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span length in sim seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "args": dict(sorted(self.args.items())),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tail = f"end={self.end:.6f}" if self.end is not None else "open"
        return (
            f"<Span #{self.span_id} {self.name!r} "
            f"start={self.start:.6f} {tail}>"
        )


class SpanTracker:
    """Records :class:`Span` objects with stack-based parent links.

    ``clock`` supplies the current simulation time; the simulator binds
    it at construction (see :meth:`repro.obs.core.Observability.bind`).
    """

    enabled = True

    def __init__(self, clock: Optional[TimeFn] = None) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1
        self.clock: TimeFn = clock if clock is not None else (lambda: 0.0)

    # -- recording ------------------------------------------------------

    def begin_span(self, name: str, category: str = "", **args: Any) -> Span:
        """Open a span at the current sim time, nested under the
        innermost still-open span."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            self._next_id, parent, name, category, self.clock(), None, args
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end_span(self, span: Span, **args: Any) -> Span:
        """Close ``span`` at the current sim time.  Out-of-order ends
        are tolerated (extended lock releases outlive the measurement
        that took them); idempotent on an already-closed span."""
        if span.end is None:
            span.end = self.clock()
        if args:
            span.args.update(args)
        try:
            self._stack.remove(span)
        except ValueError:
            pass
        return span

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        category: str = "",
        parent: Optional[Span] = None,
        **args: Any,
    ) -> Span:
        """Record a completed interval retrospectively (endpoints were
        observed in different callbacks)."""
        parent_id = parent.span_id if parent is not None else None
        span = Span(
            self._next_id, parent_id, name, category, start, end, args
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    # -- queries --------------------------------------------------------

    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended, outermost first."""
        return list(self._stack)

    def find(
        self, name: Optional[str] = None, category: Optional[str] = None
    ) -> List[Span]:
        """All recorded spans matching the given name/category."""
        return [
            span
            for span in self.spans
            if (name is None or span.name == name)
            and (category is None or span.category == category)
        ]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans)


class NullSpanTracker:
    """The zero-cost disabled tracker: every call is a no-op.

    A single shared dummy span is handed back so instrumented code can
    unconditionally ``end_span`` what it began.
    """

    enabled = False

    __slots__ = ()

    _NULL_SPAN = Span(0, None, "", "", 0.0, 0.0)

    def begin_span(self, name: str, category: str = "", **args: Any) -> Span:
        return self._NULL_SPAN

    def end_span(self, span: Span, **args: Any) -> Span:
        return span

    def add_span(self, name, start, end, category="", parent=None,
                 **args: Any) -> Span:
        return self._NULL_SPAN

    def open_spans(self) -> List[Span]:
        return []

    def find(self, name=None, category=None) -> List[Span]:
        return []

    def children_of(self, span: Span) -> List[Span]:
        return []

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())


#: the shared disabled tracker
NULL_TRACKER = NullSpanTracker()
