"""Causal exchange reports: per-trace timelines and exemplar tables.

One attestation exchange -- an on-demand round trip, an ERASMUS
collection, a SeED push, or a served-verifier submission -- is stitched
together by the :class:`~repro.obs.tracectx.TraceContext` minted at its
initiation and propagated out-of-band on every message.  Each span a
participant records carries the exchange's ``trace_id`` in its args;
this module is the read side, turning a raw span capture into:

* :func:`exchange_records` -- one row per *completed* exchange (the
  terminal span names in :data:`EXCHANGE_SPAN_NAMES`), with latency
  and trace id, the feed for the cross-shard
  :class:`~repro.fleet.telemetry.ExchangeSketch` reducer;
* :func:`causal_timeline` -- the canonical JSONL projection of every
  traced span, sorted by (trace, time, name) with span ids stripped,
  so serial and batched executions of the same scenario produce
  byte-identical timelines (the golden-diffed artifact);
* :func:`exemplar_table` -- every histogram's latency->trace_id
  exemplars, resolving "which exchange is my p99" to a concrete trace.

Nothing here imports :mod:`repro.fleet`; the fleet executor composes
these primitives into ``RunResult.trace_summary``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

#: terminal span names -- the one span per exchange whose duration IS
#: the exchange latency and whose args carry the verdict
EXCHANGE_SPAN_NAMES = (
    "ra.round_trip",
    "erasmus.collection",
    "seed.push",
    "vserver.exchange",
)


def _canon(value: Any) -> Any:
    """Canonical JSON-safe projection of a span arg."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, (str, int)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    return str(value)


def exchange_records(spans: Iterable[Any]) -> List[Dict[str, Any]]:
    """One row per completed exchange, ordered by (start, trace, name).

    Only finished terminal spans count: an exchange still in flight at
    the horizon has no latency to report (it shows up in the timeline,
    not in the sketch).
    """
    rows: List[Dict[str, Any]] = []
    for span in spans:
        if span.name not in EXCHANGE_SPAN_NAMES:
            continue
        trace_id = span.args.get("trace_id")
        if not trace_id or span.end is None:
            continue
        rows.append({
            "trace_id": trace_id,
            "name": span.name,
            "device": str(span.args.get("device", "")),
            "verdict": str(span.args.get("verdict", "")),
            "start": span.start,
            "end": span.end,
            "latency": span.end - span.start,
        })
    rows.sort(key=lambda r: (r["start"], r["trace_id"], r["name"]))
    return rows


def causal_timeline(
    spans: Iterable[Any], trace_id: Optional[str] = None
) -> List[str]:
    """Canonical JSONL lines for every traced span.

    Span ids and parent links are deliberately dropped: they encode
    *recording order*, which differs between serial and batched drains
    of the same logical schedule.  What remains -- trace, name,
    category, interval, args -- is the causal content, so two
    executions that are causally identical diff empty.
    """
    rows = []
    for span in spans:
        tid = span.args.get("trace_id")
        if not tid or (trace_id is not None and tid != trace_id):
            continue
        args = {
            key: _canon(value)
            for key, value in sorted(span.args.items())
            if key != "trace_id"
        }
        rows.append({
            "trace": tid,
            "name": span.name,
            "category": span.category,
            "start": round(span.start, 9),
            "end": round(span.end, 9) if span.end is not None else None,
            "args": args,
        })
    rows.sort(key=lambda r: (
        r["trace"],
        r["start"],
        r["end"] is None,
        r["end"] if r["end"] is not None else 0.0,
        r["name"],
    ))
    return [
        json.dumps(row, sort_keys=True, separators=(",", ":"))
        for row in rows
    ]


def exemplar_table(metrics: Any) -> Dict[str, List[Dict[str, Any]]]:
    """``{histogram name: exemplars}`` for every exemplar-bearing
    histogram in a registry (empty histograms are omitted)."""
    out: Dict[str, List[Dict[str, Any]]] = {}
    for instrument in metrics.instruments():
        if getattr(instrument, "kind", "") != "histogram":
            continue
        exemplars = instrument.exemplars()
        if exemplars:
            name = instrument.name
            if instrument.labels:
                labels = ",".join(
                    f"{k}={v}"
                    for k, v in sorted(instrument.labels.items())
                )
                name = f"{name}{{{labels}}}"
            out[name] = exemplars
    return out


def resolve_quantile(
    metrics: Any, name: str, q: float = 0.99
) -> Optional[Dict[str, Any]]:
    """Resolve histogram ``name``'s q-quantile to an exemplar (the
    first labeled variant wins when the base name is ambiguous)."""
    for instrument in metrics.instruments():
        if getattr(instrument, "kind", "") != "histogram":
            continue
        if instrument.name != name:
            continue
        exemplar = instrument.exemplar_for_quantile(q)
        if exemplar is not None:
            return exemplar
    return None
