"""Observability: spans, sim-time metrics, event-loop profiling.

See :mod:`repro.obs.core` for the façade and docs/observability.md for
the span model and exporter formats.
"""

from repro import export_lazily

__all__ = export_lazily(globals(), {
    "repro.obs.chrome": ("chrome_trace_events", "write_chrome_trace"),
    "repro.obs.core": ("NULL_OBS", "NullObservability", "Observability"),
    "repro.obs.metrics": (
        "DEFAULT_BUCKETS", "NULL_REGISTRY", "Counter", "Gauge", "Histogram",
        "MetricsRegistry", "NullMetricsRegistry", "to_prometheus_text",
    ),
    "repro.obs.profiler": (
        "NULL_PROFILER", "EventLoopProfiler", "NullProfiler", "SiteStats",
        "callback_site",
    ),
    "repro.obs.slo": (
        "SLO_PRESETS", "SLOEngine", "SLObjective", "parse_objectives",
    ),
    "repro.obs.spans": (
        "NULL_TRACKER", "NullSpanTracker", "Span", "SpanTracker",
    ),
    "repro.obs.tracectx": ("TraceContext", "mint_trace_id"),
})
