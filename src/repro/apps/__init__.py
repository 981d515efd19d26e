"""Safety-critical application models.

* :mod:`repro.apps.firealarm` -- the Section 2.5 scenario: a bare-metal
  sensor/actuator fire alarm whose reaction latency is destroyed by
  atomic attestation;
* :mod:`repro.apps.workloads` -- generic periodic control workloads
  (compute-only and memory-writing tasks) used by the locking
  availability benchmarks;
* :mod:`repro.apps.metrics` -- availability metric aggregation.
"""

from repro import export_lazily

__all__ = export_lazily(globals(), {
    "repro.apps.firealarm": ("FireAlarmApp", "FireAlarmOutcome"),
    "repro.apps.workloads": (
        "make_compute_task", "make_writer_task", "WriterWorkload",
    ),
    "repro.apps.metrics": ("AvailabilityReport", "summarize_tasks"),
})
