"""The paper's contribution layer: reconciling RA with safety-critical
operation.

* :mod:`repro.core.solution` -- the solution landscape as data:
  Table 1's feature matrix and Figure 3's taxonomy;
* :mod:`repro.core.consistency` -- temporal-consistency semantics of
  Figure 4, checked from the write log and the log marks each
  measurement records;
* :mod:`repro.core.qoa` -- Quality of Attestation (T_M, T_C,
  freshness), Figure 5;
* :mod:`repro.core.scheduler_policy` -- context-aware self-measurement
  scheduling (Section 3.3's compromises);
* :mod:`repro.core.tradeoff` -- the cross-mechanism evaluation harness
  that regenerates Table 1 empirically.
"""

from repro import export_lazily

__all__ = export_lazily(globals(), {
    "repro.core.solution": (
        "Feature", "Solution", "SOLUTIONS", "solution_table", "taxonomy_tree",
    ),
    "repro.core.consistency": ("ConsistencyAnalyzer", "ConsistencyVerdict"),
    "repro.core.qoa": ("QoAParameters", "QoATimeline", "InfectionEvent"),
    "repro.core.scheduler_policy": (
        "FixedSchedule", "ContextAwareSchedule", "SlackSchedule",
    ),
    "repro.core.tradeoff": ("EvaluationMatrix", "evaluate_all"),
})
