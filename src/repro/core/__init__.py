"""The paper's contribution layer: reconciling RA with safety-critical
operation.

* :mod:`repro.core.solution` -- the solution landscape as data:
  Table 1's feature matrix and Figure 3's taxonomy;
* :mod:`repro.core.consistency` -- temporal-consistency semantics of
  Figure 4, checked from write logs and measurement audit records;
* :mod:`repro.core.qoa` -- Quality of Attestation (T_M, T_C,
  freshness), Figure 5;
* :mod:`repro.core.scheduler_policy` -- context-aware self-measurement
  scheduling (Section 3.3's compromises);
* :mod:`repro.core.tradeoff` -- the cross-mechanism evaluation harness
  that regenerates Table 1 empirically.
"""

from repro.core.solution import (
    Feature,
    Solution,
    SOLUTIONS,
    solution_table,
    taxonomy_tree,
)
from repro.core.consistency import ConsistencyAnalyzer, ConsistencyVerdict
from repro.core.qoa import QoAParameters, QoATimeline, InfectionEvent
from repro.core.scheduler_policy import (
    FixedSchedule,
    ContextAwareSchedule,
    SlackSchedule,
)
from repro.core.tradeoff import EvaluationMatrix, evaluate_all

__all__ = [
    "Feature",
    "Solution",
    "SOLUTIONS",
    "solution_table",
    "taxonomy_tree",
    "ConsistencyAnalyzer",
    "ConsistencyVerdict",
    "QoAParameters",
    "QoATimeline",
    "InfectionEvent",
    "FixedSchedule",
    "ContextAwareSchedule",
    "SlackSchedule",
    "EvaluationMatrix",
    "evaluate_all",
]
