"""Closed-form models the simulations are checked against.

* :mod:`repro.analysis.smarm_math` -- SMARM escape probabilities;
* :mod:`repro.analysis.qoa_math` -- transient-malware detection vs
  (T_M, dwell) and detection-latency distributions;
* :mod:`repro.analysis.locking_math` -- expected write-block delays
  under each locking policy;
* :mod:`repro.analysis.fig2_model` -- Figure 2 curve properties
  (crossovers, anchor points, log-log slopes).
"""

from repro import export_lazily

__all__ = export_lazily(globals(), {
    "repro.analysis.smarm_math": (
        "single_round_escape", "single_round_escape_limit",
        "rounds_for_confidence", "multi_round_escape",
    ),
    "repro.analysis.qoa_math": (
        "detection_probability", "expected_detection_latency",
        "worst_detection_latency",
    ),
    "repro.analysis.locking_math": ("expected_block_delay", "lock_exposure"),
    "repro.analysis.fig2_model": (
        "crossover_table", "anchor_report", "sweep_series",
    ),
})
