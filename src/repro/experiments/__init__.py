"""Experiment drivers: one function per paper artifact.

Both the CLI (``python -m repro``) and the paper-claim tests call these;
each returns a small result object with the raw numbers plus a
``render()`` producing the same rows/series the paper reports.

Index (see DESIGN.md section 3):

========  ==========================================================
FIG1      :func:`fig1_timeline` -- on-demand RA timeline
FIG2      :func:`fig2_report` -- hash/signature timing curves
FIG3      :func:`fig3_overview` -- solution taxonomy
FIG4      :func:`fig4_consistency` -- consistency vs locking policy
FIG5      :func:`fig5_qoa` -- self-measurement QoA timeline
TAB1      :func:`table1` -- the feature matrix, empirically
SEC24     :func:`sec24_anchors` -- in-text timing numbers
SEC25     :func:`sec25_firealarm` -- fire-alarm latency per mechanism
SEC32     :func:`sec32_smarm` -- SMARM escape probabilities
FLEET     :func:`fleet_qoa` -- Figure 5's QoA sweep at fleet scale
========  ==========================================================

The drivers live in :mod:`repro.experiments.analytic` (models and
games, no simulator), :mod:`repro.experiments.simulated` and
:mod:`repro.experiments.extensions` (the commands beyond the paper),
and are exported here on first use.  :data:`ARTIFACTS`
(:mod:`repro.experiments.artifacts`) declares every command's arguments
as data, so building the ``repro`` parser imports none of them; a
command imports its module when it runs.
"""

from repro import export_lazily

__all__ = export_lazily(globals(), {
    "repro.experiments.artifacts": ("Artifact", "ARTIFACTS"),
    "repro.experiments.analytic": (
        "Fig2Result", "fig2_report", "sec24_anchors", "Fig3Result",
        "fig3_overview", "Sec32Result", "sec32_smarm",
    ),
    "repro.experiments.simulated": (
        "Fig1Result", "fig1_timeline", "Fig4Case", "Fig4Result",
        "fig4_consistency", "Fig5Result", "fig5_qoa", "Table1Result",
        "table1", "Sec25Row", "Sec25Result", "sec25_firealarm",
        "FleetQoAResult", "fleet_qoa",
    ),
})
