"""The artifacts computed from models and games alone.

Figure 2 and the Section 2.4 anchors come from the calibrated timing
model, Figure 3 is the solution taxonomy as data, and Section 3.2 plays
the abstract SMARM escape game; none of them builds a device, so
``repro fig2``, ``fig3`` and ``smarm`` never load the simulator.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.fig2_model import (
    anchor_report,
    crossover_table,
    render_series,
    sweep_series,
)
from repro.analysis.smarm_math import (
    multi_round_escape,
    rounds_for_confidence,
    single_round_escape,
    single_round_escape_limit,
)
from repro.core.solution import render_taxonomy, solution_table
from repro.crypto.timing import figure2_sizes
from repro.ra.smarm import escape_probability
from repro.units import MiB, format_time


# ---------------------------------------------------------------------------
# FIG2 / SEC24 -- timing curves and anchors
# ---------------------------------------------------------------------------


@dataclass
class Fig2Result:
    series: Dict[str, List[Tuple[int, float]]]
    anchors: list
    crossovers: Dict[Tuple[str, str], float]

    def render(self) -> str:
        lines = [render_series(self.series), "", "In-text anchors:"]
        for anchor in self.anchors:
            status = "OK " if anchor.holds else "OFF"
            lines.append(
                f"  [{status}] {anchor.description}: model says "
                f"{format_time(anchor.observed)} "
                f"(paper ~{format_time(anchor.expected)})"
            )
        lines.append("")
        lines.append("hash-vs-signature crossover sizes (sha256):")
        for (hash_name, signature), size in sorted(self.crossovers.items()):
            if hash_name != "sha256":
                continue
            lines.append(
                f"  {signature:>9}: hashing overtakes signing at "
                f"{size / MiB:8.3f} MiB"
            )
        return "\n".join(lines)


def fig2_report(points_per_decade: int = 1) -> Fig2Result:
    """Reproduce Figure 2 from the calibrated timing model."""
    sizes = figure2_sizes(points_per_decade)
    return Fig2Result(
        series=sweep_series(sizes=sizes),
        anchors=anchor_report(),
        crossovers=crossover_table(),
    )


def sec24_anchors() -> list:
    """Just the Section 2.4 anchor checks."""
    return anchor_report()


# ---------------------------------------------------------------------------
# FIG3 -- taxonomy
# ---------------------------------------------------------------------------


@dataclass
class Fig3Result:
    tree: str
    table: str

    def render(self) -> str:
        return self.tree + "\n\n" + self.table


def fig3_overview() -> Fig3Result:
    return Fig3Result(tree=render_taxonomy(), table=solution_table())


# ---------------------------------------------------------------------------
# SEC32 -- SMARM escape probabilities
# ---------------------------------------------------------------------------


@dataclass
class Sec32Result:
    n_blocks: int
    mc_single: float
    exact_single: float
    limit: float
    rounds_table: List[Tuple[int, float]]
    rounds_needed: int

    def render(self) -> str:
        lines = [
            f"single-round escape, n={self.n_blocks}: "
            f"Monte-Carlo {self.mc_single:.4f}, "
            f"exact ((n-1)/n)^n = {self.exact_single:.4f}, "
            f"limit e^-1 = {self.limit:.4f}",
            "",
            f"{'rounds':>7} {'P(escape all)':>15}",
        ]
        for rounds, escape in self.rounds_table:
            lines.append(f"{rounds:>7} {escape:>15.3e}")
        lines.append(
            f"\nrounds needed for escape < 1e-6: {self.rounds_needed} "
            "(the paper: 'after 13 checks that probability is below "
            "10^-6')"
        )
        return "\n".join(lines)


def sec32_smarm(n_blocks: int = 64, trials: int = 4000) -> Sec32Result:
    mc = escape_probability(n_blocks, trials=trials)
    rounds_table = [
        (rounds, multi_round_escape(n_blocks, rounds))
        for rounds in (1, 2, 3, 5, 8, 13, 14)
    ]
    return Sec32Result(
        n_blocks=n_blocks,
        mc_single=mc,
        exact_single=single_round_escape(n_blocks),
        limit=single_round_escape_limit(),
        rounds_table=rounds_table,
        rounds_needed=rounds_for_confidence(n_blocks),
    )


# ---------------------------------------------------------------------------
# the ``repro`` commands (arguments in repro.experiments.ARTIFACTS)
# ---------------------------------------------------------------------------


def run_fig2(args: argparse.Namespace) -> str:
    return fig2_report(points_per_decade=args.points).render()


def run_fig3(args: argparse.Namespace) -> str:
    return fig3_overview().render()


def run_smarm(args: argparse.Namespace) -> str:
    return sec32_smarm(n_blocks=args.blocks, trials=args.trials).render()
