"""The paper artifacts as ``repro`` subcommands, declared as data.

Each :class:`Artifact` names its arguments and the ``"module:function"``
that runs it, so :mod:`repro.cli` builds its parser from this table
without importing any experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple


@dataclass(frozen=True)
class Artifact:
    """One paper artifact as a ``repro`` subcommand.

    ``arguments`` are ``(flag, add_argument keywords)`` pairs, so each
    CLI default lives here and nowhere else; ``run`` names the
    ``"module:function"`` that takes the parsed namespace and returns
    the text the command prints, imported only when the command runs.
    """

    name: str
    help: str
    #: the ``repro all`` section title; ``None`` keeps it out of ``all``
    title: Optional[str]
    arguments: Tuple[Tuple[str, Dict[str, Any]], ...]
    run: str


#: every paper artifact ``repro`` offers, in ``--help`` order
ARTIFACTS: Tuple[Artifact, ...] = (
    Artifact(
        "fig1", "on-demand RA timeline", "FIG1",
        (
            ("--memory", dict(default="64MiB",
                              help="attested memory size (default 64MiB)")),
            ("--deferral", dict(type=float, default=0.05,
                                help="request deferral on the prover, "
                                     "seconds")),
        ),
        "repro.experiments.simulated:run_fig1",
    ),
    Artifact(
        "fig2", "hash/signature timing curves", "FIG2",
        (
            ("--points", dict(type=int, default=1,
                              help="points per decade in the size sweep")),
        ),
        "repro.experiments.analytic:run_fig2",
    ),
    Artifact(
        "fig3", "solution taxonomy and Table 1 text", "FIG3", (),
        "repro.experiments.analytic:run_fig3",
    ),
    Artifact(
        "fig4", "consistency timeline per locking policy", "FIG4", (),
        "repro.experiments.simulated:run_fig4",
    ),
    Artifact(
        "fig5", "QoA timeline (self-measurement)", "FIG5",
        (
            ("--tm", dict(type=float, default=4.0, help="T_M seconds")),
            ("--tc", dict(type=float, default=16.0, help="T_C seconds")),
        ),
        "repro.experiments.simulated:run_fig5",
    ),
    Artifact(
        "table1", "empirical feature matrix vs claims", "TABLE1", (),
        "repro.experiments.simulated:run_table1",
    ),
    Artifact(
        "firealarm", "Section 2.5 fire alarm", "SEC25",
        (
            ("--memory", dict(default="1GiB",
                              help="attested memory size (default 1GiB)")),
        ),
        "repro.experiments.simulated:run_firealarm",
    ),
    Artifact(
        "smarm", "SMARM escape probabilities", "SEC32",
        (
            ("--blocks", dict(type=int, default=64)),
            ("--trials", dict(type=int, default=4000)),
        ),
        "repro.experiments.analytic:run_smarm",
    ),
    Artifact(
        "faults", "on-demand RA under an adversarial channel", None,
        (
            ("--plan", dict(default="loss=0.3@0:40;reset@6",
                            help="FaultPlan DSL (docs/resilience.md)")),
            ("--exchanges", dict(type=int, default=20,
                                 help="attestation exchanges per "
                                      "mechanism")),
            ("--mechanisms", dict(nargs="*",
                                  default=("smart", "inc-lock", "smarm"),
                                  help="on-demand mechanisms to drive")),
            ("--seed", dict(type=int, default=7)),
        ),
        "repro.experiments.extensions:run_faults",
    ),
    Artifact(
        "swarm", "collective attestation demo", None,
        (
            ("--count", dict(type=int, default=15,
                             help="number of devices")),
            ("--shape", dict(default="tree",
                             choices=["tree", "star", "line", "random"])),
            ("--infect", dict(type=int, nargs="*", default=(4, 9),
                              help="node indices to infect")),
        ),
        "repro.experiments.extensions:run_swarm",
    ),
    Artifact(
        "swatt", "software-based RA timing game (legacy devices)", None,
        (
            ("--penalty", dict(type=float, default=2e-3,
                               help="redirection penalty per read, "
                                    "seconds")),
            ("--speedup", dict(type=float, default=0.5,
                               help="the optimized adversary's speed "
                                    "factor")),
        ),
        "repro.experiments.extensions:run_swatt",
    ),
)
