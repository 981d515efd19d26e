"""Cross-mechanism evaluation: Table 1, derived from simulation.

For every mechanism in the solution landscape this harness runs three
scenarios on an identical device/workload -- no adversary,
self-relocating malware, reactive transient malware -- as one-seed fleet
runs (``execute_run``), and distills the Table 1 columns from their
``RunResult``s:

* the detection cells from the verifier's verdicts;
* writable-memory availability from write probes fired mid-measurement;
* interruptibility from whether the critical task preempted MP (and
  what its worst response time was);
* runtime overhead from measured MP wall time;
* the consistency column from the mechanism's guarantee (validated
  empirically, with controlled writes, by the Figure 4 benchmark --
  adversarial scenarios can be trivially consistent when every malware
  write is blocked).

Conventions (documented in DESIGN.md): the adversaries are resident
when the measurement begins and evade *during* MP, which is the
reading under which Table 1's baseline detects "transient" malware;
self-measurement (ERASMUS) runs its measurements atomically at
secretly-timed instants (its interruptibility cell is the paper's
"x (may be made context aware)").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.consistency import expected_consistency
from repro.core.solution import Feature, solution_by_key
from repro.errors import ConfigurationError
from repro.units import MiB

if TYPE_CHECKING:
    from repro.fleet.telemetry import RunResult

ADVERSARIES = ("none", "relocating", "transient")

#: mechanism keys evaluated by default (the Table 1 rows)
STANDARD_KEYS = (
    "smart",
    "all-lock",
    "dec-lock",
    "inc-lock",
    "smarm",
    "erasmus",
    "no-lock",  # the strawman, shown for contrast
)

#: mid-measurement write probes per Table 1 run (the writable-memory
#: column)
TABLE1_PROBES = 6


@dataclass
class ScenarioConfig:
    """The one typed description of a run: geometry, timing and the
    settings each mechanism, malware and workload builder reads
    (``repro.scenario``'s ``MECHANISMS``/``MALWARE``/``WORKLOADS``)."""

    block_count: int = 48
    block_size: int = 32
    #: each real block stands for this many simulated bytes, stretching
    #: MP to a realistic duration so tasks contend with it
    sim_block_size: int = 2 * MiB
    algorithm: str = "blake2s"
    request_at: float = 2.0
    horizon: float = 40.0
    #: passes per SMARM request: the residual escape probability drops
    #: below 1e-6 when each pass is escaped with probability ~e^-1
    #: (ceil(6 ln 10) = 14; the paper rounds to "13 checks" using the
    #: exact finite-n probability)
    rounds: int = 13
    #: T_M, the self-measurement period (ERASMUS; SeED's gap scale)
    t_m: float = 2.5
    #: T_C, the ERASMUS collection period: ``Scenario.drive`` collects
    #: at T_C, 2 T_C, ... (at least once) up to the horizon
    t_c: float = 30.0
    task_period: float = 0.1
    task_wcet: float = 0.002
    task_priority: int = 100
    mp_priority: int = 50
    malware_block: int = 5  # inside the code region
    infect_at: float = 0.5
    #: transient malware leaves after ``dwell`` s; 0 dodges reactively
    dwell: float = 0.0
    relocation_strategy: str = "to-measured"
    relocation_seed: int = 99
    writer_tasks: int = 4
    #: the fire alarm logs each sample to the data region's last block
    alarm_writes: bool = True
    #: SeED; None derives the default from the device and T_M
    seed_shared: Optional[bytes] = None
    seed_min_gap: Optional[float] = None
    seed_max_gap: Optional[float] = None
    seed_triggers: Optional[int] = None
    #: missed-push recovery over ``seed_fetch`` (prover, monitor)
    seed_serve_fetch: bool = False
    seed_catch_up: bool = False
    #: mid-MP write probes across the data region, installed by
    #: ``Scenario.drive``; Table 1 fires 6, every other run none
    probe_count: int = 0


def _detection(detected: bool) -> Feature:
    return Feature.YES if detected else Feature.NO


@dataclass
class EvaluationMatrix:
    """Every cell's fleet run result plus the Table 1 distillation."""

    outcomes: Dict[Tuple[str, str], RunResult]
    config: ScenarioConfig

    def outcome(self, mechanism: str, adversary: str) -> RunResult:
        return self.outcomes[(mechanism, adversary)]

    # -- Table 1 cell derivations ------------------------------------------

    def detects_relocating(self, mechanism: str) -> bool:
        return self.outcome(mechanism, "relocating").detected

    def detects_transient(self, mechanism: str) -> bool:
        return self.outcome(mechanism, "transient").detected

    def false_positive(self, mechanism: str) -> bool:
        return self.outcome(mechanism, "none").detected

    def writable_availability(self, mechanism: str) -> Feature:
        probes = self.outcome(mechanism, "none").probes
        attempted = probes.get("attempted", 0)
        if attempted == 0:
            return Feature.NO
        fraction = probes["succeeded"] / attempted
        if fraction >= 0.99:
            return Feature.YES
        if fraction <= 0.01:
            return Feature.NO
        return Feature.PARTIAL

    def interruptibility(self, mechanism: str) -> Feature:
        outcome = self.outcome(mechanism, "none")
        # The critical task preempted MP at least once and never waited
        # anywhere near a full measurement.
        if outcome.mp_interruptions > 0:
            return (
                Feature.YES
                if outcome.availability_report.worst_response
                < 0.05 * max(outcome.mp_duration, 1e-9)
                else Feature.PARTIAL
            )
        return Feature.NO

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        header = (
            f"{'mechanism':<10} {'reloc':<6} {'trans':<6} {'FP':<4} "
            f"{'writable':<9} {'interrupt':<10} {'mp[s]':<8} "
            f"{'task_worst[ms]':<15} {'consistency (claimed)'}"
        )
        lines = [header, "-" * len(header)]
        for mechanism in dict.fromkeys(m for m, _ in self.outcomes):
            none_outcome = self.outcome(mechanism, "none")
            worst = none_outcome.availability_report.worst_response
            lines.append(
                f"{mechanism:<10} "
                f"{_detection(self.detects_relocating(mechanism)).mark:<6} "
                f"{_detection(self.detects_transient(mechanism)).mark:<6} "
                f"{'!' if self.false_positive(mechanism) else '-':<4} "
                f"{self.writable_availability(mechanism).mark:<9} "
                f"{self.interruptibility(mechanism).mark:<10} "
                f"{none_outcome.mp_duration:<8.3f} "
                f"{worst * 1e3:<15.1f} "
                f"{expected_consistency(mechanism)}"
            )
        return "\n".join(lines)

    def against_claims(self) -> List[Tuple[str, str, str, str, bool]]:
        """Compare empirical cells with Table 1's claims.

        Returns ``(mechanism, column, claimed, observed, match)`` rows.
        PARTIAL claims accept either empirical Y or ~.
        """
        rows: List[Tuple[str, str, str, str, bool]] = []

        def feature_match(claim: Feature, observed: Feature) -> bool:
            if claim is Feature.PARTIAL:
                return observed in (Feature.PARTIAL, Feature.YES)
            return claim is observed

        for mechanism in {m for m, _ in self.outcomes}:
            solution = solution_by_key(mechanism)
            if solution is None:
                continue
            observed = {
                "detects_relocating": _detection(
                    self.detects_relocating(mechanism)
                ),
                "detects_transient": _detection(
                    self.detects_transient(mechanism)
                ),
                "writable_availability": self.writable_availability(
                    mechanism
                ),
                "interruptibility": self.interruptibility(mechanism),
            }
            for column, feature in observed.items():
                claim = getattr(solution, column)
                rows.append((
                    mechanism, column, claim.mark, feature.mark,
                    feature_match(claim, feature),
                ))
        return sorted(rows)


def evaluate_all(
    mechanisms: Optional[List[str]] = None,
    config: Optional[ScenarioConfig] = None,
    adversaries: Tuple[str, ...] = ADVERSARIES,
) -> EvaluationMatrix:
    """Run the mechanism x adversary matrix through ``execute_run``:
    one seed-7 ``RunSpec`` per cell with ``config``'s fields of the
    same name and ``config.probe_count`` (else :data:`TABLE1_PROBES`)
    write probes.  A ``config`` field no ``RunSpec`` field sets must
    keep its default, else this raises ``ConfigurationError``."""
    # Lazy: repro.fleet imports repro.scenario, which imports this
    # module for ScenarioConfig.
    from repro.fleet.campaign import RunSpec
    from repro.fleet.executor import (
        SHARED_FIELDS, UNSHARED_FIELDS, execute_run,
    )

    config = config or ScenarioConfig()
    default = ScenarioConfig()
    unreachable = [
        name for name in UNSHARED_FIELDS
        if getattr(config, name) != getattr(default, name)
    ]
    if unreachable:
        raise ConfigurationError(
            "Table 1 runs from a RunSpec, which cannot set "
            f"{', '.join(unreachable)}"
        )
    shared = {name: getattr(config, name) for name in SHARED_FIELDS}
    shared["probe_count"] = config.probe_count or TABLE1_PROBES
    keys = mechanisms if mechanisms is not None else list(STANDARD_KEYS)
    outcomes = {
        (key, adversary): execute_run(RunSpec(
            campaign="table1", mechanism=key, adversary=adversary, seed=7,
            **shared,
        ))
        for key in keys
        for adversary in adversaries
    }
    return EvaluationMatrix(outcomes=outcomes, config=config)
