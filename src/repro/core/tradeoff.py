"""Cross-mechanism evaluation: Table 1, derived from simulation.

For every mechanism in the solution landscape this harness runs three
scenarios on an identical device/workload -- no adversary,
self-relocating malware, reactive transient malware -- and distills the
Table 1 columns from what actually happened:

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
from repro.sim.device import Device
from repro.units import MiB

if TYPE_CHECKING:
    from repro.scenario import ScenarioOutcome

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
    smarm_rounds: int = 13
    erasmus_period: float = 2.5
    #: T_C, the ERASMUS collection period: ``Scenario.drive`` collects
    #: at T_C, 2 T_C, ... (at least once) up to the horizon
    erasmus_collect_period: float = 30.0
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
    probe_count: int = 6  # mid-MP write probes across the data region


@dataclass
class ProbeResult:
    """Mid-measurement write probes into the data region."""

    attempted: int = 0
    succeeded: int = 0

    @property
    def fraction(self) -> float:
        if self.attempted == 0:
            return 0.0
        return self.succeeded / self.attempted


def _schedule_probes(device: Device, config: ScenarioConfig,
                     probe: ProbeResult, window: Tuple[float, float]) -> None:
    """Fire write attempts into the data region spread across a window.

    A probe models a task trying to update state mid-measurement; it
    runs as a maximum-priority one-shot job so the only obstacles are
    atomicity (no CPU) and MPU locks.  A probe *succeeds* only if the
    write commits promptly (within ``budget`` of its release): a write
    that had to wait for the whole measurement to finish is exactly the
    unavailability Table 1's column is about.
    """
    data_region = device.memory.regions["data"]
    start, end = window
    span = end - start
    budget = 0.005
    for index in range(config.probe_count):
        fire_at = start + span * (index + 0.5) / config.probe_count
        block = data_region.start + (index % data_region.length)

        def probe_job(proc, block=block, released=fire_at):
            from repro.sim.process import Compute

            yield Compute(1e-6)
            probe.attempted += 1
            payload = b"\xEE" * device.memory.block_size
            committed = device.memory.try_write(block, payload, "probe")
            if committed and device.sim.now - released <= budget:
                probe.succeeded += 1

        device.sim.schedule_at(
            fire_at,
            lambda job=probe_job, i=index: device.cpu.spawn(
                f"probe{i}", job, priority=10_000
            ),
        )


def run_scenario(
    mechanism: str,
    adversary: str,
    config: Optional[ScenarioConfig] = None,
    seed: int = 7,
) -> Tuple[ScenarioOutcome, ProbeResult]:
    """Run one cell of the evaluation matrix: the run's outcome and
    its mid-measurement write probes."""
    # Lazy: repro.scenario imports this module for ScenarioConfig, so
    # the factory can only be pulled in at call time.
    from repro.scenario import Scenario

    config = config or ScenarioConfig()
    scenario = Scenario.build(
        mechanism=mechanism,
        malware=adversary,
        workload="firealarm",
        config=config,
        seed=seed,
    )
    scenario.drive()

    # Estimate the MP window for probe placement: first measurement
    # starts right after the request (plus network latency) or at t=0
    # for self-measurement; duration from the timing model.
    device = scenario.device
    per_block = device.timing.hash_time(
        config.algorithm, config.sim_block_size
    )
    mp_estimate = per_block * config.block_count
    window_start = (
        config.request_at + 0.01 if scenario.driver is not None else 0.0
    )
    probe = ProbeResult()
    _schedule_probes(
        device, config, probe, (window_start, window_start + mp_estimate)
    )

    scenario.run()
    return scenario.outcome(), probe


@dataclass
class EvaluationMatrix:
    """All scenario outcomes and probes plus the Table 1 distillation."""

    outcomes: Dict[Tuple[str, str], ScenarioOutcome]
    probes: Dict[Tuple[str, str], ProbeResult]
    config: ScenarioConfig

    def outcome(self, mechanism: str, adversary: str) -> ScenarioOutcome:
        return self.outcomes[(mechanism, adversary)]

    # -- Table 1 cell derivations ------------------------------------------

    def detects_relocating(self, mechanism: str) -> bool:
        return self.outcome(mechanism, "relocating").detected

    def detects_transient(self, mechanism: str) -> bool:
        return self.outcome(mechanism, "transient").detected

    def false_positive(self, mechanism: str) -> bool:
        return self.outcome(mechanism, "none").detected

    def writable_availability(self, mechanism: str) -> Feature:
        probe = self.probes[(mechanism, "none")]
        if probe.attempted == 0:
            return Feature.NO
        if probe.fraction >= 0.99:
            return Feature.YES
        if probe.fraction <= 0.01:
            return Feature.NO
        return Feature.PARTIAL

    def interruptibility(self, mechanism: str) -> Feature:
        outcome = self.outcome(mechanism, "none")
        # The critical task preempted MP at least once and never waited
        # anywhere near a full measurement.
        if outcome.mp_interruptions > 0:
            return (
                Feature.YES
                if outcome.availability.worst_response
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
        seen = []
        for mechanism, _adv in self.outcomes:
            if mechanism not in seen:
                seen.append(mechanism)
        for mechanism in seen:
            none_outcome = self.outcome(mechanism, "none")
            lines.append(
                f"{mechanism:<10} "
                f"{'Y' if self.detects_relocating(mechanism) else 'x':<6} "
                f"{'Y' if self.detects_transient(mechanism) else 'x':<6} "
                f"{'!' if self.false_positive(mechanism) else '-':<4} "
                f"{self.writable_availability(mechanism).mark:<9} "
                f"{self.interruptibility(mechanism).mark:<10} "
                f"{none_outcome.mp_duration:<8.3f} "
                f"{none_outcome.availability.worst_response * 1e3:<15.1f} "
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
            reloc = self.detects_relocating(mechanism)
            rows.append(
                (
                    mechanism, "detects_relocating",
                    solution.detects_relocating.mark,
                    "Y" if reloc else "x",
                    feature_match(
                        solution.detects_relocating,
                        Feature.YES if reloc else Feature.NO,
                    ),
                )
            )
            trans = self.detects_transient(mechanism)
            rows.append(
                (
                    mechanism, "detects_transient",
                    solution.detects_transient.mark,
                    "Y" if trans else "x",
                    feature_match(
                        solution.detects_transient,
                        Feature.YES if trans else Feature.NO,
                    ),
                )
            )
            writable = self.writable_availability(mechanism)
            rows.append(
                (
                    mechanism, "writable_availability",
                    solution.writable_availability.mark,
                    writable.mark,
                    feature_match(solution.writable_availability, writable),
                )
            )
            interrupt = self.interruptibility(mechanism)
            rows.append(
                (
                    mechanism, "interruptibility",
                    solution.interruptibility.mark,
                    interrupt.mark,
                    feature_match(solution.interruptibility, interrupt),
                )
            )
        return sorted(rows)


def evaluate_all(
    mechanisms: Optional[List[str]] = None,
    config: Optional[ScenarioConfig] = None,
    adversaries: Tuple[str, ...] = ADVERSARIES,
) -> EvaluationMatrix:
    """Run the full mechanism x adversary matrix."""
    config = config or ScenarioConfig()
    keys = mechanisms if mechanisms is not None else list(STANDARD_KEYS)
    outcomes: Dict[Tuple[str, str], ScenarioOutcome] = {}
    probes: Dict[Tuple[str, str], ProbeResult] = {}
    for key in keys:
        for adversary in adversaries:
            cell = (key, adversary)
            outcomes[cell], probes[cell] = run_scenario(
                key, adversary, config
            )
    return EvaluationMatrix(outcomes=outcomes, probes=probes, config=config)
