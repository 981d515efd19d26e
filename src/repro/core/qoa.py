"""Quality of Attestation (Section 3.3, Figure 5).

QoA has two independent knobs once self-measurement decouples them:

* ``T_M`` -- time between two *measurements*: determines the window of
  opportunity for transient malware;
* ``T_C`` -- time between two *collections*: determines how stale the
  verifier's knowledge is (detection *latency*, not detection
  *ability*).

Figure 5 shows two infections: one fitting entirely between two
measurements (undetected), one spanning a measurement (detected at the
next collection).  :class:`QoATimeline` reproduces that picture from
parameters or from actual ERASMUS runs, and the analytic helpers give
the closed forms the ablation benches sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class QoAParameters:
    """The (T_M, T_C) pair."""

    t_m: float
    t_c: float

    def __post_init__(self) -> None:
        if self.t_m <= 0 or self.t_c <= 0:
            raise ConfigurationError("T_M and T_C must be positive")

    @property
    def measurements_per_collection(self) -> float:
        return self.t_c / self.t_m

    @property
    def worst_detection_latency(self) -> float:
        """Worst case from infection start to verifier awareness: the
        infection must first span a measurement (up to T_M) and the
        covering measurement must then be collected (up to T_C)."""
        return self.t_m + self.t_c

    def detection_probability(self, dwell: float) -> float:
        """Probability a transient infection of residency ``dwell`` is
        covered by at least one measurement, for a uniformly random
        infection phase and instantaneous measurements.

        ``dwell >= T_M`` guarantees coverage; below that the covering
        probability is ``dwell / T_M``.
        """
        if dwell < 0:
            raise ConfigurationError("dwell must be non-negative")
        return min(1.0, dwell / self.t_m)


@dataclass(frozen=True)
class InfectionEvent:
    """One transient-malware residency interval."""

    start: float
    end: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigurationError("infection end must be after start")

    @property
    def dwell(self) -> float:
        return self.end - self.start


@dataclass
class InfectionOutcome:
    """Detection verdict for one infection on a QoA timeline."""

    infection: InfectionEvent
    detected: bool
    covering_measurement: Optional[float] = None
    detected_at_collection: Optional[float] = None

    @property
    def detection_latency(self) -> Optional[float]:
        if self.detected_at_collection is None:
            return None
        return self.detected_at_collection - self.infection.start


class QoATimeline:
    """The Figure 5 picture: measurements, collections, infections.

    Measurement instants default to the ideal schedule ``k * T_M`` but
    can be replaced by the actual instants of an ERASMUS run (use
    each record's ``t_end``); likewise collections.
    """

    def __init__(
        self,
        params: QoAParameters,
        horizon: float,
        measurement_times: Optional[Sequence[float]] = None,
        collection_times: Optional[Sequence[float]] = None,
    ) -> None:
        self.params = params
        self.horizon = horizon
        if measurement_times is None:
            count = int(horizon / params.t_m) + 1
            measurement_times = [k * params.t_m for k in range(count)]
        if collection_times is None:
            count = int(horizon / params.t_c) + 1
            collection_times = [k * params.t_c for k in range(1, count)]
        self.measurement_times = sorted(
            t for t in measurement_times if t <= horizon
        )
        self.collection_times = sorted(
            t for t in collection_times if t <= horizon
        )
        self.outcomes: List[InfectionOutcome] = []

    # -- analysis ---------------------------------------------------------

    def add_infection(self, infection: InfectionEvent) -> InfectionOutcome:
        """Classify one infection: covered by a measurement or not, and
        when the verifier learns about it."""
        covering = next(
            (
                t
                for t in self.measurement_times
                if infection.start <= t <= infection.end
            ),
            None,
        )
        detected_at = None
        if covering is not None:
            detected_at = next(
                (t for t in self.collection_times if t >= covering), None
            )
        outcome = InfectionOutcome(
            infection=infection,
            detected=covering is not None and detected_at is not None,
            covering_measurement=covering,
            detected_at_collection=detected_at,
        )
        self.outcomes.append(outcome)
        return outcome

    # -- rendering -----------------------------------------------------------

    def render(self, width: int = 72) -> str:
        """ASCII Figure 5: M ticks, C ticks, infection spans."""
        scale = width / self.horizon

        def lane(marks: Sequence[Tuple[float, str]]) -> str:
            cells = [" "] * (width + 1)
            for time, char in marks:
                position = min(width, int(round(time * scale)))
                cells[position] = char
            return "".join(cells)

        lines = [
            "time  0" + " " * (width - 8) + f"{self.horizon:g}",
            "meas  "
            + lane([(t, "M") for t in self.measurement_times]),
            "coll  "
            + lane([(t, "C") for t in self.collection_times]),
        ]
        for index, outcome in enumerate(self.outcomes, 1):
            infection = outcome.infection
            start_col = int(round(infection.start * scale))
            end_col = max(start_col + 1, int(round(infection.end * scale)))
            span = [" "] * (width + 1)
            for col in range(start_col, min(end_col, width) + 1):
                span[col] = "#"
            verdict = "DETECTED" if outcome.detected else "undetected"
            label = infection.label or f"infection {index}"
            lines.append("inf   " + "".join(span) + f"  <- {label}: {verdict}")
        return "\n".join(lines)


def on_demand_equivalent(t_request: float) -> QoAParameters:
    """On-demand RA conflates the two QoA components (Figure 5's
    caption: they are "conjoined"): measuring and collecting both
    happen every ``t_request``."""
    return QoAParameters(t_m=t_request, t_c=t_request)
