"""Figure 2 curve properties: anchors, crossovers, slopes.

Everything the paper *says about* Figure 2 is a checkable property of
the calibrated timing model:

* "about 0.9 sec to measure just 100MB" and "2GB ... nearly 14 sec"
  (the two anchors);
* "for input sizes over 1MB, MP takes longer than 0.01sec, and the
  cost of most signature algorithms become comparatively
  insignificant" (the crossover region);
* hash curves are straight lines of slope 1 on a log-log plot above
  the fixed-cost knee; signature curves are flat until hashing takes
  over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.crypto.timing import (
    HASH_NAMES,
    SIGNATURE_NAMES,
    OdroidXU4Model,
    TimingModel,
    figure2_sizes,
)
from repro.units import GiB, MiB, format_size, format_time


@dataclass(frozen=True)
class Anchor:
    """One in-text claim about Figure 2."""

    description: str
    observed: float
    expected: float
    tolerance: float  # relative

    @property
    def holds(self) -> bool:
        if self.expected == 0:
            return self.observed == 0
        return abs(self.observed - self.expected) / self.expected <= (
            self.tolerance
        )


def anchor_report(model: Optional[TimingModel] = None) -> List[Anchor]:
    """Check the Section 2.4 in-text numbers against the model."""
    model = model or OdroidXU4Model()
    best_hash = min(
        HASH_NAMES, key=lambda name: model.hash_time(name, GiB)
    )
    return [
        Anchor(
            "hashing 100 MB takes about 0.9 s (SHA-256)",
            observed=model.hash_time("sha256", 100 * 10**6),
            expected=0.9,
            tolerance=0.15,
        ),
        Anchor(
            "hashing all 2 GB of RAM takes nearly 14 s (fastest hash)",
            observed=model.hash_time(best_hash, 2 * GiB),
            expected=14.0,
            tolerance=0.15,
        ),
        Anchor(
            "MP over 1 MB takes longer than 0.01 s",
            observed=model.hash_time("sha256", MiB),
            expected=0.0094,
            tolerance=0.25,
        ),
        Anchor(
            "the 1 GB fire-alarm measurement runs approximately 7 s",
            observed=model.hash_time(best_hash, GiB),
            expected=7.0,
            tolerance=0.15,
        ),
    ]


def crossover_table(
    model: Optional[TimingModel] = None,
) -> Dict[Tuple[str, str], float]:
    """Input size where hashing overtakes each signature's fixed cost.

    The paper: "for any signature algorithm, there is a point at which
    the cost of hashing exceeds that of signing."
    """
    model = model or OdroidXU4Model()
    table: Dict[Tuple[str, str], float] = {}
    for hash_name in HASH_NAMES:
        for signature in SIGNATURE_NAMES:
            table[(hash_name, signature)] = model.crossover_size(
                hash_name, signature
            )
    return table


def sweep_series(
    model: Optional[TimingModel] = None,
    sizes: Optional[List[int]] = None,
) -> Dict[str, List[Tuple[int, float]]]:
    """All ten Figure 2 curves as (size, seconds) series."""
    model = model or OdroidXU4Model()
    sizes = sizes if sizes is not None else figure2_sizes()
    series: Dict[str, List[Tuple[int, float]]] = {}
    for hash_name in HASH_NAMES:
        series[hash_name] = model.sweep(sizes, hash_algorithm=hash_name)
    for signature in SIGNATURE_NAMES:
        series[signature] = model.sweep(
            sizes, hash_algorithm="sha256", signature=signature
        )
    return series


def render_series(series: Dict[str, List[Tuple[int, float]]],
                  sizes: Optional[List[int]] = None) -> str:
    """Figure 2 as an aligned text table (sizes down, algorithms across)."""
    names = list(series)
    if sizes is None:
        sizes = [point[0] for point in series[names[0]]]
    header = f"{'size':>10} " + " ".join(f"{name:>10}" for name in names)
    lines = [header, "-" * len(header)]
    for index, size in enumerate(sizes):
        cells = []
        for name in names:
            cells.append(f"{format_time(series[name][index][1]):>10}")
        lines.append(f"{format_size(size):>10} " + " ".join(cells))
    return "\n".join(lines)
