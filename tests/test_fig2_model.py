"""Figure 2 curve properties: anchors, crossovers, slopes, rendering."""

import math
from typing import List, Tuple

import pytest

from repro.analysis.fig2_model import (
    anchor_report,
    crossover_table,
    render_series,
    sweep_series,
)
from repro.crypto.timing import HASH_NAMES, SIGNATURE_NAMES, figure2_sizes
from repro.units import GiB, KiB, MiB


def loglog_slope(series: List[Tuple[int, float]],
                 low: int, high: int) -> float:
    """Log-log slope of a curve between two sizes (1.0 = linear)."""

    def value_at(target: int) -> float:
        best = min(series, key=lambda point: abs(point[0] - target))
        return best[1]

    t_low, t_high = value_at(low), value_at(high)
    return math.log(t_high / t_low) / math.log(high / low)


class TestAnchors:
    def test_all_paper_anchors_hold(self):
        anchors = anchor_report()
        assert len(anchors) == 4
        for anchor in anchors:
            assert anchor.holds, anchor.description

    def test_anchor_descriptions_cover_the_claims(self):
        text = " ".join(a.description for a in anchor_report())
        assert "100 MB" in text
        assert "2 GB" in text
        assert "fire-alarm" in text


class TestCrossovers:
    def test_full_table(self):
        table = crossover_table()
        assert len(table) == len(HASH_NAMES) * len(SIGNATURE_NAMES)

    def test_every_signature_has_a_crossover(self):
        """'for any signature algorithm, there is a point at which the
        cost of hashing exceeds that of signing'."""
        table = crossover_table()
        for (hash_name, signature), size in table.items():
            assert 0 < size < 2 * GiB

    def test_most_signatures_cross_below_4mib(self):
        table = crossover_table()
        below = sum(
            1
            for (hash_name, signature), size in table.items()
            if hash_name == "sha256" and size < 4 * MiB
        )
        assert below >= 4

    def test_bigger_rsa_crosses_later(self):
        table = crossover_table()
        assert (
            table[("sha256", "rsa1024")]
            < table[("sha256", "rsa2048")]
            < table[("sha256", "rsa4096")]
        )


class TestSeries:
    def test_ten_curves(self):
        series = sweep_series()
        assert set(series) == set(HASH_NAMES) | set(SIGNATURE_NAMES)

    def test_hash_curves_loglog_linear_above_knee(self):
        """Slope 1 on log-log: pure throughput behaviour."""
        series = sweep_series(sizes=figure2_sizes(3))
        for name in HASH_NAMES:
            slope = loglog_slope(series[name], 10 * MiB, GiB)
            assert slope == pytest.approx(1.0, abs=0.05)

    def test_signature_curves_flat_at_small_sizes(self):
        """Below the crossover the fixed signing cost dominates."""
        series = sweep_series(sizes=[KiB, 4 * KiB, 16 * KiB])
        for name in ("rsa2048", "rsa4096"):
            times = [t for _, t in series[name]]
            assert max(times) / min(times) < 1.2

    def test_signature_curves_converge_to_hash_curve(self):
        """At 2 GiB, signing adds almost nothing."""
        series = sweep_series(sizes=[2 * GiB])
        hash_time = series["sha256"][0][1]
        for name in SIGNATURE_NAMES:
            assert series[name][0][1] == pytest.approx(hash_time, rel=0.01)

    def test_render_table(self):
        series = sweep_series(sizes=[KiB, MiB])
        text = render_series(series)
        assert "sha256" in text and "rsa4096" in text
        assert "1.0MiB" in text
