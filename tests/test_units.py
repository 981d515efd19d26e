"""Units and formatting helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.units import (
    GiB,
    KiB,
    MiB,
    format_size,
    format_time,
    parse_size,
)


def mb_per_s(megabytes: float) -> float:
    """Convert a throughput given in MiB/s to bytes/s (calibration helper)."""
    return megabytes * MiB


def format_rate(bytes_per_second: float) -> str:
    """Render a throughput, e.g. ``format_rate(110 * MiB)`` -> ``'110.0MiB/s'``."""
    return format_size(int(bytes_per_second)) + "/s"


class TestParseSize:
    def test_plain_bytes(self):
        assert parse_size("512") == 512

    def test_explicit_byte_suffix(self):
        assert parse_size("512B") == 512

    def test_kb_is_binary(self):
        assert parse_size("4KB") == 4 * KiB

    def test_mixed_case_and_spaces(self):
        assert parse_size(" 2 GiB ") == 2 * GiB

    def test_mb_alias(self):
        assert parse_size("100MB") == 100 * MiB

    def test_unknown_suffix_rejected(self):
        with pytest.raises(ValueError):
            parse_size("5 parsecs")

    def test_missing_number_rejected(self):
        with pytest.raises(ValueError):
            parse_size("MiB")

    @given(st.integers(min_value=0, max_value=10**6))
    def test_roundtrip_plain(self, value):
        assert parse_size(str(value)) == value


class TestFormatting:
    def test_format_size_bytes(self):
        assert format_size(512) == "512B"

    def test_format_size_gib(self):
        assert format_size(2 * GiB) == "2.0GiB"

    def test_format_size_mib(self):
        assert format_size(3 * MiB) == "3.0MiB"

    def test_format_time_microseconds(self):
        assert format_time(0.0000005).endswith("us")

    def test_format_time_milliseconds(self):
        assert format_time(0.005).endswith("ms")

    def test_format_time_seconds(self):
        assert format_time(14.0) == "14.000s"

    def test_format_time_negative(self):
        assert format_time(-1.0).startswith("-")

    def test_format_rate(self):
        assert format_rate(110 * MiB) == "110.0MiB/s"

    def test_mb_per_s(self):
        assert mb_per_s(1.0) == MiB

    @given(st.floats(min_value=1e-9, max_value=1e5, allow_nan=False))
    def test_format_time_always_has_unit(self, seconds):
        text = format_time(seconds)
        assert text.endswith("s")  # us / ms / s all end in 's'
