"""Size, time and rate units used throughout the reproduction.

The paper (Section 2.4) talks in mixed units: memory sizes from bytes to
gigabytes, latencies from microseconds to tens of seconds, and hashing
throughput implicitly in MB/s.  This module fixes the conventions:

* sizes are plain ``int`` **bytes**;
* simulated time is ``float`` **seconds**;
* rates are ``float`` **bytes per second**.

Helpers here convert to and from human-readable forms and keep the rest of
the code free of magic ``1024 ** 2`` constants.
"""

from __future__ import annotations

# -- size constants (binary, as used for RAM sizes in the paper) -----------

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

# -- time constants ---------------------------------------------------------

USEC = 1e-6
MSEC = 1e-3
SEC = 1.0
MINUTE = 60.0
HOUR = 3600.0

_SIZE_SUFFIXES = (
    (GiB, "GiB"),
    (MiB, "MiB"),
    (KiB, "KiB"),
)

_SIZE_ALIASES = {
    "b": 1,
    "kb": KiB,
    "kib": KiB,
    "mb": MiB,
    "mib": MiB,
    "gb": GiB,
    "gib": GiB,
}


def parse_size(text: str) -> int:
    """Parse a human-readable size like ``"100MB"`` or ``"2 GiB"`` to bytes.

    Decimal multipliers are treated as binary (the paper's "2GB" board has
    2 GiB of RAM), which is the convention for RAM sizes.

    >>> parse_size("4KB")
    4096
    >>> parse_size("2 GiB") == 2 * GiB
    True
    """
    cleaned = text.strip().lower().replace(" ", "")
    index = len(cleaned)
    while index > 0 and not cleaned[index - 1].isdigit():
        index -= 1
    number_part, suffix = cleaned[:index], cleaned[index:]
    if not number_part:
        raise ValueError(f"no numeric part in size {text!r}")
    if suffix and suffix not in _SIZE_ALIASES:
        raise ValueError(f"unknown size suffix {suffix!r} in {text!r}")
    multiplier = _SIZE_ALIASES.get(suffix, 1)
    return int(number_part) * multiplier


def format_size(num_bytes: int) -> str:
    """Render a byte count with the largest binary suffix that divides well.

    >>> format_size(2 * GiB)
    '2.0GiB'
    >>> format_size(512)
    '512B'
    """
    for factor, suffix in _SIZE_SUFFIXES:
        if num_bytes >= factor:
            return f"{num_bytes / factor:.1f}{suffix}"
    return f"{num_bytes}B"


def format_time(seconds: float) -> str:
    """Render a duration with an SI prefix suited to its magnitude.

    >>> format_time(0.0009)
    '900.0us'
    >>> format_time(14.2)
    '14.200s'
    """
    if seconds < 0:
        return "-" + format_time(-seconds)
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds:.3f}s"
