"""SEC25 -- the fire-alarm scenario (Section 2.5).

1 GiB of attested memory, a 1-second sensor loop, fire igniting right
after MP starts.  The paper: atomic MP over 1 GB runs ~7 s, so "it
would take a very long time for the application to regain control,
sense the fire and sound the alarm"; interruptible mechanisms keep the
alarm latency at one sensor period.
"""

import pytest

from repro.experiments import sec25_firealarm
from repro.units import GiB

from tests.paper.conftest import banner


def test_sec25_firealarm():
    result = sec25_firealarm(
        memory_bytes=GiB,
        mechanisms=["none", "smart", "inc-lock", "smarm"],
    )
    print(banner("Section 2.5: fire-alarm latency under attestation"))
    print(result.render())

    rows = {row.mechanism: row for row in result.rows}
    # ~7 s atomic measurement (the paper's number for 1 GB).
    assert rows["smart"].mp_duration == pytest.approx(7.0, rel=0.1)
    # Alarm latency: who wins and by what factor.
    assert rows["none"].alarm_latency < 1.0
    assert rows["smart"].alarm_latency > 5.0
    assert rows["smart"].alarm_latency > 5 * rows["none"].alarm_latency
    for interruptible in ("inc-lock", "smarm"):
        assert rows[interruptible].alarm_latency < 1.1
    # Deadline damage follows the same split.
    assert rows["smart"].deadline_misses >= 5
    assert rows["inc-lock"].deadline_misses <= 1


def test_sec25_memory_size_sweep():
    """Alarm latency under atomic MP grows linearly with attested size
    (the reason Section 2.4's measurements matter for safety)."""

    sizes = [GiB // 4, GiB // 2, GiB]
    rows = [
        (
            size,
            sec25_firealarm(memory_bytes=size, mechanisms=["smart"])
            .rows[0],
        )
        for size in sizes
    ]
    print(banner("Section 2.5 sweep: attested size vs alarm latency"))
    for size, row in rows:
        print(
            f"  {size / GiB:5.2f} GiB  MP={row.mp_duration:6.3f}s  "
            f"alarm latency={row.alarm_latency:6.3f}s"
        )
    latencies = [row.alarm_latency for _, row in rows]
    assert latencies == sorted(latencies)
    # Doubling memory ~ doubles the damage.
    assert latencies[2] == pytest.approx(2 * latencies[1], rel=0.25)
