"""SEC24 -- the in-text timing numbers of Section 2.4.

Anchors: 100 MB ~ 0.9 s, 2 GB ~ 14 s, 1 MB > 0.01 s, and the
MAC-vs-signature cost structure (outer hash negligible, signing cost
flat, "for small memory sizes, signature computation is the main cost
component").
"""

from repro.crypto.timing import OdroidXU4Model
from repro.experiments import sec24_anchors
from repro.units import GiB, KiB, MiB, format_time

from tests.paper.conftest import banner


def test_sec24_anchor_points():
    anchors = sec24_anchors()
    print(banner("Section 2.4: in-text anchors vs the calibrated model"))
    for anchor in anchors:
        status = "OK " if anchor.holds else "OFF"
        print(
            f"  [{status}] {anchor.description}: "
            f"{format_time(anchor.observed)} "
            f"(paper ~{format_time(anchor.expected)})"
        )
    assert all(anchor.holds for anchor in anchors)


def test_sec24_cost_structure():
    model = OdroidXU4Model()

    rows = []
    for size in (KiB, 64 * KiB, MiB, 16 * MiB, GiB):
        hash_time = model.hash_time("sha256", size)
        mac_time = model.mac_time("sha256", size)
        signed = model.hash_and_sign_time("rsa2048", size)
        rows.append((size, hash_time, mac_time, signed))
    print(banner("Section 2.4: cost decomposition (sha256 / rsa2048)"))
    print(f"{'size':>10} {'hash':>12} {'hmac':>12} {'hash+sign':>12}")
    for size, hash_time, mac_time, signed in rows:
        print(
            f"{size:>10} {format_time(hash_time):>12} "
            f"{format_time(mac_time):>12} {format_time(signed):>12}"
        )

    sign = model.sign_time("rsa2048")
    # Small sizes: signing dominates.  Large sizes: hashing dominates.
    small = rows[0]
    assert sign > small[1] * 10
    large = rows[-1]
    assert large[1] > sign * 10
    # The HMAC outer hash is negligible at every size.
    for size, hash_time, mac_time, _ in rows:
        assert (mac_time - hash_time) < 1e-4
