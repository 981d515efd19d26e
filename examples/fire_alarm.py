#!/usr/bin/env python3
"""The Section 2.5 fire alarm: safety vs atomic attestation.

A bare-metal sensor/actuator loop samples a temperature sensor every
second.  A fire breaks out moments after an attestation of 1 GiB of
memory begins.  This script runs the scenario four ways -- no
attestation, SMART (atomic), Inc-Lock (interruptible with locking),
SMARM (interruptible, shuffled) -- and prints how long the building
burned before the alarm sounded.

Run:  python examples/fire_alarm.py
"""

from repro.apps import FireAlarmApp
from repro.ra import SmarmAttestation, SmartAttestation, Verifier
from repro.ra.locking import make_policy
from repro.ra.measurement import MeasurementConfig
from repro.ra.service import AttestationService, OnDemandVerifier
from repro.sim import Channel, Device, Simulator
from repro.units import GiB


def run_scenario(mechanism: str) -> tuple:
    """Returns (mp_duration, alarm_latency, deadline_misses)."""
    sim = Simulator()
    # 128 real blocks standing in for 1 GiB of attested memory.
    device = Device(
        sim, block_count=128, block_size=32,
        sim_block_size=GiB // 128,
    )
    device.standard_layout()
    channel = Channel(sim, latency=0.005)
    device.attach_network(channel)
    verifier = Verifier(sim)
    verifier.enroll(device)
    driver = OnDemandVerifier(verifier, channel)

    app = FireAlarmApp(
        device,
        period=1.0,           # "checks ... every second"
        sample_wcet=0.002,
        priority=100,         # highest application priority...
        threshold=60.0,
    )

    service = None
    if mechanism == "smart":
        service = SmartAttestation(device)          # ...but atomic wins
    elif mechanism == "smarm":
        service = SmarmAttestation(device, priority=50)
    elif mechanism != "none":
        service = AttestationService(
            device,
            MeasurementConfig(
                locking=make_policy(mechanism),
                priority=50,
                normalize_mutable=True,
            ),
            mechanism=mechanism,
        )

    request_at = 2.0
    if service is not None:
        service.install()
        sim.schedule_at(request_at, driver.request, device.name)

    # The fire ignites 100 ms after the challenge arrives -- i.e. just
    # after MP starts, the paper's worst case.
    app.start_fire(request_at + 0.1)
    sim.run(until=60.0)

    mp_duration = 0.0
    if service is not None and service.reports_sent:
        mp_duration = service.reports_sent[0].records[0].duration
    outcome = app.outcome()
    return mp_duration, outcome.alarm_latency, outcome.deadline_misses


def main() -> None:
    print("fire alarm with 1 GiB attested memory, sensor period 1 s")
    print("fire ignites just after the measurement starts\n")
    print(f"{'mechanism':<12} {'MP [s]':>8} {'alarm latency [s]':>18} "
          f"{'deadline misses':>16}")
    print("-" * 58)
    results = {}
    for mechanism in ("none", "smart", "inc-lock", "smarm"):
        mp, latency, misses = run_scenario(mechanism)
        results[mechanism] = latency
        latency_text = f"{latency:18.3f}" if latency else f"{'n/a':>18}"
        print(f"{mechanism:<12} {mp:>8.3f} {latency_text} {misses:>16}")

    print(
        "\nthe paper's point, reproduced: the atomic baseline holds the "
        "alarm hostage for the whole ~7 s measurement, while the "
        "interruptible mechanisms answer within one sensor period."
    )
    assert results["smart"] > 5.0
    assert results["inc-lock"] < 1.1
    assert results["smarm"] < 1.1


if __name__ == "__main__":
    main()
