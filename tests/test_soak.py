"""Whole-stack soak: every service on one device, plus determinism.

One prover runs the fire alarm, ERASMUS self-measurement, SeED pushes
and an on-demand SMART service simultaneously for minutes of simulated
time while malware comes and goes.  The suite then asserts global
invariants -- and that the entire run is bit-for-bit reproducible.
"""

import pytest

from repro.apps.firealarm import FireAlarmApp
from repro.malware.transient import TransientMalware
from repro.ra.erasmus import CollectorVerifier, ErasmusService
from repro.ra.measurement import MeasurementConfig
from repro.ra.seed import SeedMonitor, SeedService
from repro.ra.service import OnDemandVerifier
from repro.ra.smart import SmartAttestation
from repro.ra.verifier import Verifier
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.network import Channel
from repro.units import MiB

from tests.conftest import tap


def run_soak(horizon=120.0):
    sim = Simulator()
    device = Device(sim, block_count=24, block_size=32,
                    sim_block_size=MiB)
    device.standard_layout()
    channel = Channel(sim, latency=0.003, trace=device.trace)
    sent = tap(channel)
    device.attach_network(channel)
    verifier = Verifier(sim)
    verifier.enroll(device)

    app = FireAlarmApp(device, period=0.5, sample_wcet=0.002,
                       priority=100,
                       data_block=device.memory.regions["data"].end - 1)

    smart = SmartAttestation(device)
    smart.config.normalize_mutable = True
    smart.install()
    driver = OnDemandVerifier(verifier, channel, endpoint_name="vrf-od")

    erasmus = ErasmusService(
        device, period=4.0,
        config=MeasurementConfig(atomic=True, priority=50,
                                 normalize_mutable=True),
        history_size=64,
    )
    erasmus.start()
    collector = CollectorVerifier(verifier, channel,
                                  endpoint_name="vrf-collect")
    collector.collect_every(device.name, period=30.0,
                            count=int(horizon / 30.0))

    seed_service = SeedService(
        device, b"soak-seed", verifier_name="vrf-push",
        min_gap=10.0, max_gap=20.0, trigger_count=6,
        config=MeasurementConfig(atomic=True, priority=45,
                                 normalize_mutable=True),
    )
    monitor = SeedMonitor(
        verifier, channel, device.name, b"soak-seed",
        min_gap=10.0, max_gap=20.0, trigger_count=6, grace=3.0,
        endpoint_name="vrf-push",
    )
    seed_service.start()

    for at in (7.0, 37.0, 67.0, 97.0):
        sim.schedule_at(at, driver.request, device.name)

    # Two malware visits: one long dwell (caught by everything), one
    # short dwell between measurements.
    TransientMalware(device, target_block=2, infect_at=50.0,
                     leave_at=62.0, name="long")
    TransientMalware(device, target_block=3, infect_at=80.2,
                     leave_at=81.8, name="short")

    sim.run(until=horizon)
    return {
        "sim": sim,
        "device": device,
        "verifier": verifier,
        "app": app,
        "erasmus": erasmus,
        "collector": collector,
        "monitor": monitor,
        "driver": driver,
        "channel": channel,
        "sent": sent,
    }


@pytest.fixture(scope="module")
def soak():
    return run_soak()


class TestGlobalInvariants:
    def test_all_protocols_progressed(self, soak):
        assert soak["erasmus"].measurements_done >= 28
        # The collection scheduled exactly at the horizon may not
        # complete its verify before the clock stops.
        assert len(soak["collector"].collections) >= 3
        assert soak["monitor"].missing_count() == 0
        assert len(soak["driver"].exchanges) == 4
        assert all(
            e.result is not None for e in soak["driver"].exchanges
        )

    def test_no_spurious_verdicts(self, soak):
        counts = soak["verifier"].verdict_counts()
        assert counts.get("invalid", 0) == 0
        assert counts.get("replay", 0) == 0
        assert counts.get("missing", 0) == 0

    def test_long_dwell_detected_everywhere(self, soak):
        # On-demand at t=37 (clean) vs t=... the long dwell spans
        # 50-62: ERASMUS measurements at 52/56/60 catch it, and SeED
        # pushes in that window too.
        dirty = []
        for collection in soak["collector"].collections:
            dirty.extend(collection.dirty_intervals)
        assert any(50.0 <= start <= 62.0 for start, _ in dirty)

    def test_short_dwell_missed_by_4s_grid(self, soak):
        # 1.6 s dwell strictly inside (80, 84): no measurement at 80.x
        # covers it (grid points 80 and 84 are outside the residency).
        dirty = []
        for collection in soak["collector"].collections:
            dirty.extend(collection.dirty_intervals)
        assert not any(80.1 <= start <= 81.9 for start, _ in dirty)

    def test_code_region_clean_at_end(self, soak):
        # The data region legitimately holds sensor readings; the code
        # region must be pristine after both malware visits ended.
        code = soak["device"].memory.regions["code"]
        dirty_code = [
            block for block in soak["device"].memory.dirty_blocks()
            if block in code
        ]
        assert dirty_code == []

    def test_fire_alarm_survived_the_circus(self, soak):
        stats = soak["app"].task.stats()
        assert stats.jobs_finished > 200
        # Misses only plausible while ~0.16s atomic measurements run;
        # the 0.5 s period absorbs them.
        assert stats.miss_rate < 0.02

    def test_cpu_accounting_consistent(self, soak):
        busy = sum(
            proc.cpu_time for proc in soak["device"].cpu.processes
        )
        assert busy <= soak["sim"].now + 1e-6
        assert busy > 0


class TestDeterminism:
    def test_identical_reruns(self):
        """The entire multi-protocol run is reproducible bit for bit:
        same verdict sequence, same traces, same message log."""
        first = run_soak(horizon=60.0)
        second = run_soak(horizon=60.0)

        verdicts_1 = [
            (r.verified_at, r.verdict.value, r.device)
            for r in first["verifier"].results
        ]
        verdicts_2 = [
            (r.verified_at, r.verdict.value, r.device)
            for r in second["verifier"].results
        ]
        assert verdicts_1 == verdicts_2

        log_1 = [
            (m.sent_at, m.src, m.dst, m.kind)
            for m in first["sent"]
        ]
        log_2 = [
            (m.sent_at, m.src, m.dst, m.kind)
            for m in second["sent"]
        ]
        assert log_1
        assert len(log_1) == first["channel"].sent_count
        assert log_1 == log_2

        trace_1 = [str(r) for r in first["device"].trace]
        trace_2 = [str(r) for r in second["device"].trace]
        assert trace_1 == trace_2
