"""SeED: secret triggers, pushed reports, replay and drop defenses."""

import pytest

from repro.errors import ConfigurationError
from repro.malware.transient import TransientMalware
from repro.ra.report import Verdict
from repro.ra.seed import SeedMonitor, SeedService, trigger_schedule
from repro.ra.verifier import Verifier
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.network import Channel, DropAdversary, ReplayAdversary

from tests.observer import MeasurementObserver


def seed_rig(trigger_count=5, min_gap=2.0, max_gap=4.0, grace=1.0,
             filters=()):
    sim = Simulator()
    device = Device(sim, block_count=10, block_size=32)
    device.standard_layout()
    channel = Channel(sim, latency=0.002)
    for filter_fn in filters:
        channel.add_filter(filter_fn)
    device.attach_network(channel)
    verifier = Verifier(sim)
    verifier.enroll(device)
    shared_seed = b"shared-seed-material"
    service = SeedService(
        device, shared_seed, min_gap=min_gap, max_gap=max_gap,
        trigger_count=trigger_count,
    )
    monitor = SeedMonitor(
        verifier, channel, device.name, shared_seed,
        min_gap=min_gap, max_gap=max_gap, trigger_count=trigger_count,
        grace=grace,
    )
    return sim, device, verifier, service, monitor


class TestTriggerSchedule:
    def test_deterministic_from_seed(self):
        a = trigger_schedule(b"s", 1.0, 3.0, 10)
        b = trigger_schedule(b"s", 1.0, 3.0, 10)
        assert a == b

    def test_different_seeds_differ(self):
        assert trigger_schedule(b"s1", 1.0, 3.0, 10) != trigger_schedule(
            b"s2", 1.0, 3.0, 10
        )

    def test_gaps_within_bounds(self):
        times = trigger_schedule(b"s", 2.0, 5.0, 20)
        previous = 0.0
        for t in times:
            gap = t - previous
            assert 2.0 <= gap <= 5.0
            previous = t

    def test_invalid_gaps_rejected(self):
        with pytest.raises(ConfigurationError):
            trigger_schedule(b"s", 0.0, 3.0, 5)
        with pytest.raises(ConfigurationError):
            trigger_schedule(b"s", 3.0, 2.0, 5)

    def test_both_sides_derive_identical_schedules(self):
        sim, device, verifier, service, monitor = seed_rig()
        assert service.schedule == [
            slot.trigger_time for slot in monitor.expected
        ]


class TestHappyPath:
    def test_all_reports_arrive_and_verify(self):
        sim, device, verifier, service, monitor = seed_rig(trigger_count=5)
        service.start()
        sim.run(until=60)
        assert len(service.reports_sent) == 5
        assert monitor.missing_count() == 0
        assert monitor.verdict_series() == ["healthy"] * 5

    def test_counters_strictly_increase(self):
        sim, device, verifier, service, monitor = seed_rig(trigger_count=4)
        service.start()
        sim.run(until=60)
        counters = [r.sent_counter for r in service.reports_sent]
        assert counters == [1, 2, 3, 4]

    def test_compromise_visible_in_pushed_reports(self):
        sim, device, verifier, service, monitor = seed_rig(trigger_count=5)
        service.start()
        # Dwell-based malware resident across the middle of the run.
        TransientMalware(device, target_block=2, infect_at=4.0,
                         leave_at=11.0)
        sim.run(until=60)
        verdicts = monitor.verdict_series()
        assert "compromised" in verdicts
        assert verdicts[0] == "healthy"


class TestSecrecy:
    def test_no_advance_warning_to_software(self):
        """Malware hears about a SeED measurement only when MP actually
        starts -- there is no armed-process side channel beforehand."""
        sim, device, verifier, service, monitor = seed_rig(trigger_count=3)
        observer = MeasurementObserver(device)
        service.start()
        sim.run(until=0.5)  # before the first trigger (min_gap = 2)
        assert observer.measurement_count() == 0
        sim.run(until=60)
        assert observer.measurement_count() == 3
        for event, trigger_time in zip(
            observer.starts(), service.schedule
        ):
            assert event.time >= trigger_time


class TestCommunicationAdversary:
    def test_dropped_reports_flagged_missing(self):
        dropper = DropAdversary(probability=1.0, kind="seed_report",
                                base_latency=0.002)
        sim, device, verifier, service, monitor = seed_rig(
            trigger_count=4, filters=[dropper]
        )
        service.start()
        sim.run(until=60)
        assert dropper.dropped_count == 4
        assert monitor.missing_count() == 4
        missing = [
            r for r in verifier.results if r.verdict is Verdict.MISSING
        ]
        assert len(missing) == 4

    def test_partial_drop(self):
        import random

        dropper = DropAdversary(probability=0.5, kind="seed_report",
                                base_latency=0.002,
                                rng=random.Random(42))
        sim, device, verifier, service, monitor = seed_rig(
            trigger_count=8, filters=[dropper]
        )
        service.start()
        sim.run(until=120)
        assert monitor.missing_count() == dropper.dropped_count
        assert 0 < monitor.missing_count() < 8

    def test_replayed_reports_rejected_by_counter(self):
        replayer = ReplayAdversary("seed_report", replay_delay=0.5,
                                   copies=1, base_latency=0.002)
        sim, device, verifier, service, monitor = seed_rig(
            trigger_count=3, filters=[replayer]
        )
        service.start()
        sim.run(until=60)
        replays = [
            r for r in verifier.results if r.verdict is Verdict.REPLAY
        ]
        assert len(replays) == 3  # one per duplicated report
        assert monitor.missing_count() == 0
