"""ERASMUS: self-measurement cadence, collection, QoA behaviour."""

import pytest

from repro.errors import ConfigurationError
from repro.malware.transient import TransientMalware
from repro.ra.erasmus import CollectorVerifier, ErasmusService
from repro.ra.measurement import MeasurementConfig
from repro.ra.report import Verdict
from repro.ra.verifier import Verifier
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.network import Channel


def erasmus_rig(period=2.0, history_size=64, scheduler=None,
                atomic=True, sim_block_size=None):
    sim = Simulator()
    device = Device(sim, block_count=12, block_size=32,
                    sim_block_size=sim_block_size)
    device.standard_layout()
    channel = Channel(sim, latency=0.002)
    device.attach_network(channel)
    verifier = Verifier(sim)
    verifier.enroll(device)
    config = MeasurementConfig(
        algorithm="blake2s", order="sequential", atomic=atomic,
        priority=50, normalize_mutable=True,
    )
    service = ErasmusService(
        device, period=period, config=config,
        history_size=history_size, scheduler=scheduler,
    )
    collector = CollectorVerifier(verifier, channel)
    return sim, device, verifier, service, collector


class TestSelfMeasurement:
    def test_cadence(self):
        sim, device, _, service, _ = erasmus_rig(period=2.0)
        service.start()
        sim.run(until=11.0)
        assert service.measurements_done == 6  # t = 0, 2, ..., 10
        starts = [record.t_start for record in service.history]
        for index, start in enumerate(starts):
            assert start == pytest.approx(index * 2.0, abs=0.1)

    def test_counters_monotonic(self):
        sim, _, _, service, _ = erasmus_rig()
        service.start()
        sim.run(until=9.0)
        counters = [record.counter for record in service.history]
        assert counters == sorted(counters)
        assert len(set(counters)) == len(counters)

    def test_history_ring_buffer(self):
        sim, _, _, service, _ = erasmus_rig(period=1.0, history_size=4)
        service.start()
        sim.run(until=10.5)
        assert len(service.history) == 4
        assert service.dropped_records == 7
        # Newest records are kept.
        assert service.history[-1].counter == service.measurements_done

    def test_invalid_period_rejected(self):
        sim = Simulator()
        device = Device(sim, block_count=4, block_size=16)
        with pytest.raises(ConfigurationError):
            ErasmusService(device, period=0.0)

    def test_nan_period_rejected(self):
        sim = Simulator()
        device = Device(sim, block_count=4, block_size=16)
        with pytest.raises(ConfigurationError, match="T_M must be positive"):
            ErasmusService(device, period=float("nan"))


class TestCollection:
    def test_collection_returns_history(self):
        sim, device, verifier, service, collector = erasmus_rig(period=2.0)
        service.start()
        results = []
        sim.schedule_at(
            9.0, collector.collect, device.name, results.append
        )
        sim.run(until=12.0)
        assert len(results) == 1
        collection = results[0]
        assert collection.result.verdict is Verdict.HEALTHY
        assert len(collection.records) == 5
        assert collection.result.freshness is not None

    def test_periodic_collections(self):
        sim, device, verifier, service, collector = erasmus_rig(period=1.0)
        service.start()
        collector.collect_every(device.name, period=5.0, count=3)
        sim.run(until=16.0)
        assert len(collector.collections) == 3

    def test_transient_spanning_measurement_detected(self):
        sim, device, verifier, service, collector = erasmus_rig(period=2.0)
        service.start()
        TransientMalware(device, target_block=2, infect_at=2.5,
                         leave_at=4.5)  # spans measurement at t=4
        sim.schedule_at(9.0, collector.collect, device.name)
        sim.run(until=12.0)
        collection = collector.collections[0]
        assert collection.result.verdict is Verdict.COMPROMISED
        # The dirty interval localizes the infection around t=4.
        assert any(
            start <= 4.0 <= end + 0.5
            for start, end in collection.dirty_intervals
        )

    def test_transient_between_measurements_missed(self):
        sim, device, verifier, service, collector = erasmus_rig(period=2.0)
        service.start()
        TransientMalware(device, target_block=2, infect_at=2.2,
                         leave_at=3.8)  # strictly inside (2, 4)
        sim.schedule_at(9.0, collector.collect, device.name)
        sim.run(until=12.0)
        assert collector.collections[0].result.verdict is Verdict.HEALTHY

    def test_collection_replay_rejected(self):
        """A replayed (old) collection reply carries a stale counter."""
        sim, device, verifier, service, collector = erasmus_rig(period=1.0)
        service.start()
        collector.collect_every(device.name, period=3.0, count=2)
        sim.run(until=8.0)
        first = collector.collections[0].result
        assert first.verdict is Verdict.HEALTHY
        # Re-present the first (older) report verbatim: the monotonic
        # counter of the collection stream has moved on, so it must be
        # flagged as a replay.
        replayed = verifier.verify_report(
            collector.collections[0].report, enforce_counter=True,
            counter_stream="erasmus-collect",
        )
        assert replayed.verdict is Verdict.REPLAY


class TestContextAwareScheduling:
    def test_scheduler_defers_measurement(self):
        deferred = []

        def scheduler(device, nominal, index):
            deferred.append(nominal)
            return nominal + 0.25

        sim, _, _, service, _ = erasmus_rig(period=2.0,
                                            scheduler=scheduler)
        service.start()
        sim.run(until=7.0)
        starts = [record.t_start for record in service.history]
        for index, start in enumerate(starts):
            assert start == pytest.approx(index * 2.0 + 0.25, abs=0.1)

    def test_scheduler_cannot_move_measurement_earlier(self):
        def scheduler(device, nominal, index):
            return nominal - 5.0  # clamped to nominal

        sim, _, _, service, _ = erasmus_rig(period=2.0,
                                            scheduler=scheduler)
        service.start()
        sim.run(until=5.0)
        starts = [record.t_start for record in service.history]
        assert starts[1] >= 2.0 - 1e-9
