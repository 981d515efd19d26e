"""ERASMUS extensions: on-demand coupling and history-deletion audit."""

import pytest

from repro.malware.transient import TransientMalware
from repro.ra.erasmus import CollectorVerifier, ErasmusService
from repro.ra.measurement import MeasurementConfig
from repro.ra.report import Verdict
from repro.ra.service import OnDemandVerifier
from repro.ra.verifier import Verifier
from repro.resilience import RetryPolicy
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.network import Channel


def coupled_rig(period=2.0):
    sim = Simulator()
    device = Device(sim, block_count=12, block_size=32)
    device.standard_layout()
    channel = Channel(sim, latency=0.002)
    device.attach_network(channel)
    verifier = Verifier(sim)
    verifier.enroll(device)
    service = ErasmusService(
        device, period=period,
        config=MeasurementConfig(atomic=True, priority=50,
                                 normalize_mutable=True),
        on_demand=True,
    )
    service.start()
    driver = OnDemandVerifier(verifier, channel,
                              endpoint_name="vrf-od")
    collector = CollectorVerifier(verifier, channel,
                                  endpoint_name="vrf-collect")
    return sim, device, verifier, service, driver, collector


class TestOnDemandCoupling:
    def test_challenge_answered_with_fresh_measurement(self):
        sim, device, verifier, service, driver, _ = coupled_rig()
        exchanges = []
        sim.schedule_at(
            5.3, lambda: exchanges.append(driver.request(device.name))
        )
        sim.run(until=10.0)
        exchange = exchanges[0]
        assert exchange.result is not None
        assert exchange.result.verdict is Verdict.HEALTHY
        record = exchange.report.records[0]
        # Fresh: measured after the challenge, bound to its nonce.
        assert record.t_start >= 5.3
        assert record.nonce == exchange.nonce
        assert service.on_demand_served == 1

    def test_on_demand_record_lands_in_history(self):
        sim, device, verifier, service, driver, collector = coupled_rig()
        sim.schedule_at(5.3, driver.request, device.name)
        sim.schedule_at(9.0, collector.collect, device.name)
        sim.run(until=12.0)
        collection = collector.collections[0]
        mechanisms = {r.mechanism for r in collection.records}
        assert "erasmus" in mechanisms and "erasmus-od" in mechanisms

    def test_on_demand_detects_current_infection(self):
        sim, device, verifier, service, driver, _ = coupled_rig()
        TransientMalware(device, target_block=2, infect_at=4.0,
                         leave_at=7.0)
        exchanges = []
        sim.schedule_at(
            5.3, lambda: exchanges.append(driver.request(device.name))
        )
        sim.run(until=10.0)
        assert exchanges[0].result.verdict is Verdict.COMPROMISED

    def test_scheduled_measurements_unaffected(self):
        sim, device, verifier, service, driver, _ = coupled_rig(period=2.0)
        sim.schedule_at(5.3, driver.request, device.name)
        sim.run(until=11.0)
        scheduled = [
            r for r in service.history if r.mechanism == "erasmus"
        ]
        assert len(scheduled) == 6  # t = 0, 2, ..., 10

    def test_disabled_by_default(self):
        sim = Simulator()
        device = Device(sim, block_count=8, block_size=32)
        device.standard_layout()
        channel = Channel(sim, latency=0.002)
        device.attach_network(channel)
        verifier = Verifier(sim)
        verifier.enroll(device)
        service = ErasmusService(device, period=2.0)
        service.start()
        driver = OnDemandVerifier(verifier, channel,
                                  endpoint_name="vrf-od")
        exchange = driver.request(device.name)
        sim.run(until=10.0)
        assert exchange.result is None  # nobody answers challenges


class TestRetransmittedChallenge:
    """A retransmitted challenge is absorbed by the prover's nonce dedup
    instead of starting another concurrent measurement."""

    def rig(self, max_retries):
        sim = Simulator()
        device = Device(sim, block_count=16, block_size=32,
                        sim_block_size=4 << 20)
        device.standard_layout()
        channel = Channel(sim, latency=0.002)
        device.attach_network(channel)
        verifier = Verifier(sim)
        verifier.enroll(device)
        service = ErasmusService(device, period=100.0, on_demand=True)
        service.start()
        driver = OnDemandVerifier(
            verifier, channel, endpoint_name="vrf-od",
            retry=RetryPolicy(timeout=0.05, max_retries=max_retries,
                              jitter=0.0),
        )
        exchanges = []
        sim.schedule_at(
            5.0, lambda: exchanges.append(driver.request(device.name))
        )
        return sim, device, verifier, service, exchanges

    def test_measures_once_and_verifies(self):
        sim, device, verifier, service, exchanges = self.rig(3)
        sim.run(until=10.0)
        exchange = exchanges[0]
        assert exchange.attempts == 4  # the measurement outlasts 3 waits
        assert exchange.status == "verified"
        assert service.on_demand_served == 1
        assert [r.verdict for r in verifier.results] == [Verdict.HEALTHY]
        assert len(device.trace.filter(kind="ra.dedup")) == 3

    def test_reset_frees_the_nonce_of_a_killed_measurement(self):
        sim, device, verifier, service, exchanges = self.rig(5)
        sim.schedule_at(5.2, device.reset)  # mid-measurement brownout
        sim.run(until=10.0)
        exchange = exchanges[0]
        assert exchange.status == "verified"
        assert service.on_demand_served == 1
        assert exchange.report.records[0].t_start > 5.2


class TestHistoryDeletionAudit:
    def run_with_deletion(self, delete_span=None):
        sim, device, verifier, service, driver, collector = coupled_rig(
            period=2.0
        )
        if delete_span is not None:
            lo, hi = delete_span

            def delete_records():
                service.history[:] = [
                    r for r in service.history
                    if not (lo <= r.t_start <= hi)
                ]

            sim.schedule_at(hi + 0.5, delete_records)
        results = []
        sim.schedule_at(
            15.0, collector.collect, device.name, results.append
        )
        sim.run(until=18.0)
        return results[0]

    def test_clean_history_has_no_gaps(self):
        collection = self.run_with_deletion(None)
        assert collection.result.verdict is Verdict.HEALTHY
        assert collection.cadence_gaps(period=2.0) == []

    def test_deleted_window_exposed_as_gap(self):
        """Malware deletes the records covering its residency; the
        verifier cannot recover them (fine: it couldn't forge either)
        but the hole in the T_M cadence is evidence by itself."""
        collection = self.run_with_deletion(delete_span=(5.0, 9.0))
        gaps = collection.cadence_gaps(period=2.0)
        assert len(gaps) == 1
        gap_start, gap_end = gaps[0]
        assert gap_start <= 5.0 <= gap_end
        assert gap_start <= 9.0 <= gap_end

    def test_trailing_gap_detected(self):
        """Deleting the newest records (or halting self-measurement)
        shows up as a stale newest record at collection time."""
        collection = self.run_with_deletion(delete_span=(9.0, 14.5))
        gaps = collection.cadence_gaps(period=2.0)
        assert gaps
        assert gaps[-1][1] == pytest.approx(collection.collected_at)

    def test_context_aware_jitter_not_flagged(self):
        """Deferrals within the tolerance band are normal operation."""
        collection = self.run_with_deletion(None)
        # Even a tight tolerance of 1.5 periods tolerates honest jitter.
        assert collection.cadence_gaps(period=2.0, tolerance=1.5) == []
