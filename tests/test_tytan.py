"""TyTAN per-process measurement: partitions, records, retransmission.

The Section 3.1 claim (single-process malware caught in its own
region, a colluding pair escaping) lives in
``tests/paper/test_sec31_tytan.py``, whose rig these tests share.
"""

import pytest

from repro.errors import ConfigurationError
from repro.malware.colluding import ColludingMalware
from repro.malware.relocating import SelfRelocatingMalware
from repro.ra.report import Verdict
from repro.ra.tytan import TytanAttestation
from repro.resilience.retry import RetryPolicy
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.network import Channel, FilterVerdict

from tests.paper.test_sec31_tytan import request_verdict, tytan_rig


class TestPartitions:
    def test_install_creates_regions(self):
        _, device, _, _, _ = tytan_rig()
        assert set(device.memory.regions) == {"procA", "procB"}
        assert device.memory.regions["procA"].mutable

    def test_one_record_per_process(self):
        sim, device, verifier, driver, service = tytan_rig()
        exchange = request_verdict(sim, driver, device.name)
        regions = [record.region for record in exchange.report.records]
        assert regions == ["procA", "procB"]

    def test_clean_device_healthy(self):
        sim, device, verifier, driver, service = tytan_rig()
        exchange = request_verdict(sim, driver, device.name)
        assert exchange.result.verdict is Verdict.HEALTHY

    def test_region_required(self):
        sim = Simulator()
        device = Device(sim, block_count=8, block_size=32)
        channel = Channel(sim)
        device.attach_network(channel)
        with pytest.raises(ConfigurationError):
            TytanAttestation(device, regions=[])

    def test_request_and_reply_are_traced(self):
        """TyTAN runs the shared on-demand dispatcher, so a request
        leaves the same ``ra.request``/``ra.reply`` records as SMART."""
        sim, device, verifier, driver, service = tytan_rig()
        request_verdict(sim, driver, device.name)
        (reply,) = device.trace.filter(kind="ra.reply")
        assert reply.data == {"records": 2, "signed": False}
        assert len(device.trace.filter(kind="ra.request")) == 1


class TestSingleProcessMalware:
    def test_relocating_within_own_region_caught(self):
        sim, device, verifier, driver, service = tytan_rig()
        malware = SelfRelocatingMalware(
            device, target_block=2, infect_at=0.1,
            strategy="to-measured", home_region="procA",
        )
        malware.home_region = "procA"
        exchange = request_verdict(sim, driver, device.name)
        assert exchange.result.verdict is Verdict.COMPROMISED


class TestColludingMalware:
    """The single-target cases of the Section 3.1 sweep in
    ``tests/paper/test_sec31_tytan.py``."""

    def test_colluding_pair_escapes(self):
        """Malware spread over colluding processes defeats per-process
        measurement: the partner moves the payload out of whichever
        region is being measured."""
        sim, device, verifier, driver, service = tytan_rig()
        malware = ColludingMalware(
            device, target_block=2, infect_at=0.1,
            isolation_violated=True,
        )
        exchange = request_verdict(sim, driver, device.name)
        assert exchange.result.verdict is Verdict.HEALTHY
        # ... yet the device is still infected:
        assert malware.resident

    def test_colluding_hops_between_regions(self):
        sim, device, verifier, driver, service = tytan_rig()
        malware = ColludingMalware(
            device, target_block=2, infect_at=0.1,
            isolation_violated=True,
        )
        request_verdict(sim, driver, device.name)
        moves = [r for r in malware.history if r.action == "relocate"]
        assert len(moves) >= 2  # out of procA, then out of procB


def drop_first_report(channel):
    """Drop the first ``att_report`` on ``channel``, deliver the rest."""
    dropped = []

    def verdict_of(message):
        if message.kind == "att_report" and not dropped:
            dropped.append(message)
            return FilterVerdict.drop()
        return FilterVerdict.deliver()

    channel.add_filter(verdict_of)
    return dropped


class TestRetransmission:
    """A lost report is answered on the retransmitted challenge: the
    prover's dedup cache resends the settled report."""

    def test_lost_report_is_resent(self):
        sim, device, verifier, driver, service = tytan_rig(
            retry=RetryPolicy(timeout=2.0, max_retries=3)
        )
        dropped = drop_first_report(driver.channel)
        exchange = request_verdict(sim, driver, device.name)
        assert len(dropped) == 1
        assert (exchange.status, exchange.attempts) == ("verified", 2)
        assert exchange.result.verdict is Verdict.HEALTHY
        assert service.requests_handled == 1  # resent, not re-measured
