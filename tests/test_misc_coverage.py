"""Edge cases not covered by the module-focused suites."""

import pytest

from repro.ra.locking import make_policy
from repro.ra.measurement import MeasurementConfig, MeasurementProcess
from repro.ra.verifier import Verifier
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.network import Channel


class TestReleaseTrace:
    def test_extended_lock_release_traced(self):
        sim = Simulator()
        device = Device(sim, block_count=6, block_size=16)
        config = MeasurementConfig(
            locking=make_policy("all-lock-ext"), release_delay=2.0,
        )
        mp = MeasurementProcess(device, config, nonce=b"n")
        device.cpu.spawn("mp", mp.run, priority=50)
        sim.run(until=30)
        release = device.trace.first("mp.release")
        assert release is not None
        assert release.time == pytest.approx(mp.record.t_release)


class TestChannelTrace:
    def test_sends_and_drops_recorded(self):
        from repro.sim.trace import Trace
        from repro.sim.network import DropAdversary

        sim = Simulator()
        trace = Trace()
        channel = Channel(sim, latency=0.01, trace=trace)
        channel.add_filter(
            DropAdversary(probability=1.0, kind="secret",
                          base_latency=0.01)
        )
        a = channel.make_endpoint("a")
        channel.make_endpoint("b")
        a.send("b", "hello", None)
        a.send("b", "secret", None)
        sim.run()
        assert len(trace.filter(kind="net.send")) == 1
        assert len(trace.filter(kind="net.drop")) == 1


class TestVerifierDetails:
    def test_nonce_length_parameter(self):
        sim = Simulator()
        device = Device(sim, block_count=4, block_size=16)
        verifier = Verifier(sim)
        verifier.enroll(device)
        assert len(verifier.new_nonce(device.name, length=24)) == 24
        profile = verifier.profile(device.name)
        assert profile.outstanding_nonce is not None

    def test_trace_hook_records_verdicts(self):
        from repro.ra.report import AttestationReport
        from repro.sim.trace import Trace

        sim = Simulator()
        device = Device(sim, block_count=4, block_size=16)
        trace = Trace()
        verifier = Verifier(sim, trace=trace)
        verifier.enroll(device)
        report = AttestationReport.authenticate(
            device.attestation_key, device.name, []
        )
        verifier.verify_report(report)
        assert len(trace.filter(kind="vrf.verdict")) == 1


class TestMemoryClockDefault:
    def test_unwired_memory_timestamps_zero(self):
        from repro.sim.memory import Memory

        memory = Memory(4, 16)
        memory.write(0, b"\x00" * 16, "w")
        assert memory.write_times == [0.0]


class TestInterRoundGap:
    def test_smarm_passes_spaced_by_gap(self):
        from repro.ra.service import AttestationService, OnDemandVerifier

        sim = Simulator()
        device = Device(sim, block_count=8, block_size=16)
        channel = Channel(sim, latency=0.002)
        device.attach_network(channel)
        verifier = Verifier(sim)
        verifier.enroll(device)
        service = AttestationService(
            device,
            MeasurementConfig(order="shuffled", priority=50),
            mechanism="smarm",
            inter_round_gap=0.5,
        )
        service.install()
        driver = OnDemandVerifier(verifier, channel)
        exchange = driver.request(device.name, rounds=3)
        sim.run(until=60)
        records = exchange.report.records
        for earlier, later in zip(records, records[1:]):
            assert later.t_start - earlier.t_end >= 0.5 - 1e-9


class TestSwarmResultQueries:
    def test_result_for_unknown_nonce(self):
        from repro.ra.verifier import Verifier as Vrf
        from repro.swarm import SwarmAttestation, make_topology

        sim = Simulator()
        topology = make_topology(sim, count=3, shape="star")
        swarm = SwarmAttestation(topology, Vrf(sim))
        assert swarm.result_for(b"nope") is None
