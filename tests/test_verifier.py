"""The verifier: reference database, verdicts, replay defenses."""

import pytest

from repro.errors import ConfigurationError
from repro.ra.measurement import MeasurementConfig, MeasurementProcess
from repro.ra.report import AttestationReport, Verdict
from repro.ra.verifier import Verifier
from repro.sim.device import Device
from repro.sim.engine import Simulator


def measured_record(device, nonce=b"n", counter=1, **config_kwargs):
    config = MeasurementConfig(**config_kwargs)
    mp = MeasurementProcess(device, config, nonce=nonce, counter=counter)
    device.cpu.spawn("mp", mp.run, priority=50)
    device.sim.run(until=device.sim.now + 100)
    return mp.record


def fresh_stack():
    sim = Simulator()
    device = Device(sim, block_count=8, block_size=32)
    device.standard_layout()
    verifier = Verifier(sim)
    verifier.enroll(device)
    return sim, device, verifier


class TestRegistry:
    def test_enroll_captures_reference(self):
        _, device, verifier = fresh_stack()
        profile = verifier.profile(device.name)
        assert len(profile.reference) == device.block_count
        assert profile.key == device.attestation_key
        assert set(profile.region_map) == {"code", "data"}
        assert profile.mutable_blocks == frozenset(
            device.memory.regions["data"].blocks()
        )

    def test_enroll_idempotent_and_attaches_signing(self):
        _, device, verifier = fresh_stack()
        first = verifier.profile(device.name)
        marker = object()
        again = verifier.enroll(device, signing=marker)
        assert again is first
        assert first.public_identity is marker

    def test_unknown_device_rejected(self):
        sim = Simulator()
        verifier = Verifier(sim)
        with pytest.raises(ConfigurationError):
            verifier.profile("ghost")

    def test_report_from_unknown_device_is_invalid(self):
        """Logged as a verdict, batched as serially, instead of raising
        out of the verifier."""
        _, device, verifier = fresh_stack()
        record = measured_record(device)
        report = AttestationReport.authenticate(
            device.attestation_key, "ghost", [record], sent_counter=1
        )
        serial = verifier.verify_report(report)
        batched = verifier.verify_batch([(report, {})])[0]
        for result in (serial, batched):
            assert (result.verdict, result.detail) == (
                Verdict.INVALID, "unknown device 'ghost'"
            )
        assert verifier.results == [serial, batched]

    def test_nonces_unique(self):
        _, device, verifier = fresh_stack()
        nonces = {verifier.new_nonce(device.name) for _ in range(50)}
        assert len(nonces) == 50


class TestRecordVerdicts:
    def test_clean_device_healthy(self):
        _, device, verifier = fresh_stack()
        record = measured_record(device)
        assert verifier.verify_record(record) is Verdict.HEALTHY

    def test_dirty_code_block_compromised(self):
        _, device, verifier = fresh_stack()
        device.memory.write(1, b"\xBA" * 32, "malware")
        record = measured_record(device)
        assert verifier.verify_record(record) is Verdict.COMPROMISED

    def test_shuffled_record_verifiable(self):
        _, device, verifier = fresh_stack()
        record = measured_record(device, order="shuffled")
        assert verifier.verify_record(record) is Verdict.HEALTHY

    def test_normalized_record_with_data_writes_healthy(self):
        _, device, verifier = fresh_stack()
        data_block = device.memory.regions["data"].start
        device.memory.write(data_block, b"\x12" * 32, "app")
        record = measured_record(device, normalize_mutable=True)
        assert verifier.verify_record(record) is Verdict.HEALTHY

    def test_region_record_verifiable(self):
        _, device, verifier = fresh_stack()
        record = measured_record(device, region="code")
        assert verifier.verify_record(record) is Verdict.HEALTHY

    def test_region_record_blind_to_other_regions(self):
        _, device, verifier = fresh_stack()
        data_block = device.memory.regions["data"].start
        device.memory.write(data_block, b"\xBA" * 32, "malware")
        record = measured_record(device, region="code")
        assert verifier.verify_record(record) is Verdict.HEALTHY

    def test_unknown_region_rejected(self):
        import dataclasses

        _, device, verifier = fresh_stack()
        record = measured_record(device)
        forged = dataclasses.replace(record, region="ghost")
        with pytest.raises(ConfigurationError):
            verifier.verify_record(forged)


class TestReportVerdicts:
    def make_report(self, device, records, counter=1):
        return AttestationReport.authenticate(
            device.attestation_key, device.name, records,
            sent_counter=counter,
        )

    def test_healthy_report(self):
        _, device, verifier = fresh_stack()
        record = measured_record(device)
        result = verifier.verify_report(self.make_report(device, [record]))
        assert result.verdict is Verdict.HEALTHY
        assert result.freshness is not None

    def test_empty_report_invalid(self):
        _, device, verifier = fresh_stack()
        result = verifier.verify_report(self.make_report(device, []))
        assert result.verdict is Verdict.INVALID

    def test_bad_tag_invalid(self):
        _, device, verifier = fresh_stack()
        record = measured_record(device)
        report = AttestationReport(
            device.name, (record,), b"\x00" * 32, 1
        )
        result = verifier.verify_report(report)
        assert result.verdict is Verdict.INVALID

    def test_nonce_mismatch_is_replay(self):
        _, device, verifier = fresh_stack()
        record = measured_record(device, nonce=b"old")
        result = verifier.verify_report(
            self.make_report(device, [record]), expected_nonce=b"new"
        )
        assert result.verdict is Verdict.REPLAY

    def test_nonce_reuse_is_replay(self):
        _, device, verifier = fresh_stack()
        record = measured_record(device, nonce=b"once")
        report = self.make_report(device, [record])
        first = verifier.verify_report(report, expected_nonce=b"once")
        assert first.verdict is Verdict.HEALTHY
        second = verifier.verify_report(report, expected_nonce=b"once")
        assert second.verdict is Verdict.REPLAY

    def test_counter_regression_is_replay(self):
        _, device, verifier = fresh_stack()
        record = measured_record(device)
        newer = self.make_report(device, [record], counter=5)
        older = self.make_report(device, [record], counter=4)
        assert verifier.verify_report(
            newer, enforce_counter=True
        ).verdict is Verdict.HEALTHY
        assert verifier.verify_report(
            older, enforce_counter=True
        ).verdict is Verdict.REPLAY

    def test_mixed_record_report_compromised(self):
        _, device, verifier = fresh_stack()
        clean = measured_record(device, counter=1)
        device.memory.write(0, b"\xBA" * 32, "malware")
        dirty = measured_record(device, nonce=b"m", counter=2)
        result = verifier.verify_report(
            self.make_report(device, [clean, dirty])
        )
        assert result.verdict is Verdict.COMPROMISED
        assert result.record_verdicts == [
            Verdict.HEALTHY, Verdict.COMPROMISED,
        ]

    def test_results_history_and_counts(self):
        _, device, verifier = fresh_stack()
        record = measured_record(device)
        verifier.verify_report(self.make_report(device, [record]))
        verifier.verify_report(self.make_report(device, []))
        counts = verifier.verdict_counts()
        assert counts == {"healthy": 1, "invalid": 1}
