"""Measurement records and authenticated reports."""

import pytest

from repro.errors import VerificationError
from repro.ra.report import (
    AttestationReport,
    MeasurementRecord,
    Verdict,
    VerificationResult,
)


def make_record(**overrides):
    defaults = dict(
        device="prv",
        mechanism="smart",
        algorithm="blake2s",
        nonce=b"nonce123",
        counter=1,
        digest=b"\xAA" * 32,
        t_start=1.0,
        t_end=2.0,
        block_count=16,
    )
    defaults.update(overrides)
    return MeasurementRecord(**defaults)


class TestCanonicalBytes:
    def test_stable(self):
        assert make_record().canonical_bytes() == make_record().canonical_bytes()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("device", "other"),
            ("mechanism", "smarm"),
            ("algorithm", "sha256"),
            ("nonce", b"different"),
            ("counter", 2),
            ("digest", b"\xBB" * 32),
            ("t_start", 1.5),
            ("t_end", 2.5),
            ("block_count", 8),
            ("order_seed", b"seed"),
            ("region", "code"),
            ("normalized", True),
        ],
    )
    def test_every_authenticated_field_changes_bytes(self, field, value):
        assert make_record().canonical_bytes() != make_record(
            **{field: value}
        ).canonical_bytes()

    def test_audit_fields_do_not_change_bytes(self):
        """Audit instrumentation is not part of the wire format."""
        audited = make_record(
            audit_block_times=(1.0,) * 16,
            audit_block_marks=(3,) * 16,
            interruptions=5,
        )
        assert audited.canonical_bytes() == make_record().canonical_bytes()

    def test_duration(self):
        assert make_record().duration == pytest.approx(1.0)


class TestAttestationReport:
    KEY = b"shared-key"

    def test_authenticate_and_verify(self):
        report = AttestationReport.authenticate(
            self.KEY, "prv", [make_record()], sent_counter=3
        )
        assert report.verify_tag(self.KEY)

    def test_wrong_key_rejected(self):
        report = AttestationReport.authenticate(
            self.KEY, "prv", [make_record()]
        )
        assert not report.verify_tag(b"other-key")

    def test_tampered_record_rejected(self):
        report = AttestationReport.authenticate(
            self.KEY, "prv", [make_record()]
        )
        forged = AttestationReport(
            device=report.device,
            records=(make_record(digest=b"\xCC" * 32),),
            auth_tag=report.auth_tag,
            sent_counter=report.sent_counter,
        )
        assert not forged.verify_tag(self.KEY)

    def test_tampered_counter_rejected(self):
        report = AttestationReport.authenticate(
            self.KEY, "prv", [make_record()], sent_counter=1
        )
        forged = AttestationReport(
            report.device, report.records, report.auth_tag, sent_counter=9
        )
        assert not forged.verify_tag(self.KEY)

    def test_multi_record_report(self):
        records = [make_record(counter=i, t_end=float(i)) for i in (1, 2, 3)]
        report = AttestationReport.authenticate(self.KEY, "prv", records)
        assert len(report) == 3
        assert report.verify_tag(self.KEY)

    def test_newest_selects_latest_end(self):
        records = [
            make_record(counter=1, t_end=5.0),
            make_record(counter=2, t_end=9.0),
            make_record(counter=3, t_end=7.0),
        ]
        report = AttestationReport.authenticate(self.KEY, "prv", records)
        assert report.newest.counter == 2

    def test_newest_on_empty_raises(self):
        report = AttestationReport("prv", (), b"", 0)
        with pytest.raises(VerificationError):
            report.newest


class TestVerificationResult:
    def test_healthy_property(self):
        result = VerificationResult(Verdict.HEALTHY, "prv", 1.0)
        assert result.healthy
        assert not VerificationResult(Verdict.COMPROMISED, "prv", 1.0).healthy

    def test_str_contains_verdict(self):
        result = VerificationResult(
            Verdict.REPLAY, "prv", 3.0, detail="nonce mismatch"
        )
        text = str(result)
        assert "replay" in text and "nonce mismatch" in text
