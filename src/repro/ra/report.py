"""Measurement records, attestation reports, verification results.

A :class:`MeasurementRecord` is the outcome of one run of the
measurement process MP: the keyed digest over the traversed memory plus
the protocol metadata the verifier needs to recompute the expected
value (nonce, traversal-order seed, counter).  An
:class:`AttestationReport` wraps one or more records (ERASMUS
collection returns many) and authenticates them with an HMAC under the
shared attestation key, or optionally a digital signature.

Records also carry *audit* fields -- per-block snapshot times and
write-log marks -- that exist only for the simulation's consistency
analysis (Figure 4).  They are excluded from the authenticated
serialization, because a real prover would not ship them.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.crypto.hmac import constant_time_equal, hmac_digest
from repro.errors import VerificationError


@dataclass(frozen=True)
class MeasurementRecord:
    """One completed measurement of prover memory."""

    device: str
    mechanism: str
    algorithm: str
    nonce: bytes
    counter: int
    digest: bytes
    t_start: float
    t_end: float
    block_count: int
    order_seed: bytes = b""
    #: named region measured ("" = all of M); TyTAN measures per process
    region: str = ""
    #: True when mutable (data) regions contributed zeros to the digest
    #: -- Section 2.3's "Prv can easily zero it out before executing MP"
    normalized: bool = False
    #: Section 2.3's alternative: a verbatim, *authenticated* copy of
    #: the mutable region's measured contents, shipped with the report
    #: so the verifier can reproduce the digest ("accompanied by a copy
    #: of D"); empty unless the measurement used ``attach_mutable``
    data_copy: Tuple[Tuple[int, bytes], ...] = ()
    #: when the lock (if any) was finally released; None = no hold
    t_release: Optional[float] = None
    #: how many times MP lost the CPU during this measurement
    interruptions: int = 0
    #: audit-only: time each block was snapshotted, indexed by block id
    audit_block_times: Tuple[float, ...] = ()
    #: audit-only: length of the memory's write log when each block was
    #: read, by block id (-1 = not measured); the Figure 4 analyzer
    #: recovers the block's measured contents from the log up to it
    audit_block_marks: Tuple[int, ...] = ()

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization of the authenticated fields."""
        head = "|".join(
            (self.device, self.mechanism, self.algorithm, self.region)
        ).encode() + (b"\x01" if self.normalized else b"\x00")
        times = struct.pack(">dd", self.t_start, self.t_end)
        attached = b"".join(
            struct.pack(">I", index) + content
            for index, content in self.data_copy
        )
        return b"|".join(
            (
                head,
                self.nonce,
                struct.pack(">QI", self.counter, self.block_count),
                self.digest,
                self.order_seed,
                times,
                attached,
            )
        )


class Verdict(enum.Enum):
    """Outcome of verifying one record or report."""

    HEALTHY = "healthy"
    COMPROMISED = "compromised"
    INVALID = "invalid"  # bad authentication / malformed
    REPLAY = "replay"
    MISSING = "missing"  # expected (SeED) report never arrived


@dataclass
class VerificationResult:
    """The verifier's conclusion about one report."""

    verdict: Verdict
    device: str
    verified_at: float
    detail: str = ""
    #: per-record verdicts for multi-record (ERASMUS) reports
    record_verdicts: List[Verdict] = field(default_factory=list)
    #: freshness: age of the newest measurement at verification time
    freshness: Optional[float] = None

    @property
    def healthy(self) -> bool:
        return self.verdict is Verdict.HEALTHY

    def __str__(self) -> str:
        base = f"{self.device}: {self.verdict.value} @ {self.verified_at:.3f}"
        return f"{base} ({self.detail})" if self.detail else base


@dataclass(frozen=True)
class AttestationReport:
    """Authenticated container of measurement records.

    ``auth_tag`` is an HMAC over all records' canonical bytes under the
    attestation key; :meth:`authenticate` builds it, :meth:`verify_tag`
    checks it.  When non-repudiation is required the same canonical
    bytes can instead be signed (see :mod:`repro.ra.smart`'s signature
    option), matching Section 2.4's MAC-vs-signature discussion.
    """

    device: str
    records: Tuple[MeasurementRecord, ...]
    auth_tag: bytes
    sent_counter: int = 0
    #: optional digital signature over the tag input (Section 2.4's
    #: non-repudiation option); empty for MAC-only reports
    signature: bytes = b""
    #: signature scheme name ("rsa2048", "ecdsa256", ...) or ""
    scheme: str = ""

    @staticmethod
    def _tag_input(device: str, records: Tuple[MeasurementRecord, ...],
                   sent_counter: int) -> bytes:
        body = b"\x1f".join(rec.canonical_bytes() for rec in records)
        return device.encode() + struct.pack(">Q", sent_counter) + body

    @classmethod
    def authenticate(
        cls,
        key: bytes,
        device: str,
        records: List[MeasurementRecord],
        sent_counter: int = 0,
        algorithm: str = "sha256",
    ) -> "AttestationReport":
        """Build a report with a fresh HMAC tag."""
        recs = tuple(records)
        tag = hmac_digest(
            key, cls._tag_input(device, recs, sent_counter), algorithm
        )
        return cls(device, recs, tag, sent_counter)

    def verify_tag(self, key: bytes, algorithm: str = "sha256") -> bool:
        expected = hmac_digest(
            key,
            self._tag_input(self.device, self.records, self.sent_counter),
            algorithm,
        )
        return constant_time_equal(expected, self.auth_tag)

    def signing_input(self) -> bytes:
        """The bytes a digital signature covers (same as the MAC)."""
        return self._tag_input(self.device, self.records,
                               self.sent_counter)

    def with_signature(self, signature: bytes,
                       scheme: str) -> "AttestationReport":
        """A copy of this report carrying a digital signature."""
        import dataclasses

        return dataclasses.replace(
            self, signature=signature, scheme=scheme
        )

    @property
    def newest(self) -> MeasurementRecord:
        if not self.records:
            raise VerificationError("empty report")
        return max(self.records, key=lambda r: r.t_end)

    def __len__(self) -> int:
        return len(self.records)
