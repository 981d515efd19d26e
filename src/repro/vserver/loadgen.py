"""Seeded load generation: storm cohorts and Poisson on-demand traffic.

A :class:`SimProver` is a protocol-level prover stub: it owns an
attestation key and a memory image (shared with its cohort), keeps a
SeED-style push counter and an ERASMUS-style history ring, and on
:meth:`~SimProver.emit` ships an authenticated report -- genuinely
computed over its own image, so a tampered prover produces honest
``compromised`` verdicts, not injected ones.  It deliberately skips
the CPU/scheduler model of :class:`~repro.sim.device.Device`: a
10 000-prover storm has to be cheap to *generate* so the thing under
test is the server.

The :class:`LoadGenerator` schedules traffic deterministically: a
*thundering herd* places one emit per prover uniformly inside a
window (a whole cohort's secure timers firing together -- the SeED
worst case), and Poisson traffic walks exponential gaps, picking a
prover per event.  All randomness comes from one
:class:`~repro.crypto.drbg.HmacDrbg`, consumed at schedule-build
time, so the same seed always yields the same event sequence.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.crypto.drbg import HmacDrbg
from repro.errors import ConfigurationError
from repro.obs.tracectx import TraceContext
from repro.ra.measurement import expected_digest
from repro.ra.report import AttestationReport, MeasurementRecord
from repro.ra.verifier import Verifier, frozen_blocks
from repro.sim.engine import Simulator
from repro.sim.network import Endpoint


def cohort_image(
    name: str, blocks: int, block_size: int, seed: bytes = b"vserver-img"
) -> Tuple[bytes, ...]:
    """The deterministic benign memory image a cohort shares."""
    drbg = HmacDrbg(seed + b"|" + name.encode())
    return tuple(drbg.generate(block_size) for _ in range(blocks))


def prover_key(name: str, seed: bytes = b"vserver-keys") -> bytes:
    """Per-prover attestation key, derived deterministically."""
    return HmacDrbg(seed + b"|" + name.encode()).generate(32)


class SimProver:
    """One enrolled prover: key, image, push counter, history ring."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        key: bytes,
        image: Sequence[bytes],
        endpoint: Endpoint,
        server: str = "vsrv",
        kind: str = "seed_report",
        history_size: int = 3,
        algorithm: str = "sha256",
        compromised: bool = False,
    ) -> None:
        if history_size < 1:
            raise ConfigurationError("history_size must be >= 1")
        self.sim = sim
        self.name = name
        self.key = key
        self.endpoint = endpoint
        self.server = server
        self.kind = kind
        self.history_size = history_size
        self.algorithm = algorithm
        self.compromised = compromised
        image = frozen_blocks(image)
        if compromised:
            # honest compromise: the prover measures what it actually
            # holds, and what it holds diverges from the reference
            tampered = list(image)
            tampered[0] = bytes(
                byte ^ 0xFF for byte in tampered[0]
            )
            image = tuple(tampered)
        self.image = image
        self.counter = 0
        self.history: List[MeasurementRecord] = []
        self.sent = 0

    def enroll(self, verifier: Verifier,
               reference: Sequence[bytes]) -> None:
        """Register with the verifier under the cohort *reference*
        image (which a compromised prover's own image diverges from)."""
        verifier.enroll(self.name, key=self.key, reference=reference)

    def measure(self) -> MeasurementRecord:
        """One self-measurement over the prover's own image."""
        self.counter += 1
        nonce = b"push" + self.counter.to_bytes(8, "big")
        now = self.sim.now
        digest = expected_digest(
            self.key, self.image, self.algorithm, nonce, self.counter,
            range(len(self.image)), "sequential", b"",
        )
        record = MeasurementRecord(
            device=self.name,
            mechanism="vserver-load",
            algorithm=self.algorithm,
            nonce=nonce,
            counter=self.counter,
            digest=digest,
            t_start=now,
            t_end=now,
            block_count=len(self.image),
        )
        self.history.append(record)
        if len(self.history) > self.history_size:
            self.history.pop(0)
        return record

    def emit(self) -> AttestationReport:
        """Measure, wrap the history ring in a report, and send it."""
        self.measure()
        report = AttestationReport.authenticate(
            self.key, self.name, list(self.history),
            sent_counter=self.counter,
        )
        # The prover initiates the push, so it mints the exchange's
        # trace context (deterministic: name + push counter); gated on
        # obs so NULL_OBS storms allocate nothing.
        ctx = (
            TraceContext.mint("vserver", self.name, self.counter)
            if self.sim.obs.enabled else None
        )
        self.endpoint.send(self.server, self.kind, report, ctx=ctx)
        self.sent += 1
        return report


class LoadGenerator:
    """Deterministic storm + Poisson traffic over a prover population."""

    def __init__(
        self,
        sim: Simulator,
        provers: Sequence[SimProver],
        seed: bytes = b"vserver-load",
    ) -> None:
        if not provers:
            raise ConfigurationError("load generator needs provers")
        self.sim = sim
        self.provers = list(provers)
        self.drbg = HmacDrbg(seed + b"|loadgen")
        self.scheduled = 0

    def schedule_storm(
        self,
        at: float,
        window: float,
        provers: Optional[Sequence[SimProver]] = None,
    ) -> int:
        """Thundering herd: every prover emits once, uniformly inside
        ``[at, at + window]`` -- a whole cohort's secure timers firing
        in the same window."""
        pool = self.provers if provers is None else list(provers)
        for prover in pool:
            self.sim.schedule_at(
                at + self.drbg.uniform() * window, prover.emit
            )
        self.scheduled += len(pool)
        return len(pool)

    def schedule_poisson(
        self,
        start: float,
        until: float,
        mean_gap: float,
        provers: Optional[Sequence[SimProver]] = None,
    ) -> int:
        """Poisson on-demand traffic: exponential inter-arrival gaps,
        one uniformly drawn prover per arrival."""
        if mean_gap <= 0:
            raise ConfigurationError("mean_gap must be positive")
        pool = self.provers if provers is None else list(provers)
        count = 0
        at = start + self.drbg.exponential(mean_gap)
        while at < until:
            prover = pool[self.drbg.randbelow(len(pool))]
            self.sim.schedule_at(at, prover.emit)
            count += 1
            at += self.drbg.exponential(mean_gap)
        self.scheduled += count
        return count
