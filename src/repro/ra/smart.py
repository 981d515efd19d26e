"""SMART-style atomic on-demand attestation -- the baseline.

SMART [12] runs MP uninterruptibly: interrupts are disabled as the
first step, the whole of M is measured sequentially, and only then is
control returned.  This gives (coincidental) temporal consistency and
defeats both self-relocating and transient malware *that is resident
when MP starts* -- at the price of blocking every other task for the
entire measurement, which Section 2.5's fire-alarm scenario shows can
be disastrous.

:class:`SmartAttestation` is a thin configuration of the shared
:class:`~repro.ra.service.AttestationService`:

* ``atomic=True`` -- the measurement masks interrupts;
* sequential traversal, no locking (the atomic section *is* the lock);
* highest priority (HYDRA's implementation detail: the attestation
  process out-prioritizes everything, on top of atomicity).

The optional ``signature`` argument switches report authentication
from HMAC to a real digital signature (RSA or ECDSA from
:mod:`repro.crypto`), matching Section 2.4's discussion of
non-repudiation; the signing cost is charged to the prover CPU.
"""

from __future__ import annotations

from typing import Optional

from repro.ra.measurement import MeasurementConfig
from repro.ra.service import AttestationService
from repro.ra.signing import make_signing_identity
from repro.sim.device import Device

#: priority above any application task: the HYDRA convention
MP_PRIORITY = 1000


class SmartAttestation(AttestationService):
    """Atomic, sequential, uninterruptible on-demand RA."""

    def __init__(
        self,
        device: Device,
        algorithm: str = "blake2s",
        signature: Optional[str] = None,
    ) -> None:
        config = MeasurementConfig(
            algorithm=algorithm,
            order="sequential",
            atomic=True,
            locking=None,
            priority=MP_PRIORITY,
        )
        super().__init__(device, config, mechanism="smart")
        self.signature = signature
        if signature is not None:
            seed = f"prv-key:{device.name}:{signature}".encode()
            self.signer = make_signing_identity(signature, seed)
