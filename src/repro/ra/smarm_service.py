"""SMARM as an attestation service (Section 3.2).

:class:`SmarmAttestation` configures the shared
:class:`~repro.ra.service.AttestationService` for shuffled,
interruptible measurement that locks nothing; a verifier asks for as
many rounds as its escape bound needs.  The abstract escape game it is
checked against lives in :mod:`repro.ra.smarm`.
"""

from __future__ import annotations

from repro.ra.measurement import MeasurementConfig
from repro.ra.service import AttestationService
from repro.sim.device import Device


class SmarmAttestation(AttestationService):
    """Interruptible shuffled-order on-demand RA."""

    def __init__(
        self,
        device: Device,
        algorithm: str = "blake2s",
        priority: int = 40,
        inter_round_gap: float = 0.0,
    ) -> None:
        config = MeasurementConfig(
            algorithm=algorithm,
            order="shuffled",
            atomic=False,
            locking=None,
            priority=priority,
        )
        super().__init__(
            device, config, mechanism="smarm",
            inter_round_gap=inter_round_gap,
        )
