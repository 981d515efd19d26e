"""Remote attestation mechanisms -- the paper's subject matter.

One module per point in the solution landscape (Section 3):

* :mod:`repro.ra.smart` -- the baseline: atomic on-demand RA (SMART);
* :mod:`repro.ra.locking` -- No-Lock / All-Lock / All-Lock-Ext /
  Dec-Lock / Inc-Lock / Inc-Lock-Ext consistency mechanisms;
* :mod:`repro.ra.smarm_service` -- interruptible shuffled measurements
  (SMARM); :mod:`repro.ra.smarm` is its abstract escape game;
* :mod:`repro.ra.erasmus` -- periodic self-measurement (ERASMUS);
* :mod:`repro.ra.seed` -- prover-initiated non-interactive RA (SeED);
* :mod:`repro.ra.tytan` -- per-process measurement (TyTAN model);
* :mod:`repro.ra.software` -- software-only timing-based RA for legacy
  devices (Pioneer model, including its documented failure mode);
* :mod:`repro.ra.signing` -- signed (non-repudiable) reports, §2.4;

supported by:

* :mod:`repro.ra.report` -- measurement records and attestation reports;
* :mod:`repro.ra.measurement` -- the block-traversal measurement engine;
* :mod:`repro.ra.verifier` -- the trusted verifier.

Every name below is exported lazily: ``from repro.ra import Verifier``
imports :mod:`repro.ra.verifier` (and what it needs), no mechanism.
"""

from repro import export_lazily

__all__ = export_lazily(globals(), {
    "repro.ra.report": (
        "AttestationReport", "MeasurementRecord", "VerificationResult",
        "Verdict",
    ),
    "repro.ra.measurement": ("MeasurementConfig", "MeasurementProcess"),
    "repro.ra.locking": (
        "LockingPolicy", "NoLock", "AllLock", "DecLock", "IncLock",
        "make_policy", "POLICY_NAMES",
    ),
    "repro.ra.verifier": ("Verifier",),
    "repro.ra.smart": ("SmartAttestation",),
    "repro.ra.smarm_service": ("SmarmAttestation",),
    "repro.ra.erasmus": ("ErasmusService", "CollectionResult"),
    "repro.ra.seed": ("SeedService",),
    "repro.ra.tytan": ("TytanAttestation", "ProcessPartition"),
    "repro.ra.software": ("SoftwareAttestation", "SoftwareVerifier"),
    "repro.ra.signing": (
        "PublicIdentity", "SigningIdentity", "make_signing_identity",
    ),
})
