"""Verifier-as-a-service: batched multi-prover verification under load.

The paper's verifier is a one-exchange peer; this package turns it
into a *server* -- thousands of enrolled provers on one shared sim
clock, a bounded request queue with admission control and per-tenant
token-bucket rate limits, one epoch drain that verifies each epoch's
reports in a single batch (each distinct record digested once, one
reference traversal per plain-record group), and a seeded
load generator that replays thundering-herd storms plus Poisson
on-demand traffic (docs/verifier_service.md).

Entry points:

* :class:`~repro.vserver.server.VerifierServer` -- the service core;
* :class:`~repro.vserver.loadgen.LoadGenerator` /
  :class:`~repro.vserver.loadgen.SimProver` -- seeded traffic;
* :func:`~repro.vserver.service.build_service_scenario` /
  ``Scenario.build(service=...)`` -- one-call wiring;
* ``repro serve`` -- the load-test CLI (:mod:`repro.vserver.cli`).
"""

from repro import export_lazily

__all__ = export_lazily(globals(), {
    "repro.vserver.loadgen": ("LoadGenerator", "SimProver"),
    "repro.vserver.server": (
        "LedgerEntry", "ServerConfig", "TokenBucket", "VerifierServer",
    ),
    "repro.vserver.service": (
        "SERVICE_PRESETS", "ServiceConfig", "ServiceScenario",
        "build_service_scenario",
    ),
})
