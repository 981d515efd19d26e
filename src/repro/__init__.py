"""repro: a simulation-based reproduction of
*"Reconciling Remote Attestation and Safety-Critical Operation on
Simple IoT Devices"* (Carpent, Eldefrawy, Rattanavipanon, Sadeghi,
Tsudik -- DAC 2018).

The package builds the whole stack the paper assumes:

* :mod:`repro.sim` -- a discrete-event simulator of a simple prover
  device (CPU with priority preemption and interrupt masking,
  block-structured memory, per-block MPU, secure timer, network);
* :mod:`repro.crypto` -- functional hashes/HMAC/RSA/ECDSA plus a
  timing model calibrated to the paper's ODROID-XU4 measurements;
* :mod:`repro.ra` -- every attestation mechanism in the solution
  landscape: SMART (atomic baseline), the memory-locking family,
  SMARM (shuffled), ERASMUS (self-measurement), SeED (non-interactive)
  and TyTAN (per-process);
* :mod:`repro.malware` -- transient, self-relocating and colluding
  adversaries that actively evade measurement;
* :mod:`repro.apps` -- the fire-alarm safety-critical workload;
* :mod:`repro.core` -- the reconciliation layer: Table 1 as data and
  as an empirical harness, consistency semantics, QoA;
* :mod:`repro.analysis` -- the closed forms simulations are checked
  against;
* :mod:`repro.swarm` -- collective attestation (extension);
* :mod:`repro.experiments` -- one driver per paper figure/table.

Quickstart::

    from repro import Scenario

    scenario = Scenario.build(mechanism="smart")
    exchange = scenario.driver.request(scenario.device.name)
    scenario.run(until=60)
    print(exchange.result)          # healthy

:meth:`Scenario.build` wires the whole stack (simulator, device,
channel, :meth:`Verifier.enroll`, workload, malware, mechanism, and
optionally a :class:`~repro.resilience.faults.FaultPlan` with its
:class:`~repro.resilience.retry.RetryPolicy`) in the one canonical
order; hand-wiring the same pieces remains possible for single-layer
experiments.

Every package exports its public names lazily (:func:`export_lazily`),
so a process loads only the modules it uses: ``import repro`` loads no
subpackage, and the SMARM escape game needs only the DRBG.
"""

import importlib
from typing import Any, Dict, List, Tuple

__version__ = "1.0.0"


def export_lazily(
    namespace: Dict[str, Any], exports: Dict[str, Tuple[str, ...]]
) -> List[str]:
    """Export a package's public names on first use (PEP 562).

    ``exports`` maps each defining module to the names it exports, the
    one table a package keeps; the names are returned for ``__all__``.
    A name is imported from its module the first time it is read and
    then cached in ``namespace``, so ``from repro.sim import Device``
    costs one dict lookup afterwards.  An unknown name raises
    :class:`AttributeError`, which also lets ``from package import
    submodule`` fall back to importing the submodule.
    """
    package = namespace["__name__"]
    owners = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = namespace[name] = getattr(
            importlib.import_module(module), name
        )
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | owners.keys())

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    return list(owners)


__all__ = ["__version__", *export_lazily(globals(), {
    "repro.errors": ("ReproError",),
    "repro.sim.engine": ("Simulator",),
    "repro.sim.device": ("Device",),
    "repro.sim.network": ("Channel",),
    "repro.ra.smart": ("SmartAttestation",),
    "repro.ra.smarm_service": ("SmarmAttestation",),
    "repro.ra.erasmus": ("ErasmusService",),
    "repro.ra.seed": ("SeedService",),
    "repro.ra.tytan": ("TytanAttestation",),
    "repro.ra.verifier": ("Verifier",),
    "repro.ra.measurement": ("MeasurementConfig", "MeasurementProcess"),
    "repro.malware.transient": ("TransientMalware",),
    "repro.malware.relocating": ("SelfRelocatingMalware",),
    "repro.malware.colluding": ("ColludingMalware",),
    "repro.apps.firealarm": ("FireAlarmApp",),
    "repro.core.tradeoff": ("evaluate_all",),
    "repro.core.qoa": ("QoAParameters",),
    "repro.crypto.timing": ("OdroidXU4Model",),
    "repro.resilience.faults": ("FaultPlan",),
    "repro.resilience.outcome": ("OutcomeReport",),
    "repro.resilience.retry": ("RetryPolicy",),
    "repro.scenario": ("Scenario",),
})]
