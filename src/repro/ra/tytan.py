"""TyTAN-style per-process measurement (Section 3.1, after [3]).

TyTAN measures the memory of each process individually.  Higher
priority processes may interrupt MP to meet real-time requirements,
but *the process being measured* may not -- so single-process malware
cannot move itself while its own pages are under measurement.  The
paper's caveat, reproduced in the malware model
(:mod:`repro.malware.colluding`): malware spread over several
colluding processes defeats this, because the not-currently-measured
partner can act on behalf of the measured one (at the cost of a
process-isolation violation, e.g. an OS vulnerability).

Implementation notes: regions registered on the device's memory stand
in for per-process address spaces.  A request runs the shared
on-demand dispatcher of :class:`~repro.ra.service.AttestationService`
with one measurement pass per region (sequential order,
interruptible), each producing a region-tagged record; the report
carries one record per process.  Malware agents receive the region
name with every progress notification and enforce the "may not
interrupt own measurement" rule on themselves -- the honest-hardware
equivalent of the EA-MPU blocking them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.ra.measurement import MeasurementConfig
from repro.ra.service import AttestationService
from repro.sim.device import Device


@dataclass(frozen=True)
class ProcessPartition:
    """One 'process' in the TyTAN sense: a named slice of memory."""

    name: str
    start: int
    length: int


def install_partitions(device: Device,
                       partitions: Sequence[ProcessPartition]) -> None:
    """Register each partition as a mutable region on the device."""
    for part in partitions:
        device.add_region(
            part.name, part.start, part.length, mutable=True,
            description=f"process {part.name}",
        )


class TytanAttestation(AttestationService):
    """Per-process on-demand attestation: each round measures every
    region in turn, one record per region, all in a single report."""

    def __init__(
        self,
        device: Device,
        regions: Optional[Sequence[str]] = None,
        algorithm: str = "blake2s",
        priority: int = 40,
    ) -> None:
        config = MeasurementConfig(
            algorithm=algorithm,
            order="sequential",
            atomic=False,
            priority=priority,
        )
        super().__init__(device, config, mechanism="tytan")
        if regions is None:
            regions = list(device.memory.regions)
        if not regions:
            raise ConfigurationError("TyTAN needs at least one region")
        self.regions = list(regions)
        self._passes = tuple(
            replace(config, region=region) for region in self.regions
        )
