"""Passive measurement observer, a test instrument.

Registers on a device like a malware agent and shares its hook
interface, but only records what it sees: the tests use it to assert
the adversary-visible information is exactly what Section 3.2 grants
(progress counts, mechanism name, region) and to count measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim.device import Device


@dataclass(frozen=True)
class ProgressEvent:
    time: float
    kind: str  # start / progress / end
    mechanism: str = ""
    progress: int = 0
    total: int = 0
    interruptible: bool = True
    region: str = ""


class MeasurementObserver:
    """Records every notification delivered to resident software."""

    def __init__(self, device: Device, name: str = "observer") -> None:
        self.device = device
        self.name = name
        self.events: List[ProgressEvent] = []
        device.register_malware(self)

    # -- hook interface ---------------------------------------------------

    def on_measurement_start(self, mechanism: str, interruptible: bool,
                             region: str = "") -> None:
        self.events.append(
            ProgressEvent(
                self.device.sim.now, "start", mechanism=mechanism,
                interruptible=interruptible, region=region,
            )
        )

    def on_progress(self, progress: int, total: int, interruptible: bool,
                    region: str = "") -> None:
        self.events.append(
            ProgressEvent(
                self.device.sim.now, "progress", progress=progress,
                total=total, interruptible=interruptible, region=region,
            )
        )

    def on_measurement_end(self) -> None:
        self.events.append(ProgressEvent(self.device.sim.now, "end"))

    # -- queries -----------------------------------------------------------

    def starts(self) -> List[ProgressEvent]:
        return [e for e in self.events if e.kind == "start"]

    def progress_events(self) -> List[ProgressEvent]:
        return [e for e in self.events if e.kind == "progress"]

    def measurement_count(self) -> int:
        return len(self.starts())
