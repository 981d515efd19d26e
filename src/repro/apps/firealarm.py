"""The Section 2.5 fire alarm: sense every second, sound the alarm fast.

    "consider a sensor-actuator fire alarm application running over
    'bare-metal' on a low-end embedded Prv ... checks the value of its
    temperature sensor [every second] and triggers an alarm whenever
    that value exceeds a certain threshold ... Assuming attested memory
    size of 1GB, MP would run for approximately 7sec.  However, if an
    actual fire breaks out soon after MP starts, it would take a very
    long time for the application to regain control, sense the fire and
    sound the alarm."

:class:`FireAlarmApp` is a periodic sampling task on the device CPU.
The ambient temperature is a plain function of simulated time (the
environment needs no CPU); a *fire* is a step to a value above the
threshold.  The application only notices a fire when its job actually
runs -- so if an atomic MP is hogging the CPU, detection waits, and
:attr:`FireAlarmOutcome.alarm_latency` records exactly the damage the
paper warns about.

Each sample is also written to a data block, so locking mechanisms
that hold the data region read-only delay the job (counted as write
faults / blocked time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError, MemoryFault
from repro.sim.device import Device
from repro.sim.process import Process
from repro.sim.task import PeriodicTask, retry_after_fault


@dataclass
class FireAlarmOutcome:
    """What happened, for the Section 2.5 benchmark."""

    fire_at: Optional[float]
    alarm_at: Optional[float]
    samples: int
    deadline_misses: int
    worst_response: float

    @property
    def alarm_latency(self) -> Optional[float]:
        if self.fire_at is None or self.alarm_at is None:
            return None
        return self.alarm_at - self.fire_at


class FireAlarmApp:
    """Periodic temperature sampling with a threshold alarm.

    Parameters
    ----------
    device:
        The prover hosting the application.
    period:
        Sampling period (the paper: "say, every second").
    sample_wcet:
        CPU time of one sample-and-compare job.
    priority:
        Task priority; above normal services, but powerless against an
        atomic MP (which masks everything).
    data_block:
        Block the latest reading is stored into (exercises locking);
        ``None`` disables the write.
    threshold / ambient / fire_temperature:
        The sensed value is ``ambient`` until a fire starts, then
        ``fire_temperature``; the alarm fires when a *sample* observes
        a value above ``threshold``.
    """

    def __init__(
        self,
        device: Device,
        period: float = 1.0,
        sample_wcet: float = 0.001,
        priority: int = 100,
        data_block: Optional[int] = None,
        threshold: float = 60.0,
        ambient: float = 22.0,
        fire_temperature: float = 400.0,
    ) -> None:
        if fire_temperature <= threshold:
            raise ConfigurationError(
                "fire_temperature must exceed threshold"
            )
        self.device = device
        self.period = period
        self.threshold = threshold
        self.ambient = ambient
        self.fire_temperature = fire_temperature
        self.data_block = data_block
        self.fire_at: Optional[float] = None
        self.alarm_at: Optional[float] = None
        self.samples = 0
        self.readings: List[float] = []
        self.task = PeriodicTask(
            device.cpu,
            name=f"{device.name}.firealarm",
            period=period,
            wcet=sample_wcet,
            priority=priority,
            job=self._job,
        )

    # -- environment -------------------------------------------------------

    def start_fire(self, at: float) -> None:
        """Schedule the fire (environment event, not a CPU event)."""
        self.device.sim.schedule_at(at, self._ignite)

    def _ignite(self) -> None:
        self.fire_at = self.device.sim.now
        self.device.trace.record(self.fire_at, "fire.start", "environment")

    def temperature(self) -> float:
        """Currently sensed temperature."""
        if self.fire_at is not None and self.device.sim.now >= self.fire_at:
            return self.fire_temperature
        return self.ambient

    # -- the sampling job --------------------------------------------------------

    def _job(self, proc: Process, task: PeriodicTask, index: int):
        yield task.compute
        reading = self.temperature()
        self.samples += 1
        self.readings.append(reading)
        if self.samples == 1:
            # ``app.samples`` reads ``samples`` when sampled; registered
            # at the first sample, so a run that takes none has no series
            self.device.obs.metrics.read_counter(
                "app.samples", lambda: self.samples,
                "temperature samples taken",
            )
        if self.data_block is not None:
            memory = self.device.memory
            encoded = int(reading * 100).to_bytes(4, "big")
            data = encoded.ljust(memory.block_size, b"\x00")
            try:
                memory.write(self.data_block, data, task.name)
            except MemoryFault:
                yield from retry_after_fault(
                    memory, self.data_block, data, task.name, task.jobs[-1]
                )
        if reading > self.threshold and self.alarm_at is None:
            obs = self.device.obs
            self.alarm_at = self.device.sim.now
            self.device.trace.record(
                self.alarm_at, "alarm.sound", task.name,
                latency=(
                    round(self.alarm_at - self.fire_at, 6)
                    if self.fire_at is not None else None
                ),
            )
            if obs.enabled and self.fire_at is not None:
                # The fire-to-alarm interval is the paper's Section 2.5
                # damage metric; its endpoints live in different
                # events, hence retrospective recording.
                obs.spans.add_span(
                    "app.fire_to_alarm", self.fire_at, self.alarm_at,
                    category="app", task=task.name,
                )
                obs.metrics.histogram(
                    "app.alarm.latency",
                    "fire start to alarm sounded (sim s)",
                ).observe(self.alarm_at - self.fire_at)

    # -- results ------------------------------------------------------------------

    def outcome(self) -> FireAlarmOutcome:
        stats = self.task.stats()
        return FireAlarmOutcome(
            fire_at=self.fire_at,
            alarm_at=self.alarm_at,
            samples=self.samples,
            deadline_misses=stats.deadline_misses,
            worst_response=stats.worst_response,
        )
