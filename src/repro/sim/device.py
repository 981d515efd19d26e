"""The prover device: CPU + memory + MPU + secure peripherals + NIC.

:class:`Device` is the composition root for the simulated prover
(:math:`\\mathcal{P}rv`).  It wires together the substrate pieces and
holds the two hardware security anchors the hybrid-RA literature
assumes:

* the **attestation key**, stored where untrusted software (malware)
  cannot read it -- SMART keeps it in ROM behind hard-wired access
  control; we model that by simply never exposing it to malware agents;
* a **secure timer** (SeED's "dedicated timeout circuit that has
  exclusive access to the clock"): trigger times are invisible to
  software, modelled by scheduling engine events that no malware hook
  can observe or cancel.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.sim.engine import EventHandle, Simulator
from repro.sim.interrupts import InterruptController
from repro.sim.memory import Memory, Region
from repro.sim.mpu import FaultPolicy, MemoryProtectionUnit
from repro.sim.network import Channel, Endpoint
from repro.sim.process import CPU
from repro.sim.trace import Trace
from repro.crypto.timing import OdroidXU4Model, TimingModel


class SecureTimer:
    """A trigger source outside software's reach.

    Used by SeED to start attestation at pseudorandom times that
    malware cannot predict or observe.  Events fire on the simulation
    engine directly, bypassing the CPU scheduler until the callback
    spawns a process -- like a hardware timer raising a non-maskable
    trigger.
    """

    def __init__(self, sim: Simulator, name: str = "securetimer") -> None:
        self.sim = sim
        self.name = name
        self.fired = 0
        #: fractional clock-drift rate injected by a fault plan: a
        #: timer asked to wait ``d`` actually waits ``d * (1 + drift)``.
        #: 0.0 (the default) is the exact-clock fast path -- delays are
        #: passed through untouched, so drift-free runs schedule
        #: byte-identical events.
        self.drift = 0.0

    def _skewed(self, delay: float) -> float:
        if self.drift == 0.0:
            return delay
        return max(0.0, delay * (1.0 + self.drift))

    def at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Fire ``callback`` at absolute time ``time`` (plus any injected
        clock drift on the remaining wait)."""
        if self.drift != 0.0:
            remaining = max(0.0, time - self.sim.now)
            time = self.sim.now + self._skewed(remaining)
        return self.sim.schedule_at(time, self._fire, callback)

    def _fire(self, callback: Callable[[], None]) -> None:
        self.fired += 1
        callback()


class Device:
    """A simulated low-end prover.

    Parameters
    ----------
    sim:
        The simulation engine the device lives on.
    block_count, block_size:
        Geometry of attested memory (real bytes per block).
    sim_block_size:
        Simulated bytes per block for the timing model (defaults to
        ``block_size``); lets a small real memory stand in for, e.g.,
        a 1 GiB prover.
    timing:
        Per-algorithm cost model; defaults to the calibrated
        ODROID-XU4 model from Figure 2.
    attestation_key:
        Secret MAC key; generated from ``seed`` if not given.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "prv",
        block_count: int = 64,
        block_size: int = 64,
        sim_block_size: Optional[int] = None,
        timing: Optional[TimingModel] = None,
        attestation_key: Optional[bytes] = None,
        fault_policy: FaultPolicy = FaultPolicy.RAISE,
        seed: int = 7,
        trace: Optional[Trace] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.seed = seed
        self.trace = trace if trace is not None else Trace()
        self.cpu = CPU(sim, trace=self.trace)
        self.memory = Memory(
            block_count, block_size, sim_block_size=sim_block_size, seed=seed
        )
        self.mpu = MemoryProtectionUnit(sim, block_count, policy=fault_policy)
        self.memory.mpu = self.mpu
        self.memory.sim = sim
        self.irq = InterruptController(self.cpu)
        self.secure_timer = SecureTimer(sim, f"{name}.timer")
        self.timing = timing if timing is not None else OdroidXU4Model()
        if attestation_key is None:
            rng = random.Random(seed ^ 0xA77E57)
            attestation_key = bytes(rng.getrandbits(8) for _ in range(32))
        self.attestation_key = attestation_key
        self.nic: Optional[Endpoint] = None
        self.malware_agents: List[Any] = []
        self.reset_count = 0
        #: blocks measured on this device per mechanism, across resets;
        #: ``ra.blocks.measured`` / ``ra.bytes.measured`` read it
        self.blocks_measured: Dict[str, int] = {}
        self._reset_hooks: List[Callable[[], None]] = []

    # -- wiring ---------------------------------------------------------

    def attach_network(self, channel: Channel) -> Endpoint:
        """Create this device's NIC endpoint on ``channel``."""
        self.nic = channel.make_endpoint(self.name)
        return self.nic

    def add_region(self, name: str, start: int, length: int,
                   mutable: bool = False, description: str = "") -> Region:
        """Declare a named memory region (code / data / stack...)."""
        return self.memory.add_region(
            Region(name, start, length, mutable, description)
        )

    def standard_layout(self, code_fraction: float = 0.5) -> None:
        """Install the paper's ``M = [C, D]`` layout (Section 2.3):
        an immutable code region followed by a mutable data region."""
        if not 0.0 < code_fraction < 1.0:
            raise ConfigurationError("code_fraction must be in (0, 1)")
        code_blocks = max(1, int(self.memory.block_count * code_fraction))
        data_blocks = self.memory.block_count - code_blocks
        if data_blocks < 1:
            raise ConfigurationError("layout leaves no data blocks")
        self.add_region("code", 0, code_blocks, mutable=False,
                        description="immutable firmware C")
        self.add_region("data", code_blocks, data_blocks, mutable=True,
                        description="volatile data D")

    # -- resets -----------------------------------------------------------

    def add_reset_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback run (in registration order) at the end of
        every :meth:`reset` -- services use this to restore themselves
        the way boot firmware would, and to drop volatile protocol
        state (e.g. the attestation service's nonce cache)."""
        self._reset_hooks.append(hook)

    def reset(self) -> None:
        """Brownout/restart the prover (the VRASED-style reset event).

        What survives and what does not:

        * **RAM image survives** -- memory contents (including any
          malware payload) are untouched; this is a processor reset,
          not a power-off long enough to decay DRAM.
        * **Execution state is lost** -- every CPU process is killed
          mid-flight (no ``done_signal`` fires) and pending NIC input
          is discarded, including the waiters parked on ``rx_signal``.
        * **MPU lock bits are cleared** -- the documented post-reset
          state (see :meth:`~repro.sim.mpu.MemoryProtectionUnit.reset`).
        * **The secure timer keeps running** -- it is dedicated
          hardware with its own power budget (SeED's timeout circuit),
          so scheduled triggers still fire.
        * **Malware agents stay registered** -- they live in the RAM
          image, and re-hook themselves exactly as real persistence
          mechanisms would.

        Registered reset hooks then run in order, reinstalling
        services from "ROM".
        """
        self.cpu.reset()
        self.mpu.reset()
        if self.nic is not None:
            self.nic.inbox.clear()
            self.nic.rx_signal.clear()
        self.reset_count += 1
        self.trace.record(self.sim.now, "device.reset", self.name,
                          count=self.reset_count)
        obs = self.sim.obs
        if obs.enabled:
            obs.metrics.counter(
                "device.resets", "prover resets/brownouts injected",
            ).inc()
        for hook in list(self._reset_hooks):
            hook()

    # -- malware hooks -----------------------------------------------------

    def register_malware(self, agent: Any) -> None:
        """Attach a malware agent (gets measurement-progress callbacks)."""
        self.malware_agents.append(agent)

    def notify_measurement_started(self, mechanism: str, interruptible: bool,
                                   region: str = "") -> None:
        for agent in self.malware_agents:
            agent.on_measurement_start(mechanism, interruptible, region)

    def notify_block_measured(self, progress: int, total: int,
                              interruptible: bool, region: str = "") -> None:
        """SMARM's adversary model: malware learns *how many* blocks are
        measured, never *which* (Section 3.2)."""
        for agent in self.malware_agents:
            agent.on_progress(progress, total, interruptible, region)

    def notify_measurement_finished(self) -> None:
        for agent in self.malware_agents:
            agent.on_measurement_end()

    # -- convenience ---------------------------------------------------------

    @property
    def obs(self) -> Any:
        """The simulator's observability bundle (``NULL_OBS`` when off)."""
        return self.sim.obs

    @property
    def block_count(self) -> int:
        return self.memory.block_count

    def hash_time(self, algorithm: str, num_sim_bytes: int) -> float:
        """Simulated seconds to hash ``num_sim_bytes`` on this device."""
        return self.timing.hash_time(algorithm, num_sim_bytes)

    def block_measure_time(self, algorithm: str) -> float:
        """Simulated seconds to measure one block."""
        return self.timing.hash_time(algorithm, self.memory.sim_block_size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Device {self.name!r} {self.memory.block_count}x"
            f"{self.memory.block_size}B>"
        )
