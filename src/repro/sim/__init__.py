"""Discrete-event simulation substrate: the simple IoT device.

This subpackage provides the "hardware" the paper assumes:

* :mod:`repro.sim.engine` -- event queue and simulation clock;
* :mod:`repro.sim.process` -- generator-coroutine processes on a single
  CPU with priority preemption and interrupt masking (the mechanism
  behind *atomic* attestation);
* :mod:`repro.sim.memory` -- block-structured attested memory;
* :mod:`repro.sim.mpu` -- per-block lock bits (the mechanism behind
  *memory locking*);
* :mod:`repro.sim.task` -- periodic real-time tasks with deadline
  accounting (the safety-critical application substrate);
* :mod:`repro.sim.device` -- the prover device tying it all together;
* :mod:`repro.sim.network` -- verifier/prover channels with latency and
  adversarial filters;
* :mod:`repro.sim.trace` -- timeline recording used by the figure
  benchmarks.
"""

from repro import export_lazily

__all__ = export_lazily(globals(), {
    "repro.sim.engine": ("Simulator", "Signal", "EventHandle"),
    "repro.sim.process": (
        "CPU", "Process", "Compute", "Sleep", "WaitSignal", "Atomic", "Yield",
    ),
    "repro.sim.memory": ("Memory", "MemoryBlock", "Region", "MemoryImage"),
    "repro.sim.mpu": ("MemoryProtectionUnit", "FaultPolicy"),
    "repro.sim.task": ("PeriodicTask", "TaskStats"),
    "repro.sim.device": ("Device", "SecureTimer"),
    "repro.sim.network": (
        "Channel", "ChannelFilter", "DropAdversary", "Endpoint",
        "FilterVerdict", "Message",
    ),
    "repro.sim.trace": ("Trace", "TraceRecord"),
})
