"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Sub-hierarchies mirror the package
layout: simulation errors, memory/MPU faults, crypto errors, protocol
errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Simulation engine errors
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event simulation errors."""


class SchedulingError(SimulationError):
    """An event or process was scheduled inconsistently.

    Raised for negative delays, scheduling into the past, or re-starting
    a process that already terminated.
    """


class ProcessError(SimulationError):
    """A simulated process misbehaved (bad yield, double start, ...)."""


class DeadlockError(SimulationError):
    """The simulation cannot make progress but work remains.

    Raised when ``run()`` exhausts the event queue while processes are
    still blocked waiting for signals that nothing can ever fire.
    """


# ---------------------------------------------------------------------------
# Memory / MPU errors
# ---------------------------------------------------------------------------


class MemoryError_(ReproError):
    """Base class for simulated-memory errors.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`.
    """


class AddressError(MemoryError_):
    """An address or block index is out of range."""


class MemoryFault(MemoryError_):
    """An access violated the MPU configuration (write to locked block)."""

    def __init__(self, block_index: int, message: str = "") -> None:
        self.block_index = block_index
        text = message or f"write fault on locked block {block_index}"
        super().__init__(text)


class LockStateError(MemoryError_):
    """A lock/unlock operation was inconsistent (double lock, etc.)."""


# ---------------------------------------------------------------------------
# Crypto errors
# ---------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for cryptographic errors."""


class KeySizeError(CryptoError):
    """A key has an unsupported or insecure size."""


class SignatureError(CryptoError):
    """A signature failed to verify or could not be produced."""


class ParameterError(CryptoError):
    """Invalid domain parameters (curve, modulus, generator...)."""


# ---------------------------------------------------------------------------
# Protocol / attestation errors
# ---------------------------------------------------------------------------


class ProtocolError(ReproError):
    """Base class for attestation-protocol errors."""


class VerificationError(ProtocolError):
    """An attestation report failed verification."""


class ReplayError(ProtocolError):
    """A message was recognized as a replay of an earlier one."""


class ConfigurationError(ReproError):
    """A component was configured with invalid or inconsistent options."""
