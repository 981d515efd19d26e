"""Software-based attestation (Section 2.1, after Pioneer [26]).

For legacy devices with no hardware trust anchor at all, RA can only
rely on *timing*: the verifier sends a challenge, the prover computes a
custom checksum over its memory in a pseudorandom (challenge-derived)
traversal, and the verifier accepts only if the response is both
correct **and** fast.  The security argument: malware that wants to
survive must keep its real bytes somewhere and redirect the checksum's
reads around them, and every redirected read costs extra time ("any
interference ... is detectable by extra latency incurred by
self-relocating malware moving itself (in parts) while trying to avoid
being 'caught'").

This module models that game faithfully enough to exhibit both the
defense and its documented fragility ([8]):

* :class:`SoftwareAttestation` -- prover-side checksum service.  The
  checksum is keyless (everything is public); traversal order and the
  mixing constants derive from the challenge alone.
* a *redirection adversary*: malware that keeps a clean copy of the
  block it displaced and serves reads from the copy, paying
  ``redirect_penalty`` extra per touched word -- the verifier sees a
  correct checksum, late.
* a *fast forger* knob (``forgery_speedup``): the Castelluccia et al.
  attack class where a cleverer implementation (or a faster CPU than
  the verifier assumed) hides the penalty, defeating the scheme -- the
  reproduction of "security of this approach is uncertain".

The verifier accepts iff checksum correct and elapsed <= threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hmac import constant_time_equal
from repro.errors import ConfigurationError
from repro.ra.service import listen
from repro.sim.device import Device
from repro.sim.network import Channel, Message
from repro.sim.process import Compute, Process

#: multiplier over plain hashing for the software checksum (Pioneer's
#: checksum is deliberately simple but strongly ordered)
CHECKSUM_SLOWDOWN = 1.0


def software_checksum(
    blocks: List[bytes], challenge: bytes, iterations: int = 2
) -> int:
    """The keyless, order-sensitive checksum.

    A strongly-ordered mix over the memory words in a challenge-derived
    pseudorandom traversal.  Order sensitivity matters: a malware that
    knows the final checksum of a clean image cannot replay it because
    every challenge induces a fresh traversal and fresh mixing
    constants.
    """
    drbg = HmacDrbg(challenge + b"traversal")
    state = int.from_bytes(drbg.generate(8), "big")
    n = len(blocks)
    for _ in range(iterations):
        order = drbg.permutation(n)
        for index in order:
            word = int.from_bytes(blocks[index][:8].ljust(8, b"\0"), "big")
            state ^= word
            state = ((state << 13) | (state >> 51)) & (2**64 - 1)
            state = (state + 0x9E3779B97F4A7C15 + index) & (2**64 - 1)
    return state


@dataclass
class ChecksumResponse:
    """What the prover returns."""

    device: str
    challenge: bytes
    checksum: int
    started_at: float
    finished_at: float


@dataclass
class TimedVerdict:
    """Verifier decision: correctness x timeliness."""

    correct: bool
    elapsed: float
    threshold: float
    accepted: bool
    detail: str = ""


class SoftwareAttestation:
    """Prover-side software-only checksum service.

    Parameters
    ----------
    device:
        Prover (no key material is used -- the point of the approach).
    redirect_penalty:
        Extra seconds per *block read* that resident malware's
        redirection logic costs.  0.0 models an honest device.
    forgery_speedup:
        Factor (<1) by which an adversary's optimized checksum beats
        the verifier's timing assumption -- the [8] attack class.
    """

    def __init__(
        self,
        device: Device,
        iterations: int = 2,
        redirect_penalty: float = 0.0,
        forgery_speedup: float = 1.0,
    ) -> None:
        if device.nic is None:
            raise ConfigurationError("device needs a NIC")
        if forgery_speedup <= 0:
            raise ConfigurationError("forgery_speedup must be positive")
        self.device = device
        self.iterations = iterations
        self.redirect_penalty = redirect_penalty
        self.forgery_speedup = forgery_speedup
        self.responses: List[ChecksumResponse] = []
        self._counter = 0

    def install(self) -> None:
        listen(self.device.nic, self._on_message,
               kinds=frozenset({"swatt_challenge"}))

    def _on_message(self, message: Message) -> None:
        payload = message.payload
        challenge = (
            payload.get("challenge") if isinstance(payload, dict) else None
        )
        if not isinstance(challenge, bytes):
            return  # malformed: dropped before any measurement
        self._counter += 1
        device = self.device

        def body(proc: Process):
            started = device.sim.now
            redirecting = self.redirect_penalty > 0.0
            dirty = set(device.memory.dirty_blocks())
            blocks = []
            for index in range(device.block_count):
                if redirecting and index in dirty:
                    # Malware serves the stashed clean copy of the
                    # block it displaced: checksum stays correct...
                    blocks.append(device.memory.benign_block(index))
                else:
                    blocks.append(device.memory.read_block(index))
            checksum = software_checksum(blocks, challenge,
                                         self.iterations)
            reads = device.block_count * self.iterations
            base = (
                device.timing.hash_time(
                    "sha256",
                    device.memory.sim_block_size * reads,
                )
                * CHECKSUM_SLOWDOWN
            )
            penalty = 0.0
            if redirecting and dirty:
                # ...but every read goes through the redirection check,
                # and that conditional is exactly the latency Pioneer
                # detects.
                penalty = self.redirect_penalty * reads
            yield Compute((base + penalty) * self.forgery_speedup)
            response = ChecksumResponse(
                device=device.name,
                challenge=challenge,
                checksum=checksum,
                started_at=started,
                finished_at=device.sim.now,
            )
            self.responses.append(response)
            device.nic.send(message.src, "swatt_response", response)

        device.cpu.spawn(
            f"{device.name}.swatt.{self._counter}", body, priority=50
        )


class SoftwareVerifier:
    """Verifier for the timing game.

    Knows the prover's reference image (public) and its honest
    computation speed; accepts a response iff the checksum matches the
    reference value for the challenge and the response arrived within
    ``slack`` of the honest time.
    """

    def __init__(
        self,
        channel: Channel,
        reference_blocks: List[bytes],
        honest_time: float,
        network_budget: float = 0.02,
        slack: float = 0.10,
        iterations: int = 2,
        endpoint_name: str = "swatt-vrf",
    ) -> None:
        self.channel = channel
        self.reference = [bytes(b) for b in reference_blocks]
        self.honest_time = honest_time
        self.network_budget = network_budget
        self.slack = slack
        self.iterations = iterations
        self.endpoint = channel.make_endpoint(endpoint_name)
        self.verdicts: List[TimedVerdict] = []
        self._sent_at = {}
        self._nonce_drbg = HmacDrbg(b"swatt-nonces")
        listen(self.endpoint, self._on_message,
               kinds=frozenset({"swatt_response"}))

    @property
    def threshold(self) -> float:
        return self.honest_time * (1.0 + self.slack) + self.network_budget

    def challenge(self, device_name: str) -> bytes:
        nonce = self._nonce_drbg.generate(16)
        self._sent_at[nonce] = self.channel.sim.now
        self.endpoint.send(
            device_name, "swatt_challenge", {"challenge": nonce}
        )
        return nonce

    def _on_message(self, message: Message) -> None:
        response = message.payload
        if not isinstance(response, ChecksumResponse):
            return  # malformed: dropped
        sent_at = self._sent_at.pop(response.challenge, None)
        if sent_at is None:
            return  # unsolicited
        elapsed = self.channel.sim.now - sent_at
        expected = software_checksum(
            self.reference, response.challenge, self.iterations
        )
        correct = constant_time_equal(
            response.checksum.to_bytes(8, "big"),
            expected.to_bytes(8, "big"),
        )
        timely = elapsed <= self.threshold
        detail = []
        if not correct:
            detail.append("checksum mismatch")
        if not timely:
            detail.append(
                f"late: {elapsed:.4f}s > {self.threshold:.4f}s"
            )
        self.verdicts.append(
            TimedVerdict(
                correct=correct,
                elapsed=elapsed,
                threshold=self.threshold,
                accepted=correct and timely,
                detail="; ".join(detail) or "on time, correct",
            )
        )
