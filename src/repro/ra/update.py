"""RA as a building block: secure update and secure erasure.

Section 1: "RA can help Vrf establish a static or dynamic root of
trust in Prv and can also be used to construct other security
services, such as software updates [25] and secure deletion [21]".
This module builds both on top of the measurement stack:

**Secure update** (SCUBA [25] flavour).  The verifier ships new
firmware blocks; the prover applies them and immediately runs a
challenge-bound measurement over the *updated* reference image.  Only
a prover that really installed the update can produce the expected
digest, so verification of the report *is* the installation receipt.

**Secure erasure / deletion** (PoSE [21] flavour).  The verifier sends
a random seed; the prover overwrites **all writable memory** with the
seed-derived stream -- destroying anything (malware included) that
lived there -- and proves it by measuring the filled memory.  Because
the fill occupies every block, the prover provably has nothing else
resident; the verifier then reflashes or re-trusts the device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.crypto.drbg import HmacDrbg
from repro.errors import ConfigurationError
from repro.ra.measurement import MeasurementConfig, MeasurementProcess
from repro.ra.report import AttestationReport, VerificationResult
from repro.ra.service import AttestationExchange, ExchangeDriver, listen
from repro.ra.verifier import Verifier
from repro.sim.device import Device
from repro.sim.network import Channel, Message
from repro.sim.process import Compute, Process


def erasure_fill(seed: bytes, block_index: int, block_size: int) -> bytes:
    """The content block ``block_index`` must hold after secure erasure."""
    return HmacDrbg(seed + block_index.to_bytes(4, "big")).generate(
        block_size
    )


@dataclass
class UpdateOutcome:
    """Verifier-side result of one update (or erasure) round."""

    device: str
    kind: str  # "update" | "erasure"
    result: Optional[VerificationResult] = None
    requested_at: float = 0.0
    confirmed_at: Optional[float] = None

    @property
    def installed(self) -> bool:
        return self.result is not None and self.result.healthy


class UpdateService:
    """Prover side: applies updates / erasure, then attests them."""

    def __init__(
        self,
        device: Device,
        config: Optional[MeasurementConfig] = None,
        write_time_per_block: float = 1e-5,
    ) -> None:
        if device.nic is None:
            raise ConfigurationError("device needs a NIC")
        self.device = device
        self.config = config if config is not None else MeasurementConfig(
            algorithm="blake2s", order="sequential", atomic=True,
            priority=900,
        )
        self.write_time_per_block = write_time_per_block
        self.updates_applied = 0
        self.erasures_done = 0
        self._counter = 0

    def install(self) -> None:
        listen(self.device.nic, self._on_message,
               kinds=frozenset({"update_request", "erase_request"}))

    # -- handlers ----------------------------------------------------------

    def _on_message(self, message: Message) -> None:
        if not self._well_formed(message.kind, message.payload):
            return
        if message.kind == "update_request":
            self._spawn(self._apply_update, message)
        else:
            self._spawn(self._apply_erasure, message)

    def _well_formed(self, kind: str, payload: Any) -> bool:
        """Whether ``payload`` is a request this prover can apply: a
        dict with a bytes ``nonce`` and, for an update, ``blocks``
        mapping in-range block indices to block-sized bytes; for an
        erasure, a bytes ``seed``.  Anything else is dropped."""
        if not (
            isinstance(payload, dict)
            and isinstance(payload.get("nonce"), bytes)
        ):
            return False
        if kind == "erase_request":
            return isinstance(payload.get("seed"), bytes)
        blocks = payload.get("blocks")
        memory = self.device.memory
        return isinstance(blocks, dict) and all(
            isinstance(index, int) and 0 <= index < memory.block_count
            and isinstance(content, bytes)
            and len(content) == memory.block_size
            for index, content in blocks.items()
        )

    def _spawn(self, body, message: Message) -> None:
        self._counter += 1
        self.device.cpu.spawn(
            f"{self.device.name}.update.{self._counter}",
            lambda proc: body(proc, message),
            priority=self.config.priority,
        )

    def _measure_and_reply(self, proc: Process, nonce: bytes, src: str,
                           kind: str):
        self._counter += 1
        mp = MeasurementProcess(
            self.device, self.config, nonce=nonce,
            counter=self._counter, mechanism=kind,
        )
        yield from mp.run(proc)
        report = AttestationReport.authenticate(
            self.device.attestation_key, self.device.name, [mp.record],
            sent_counter=self._counter,
        )
        self.device.nic.send(src, f"{kind}_report", report)

    def _apply_update(self, proc: Process, message: Message):
        payload = message.payload
        blocks: Dict[int, bytes] = payload["blocks"]
        for block_index, content in sorted(blocks.items()):
            yield Compute(self.write_time_per_block)
            self.device.memory.write(block_index, content, "update")
        self.updates_applied += 1
        self.device.trace.record(
            self.device.sim.now, "update.applied", self.device.name,
            blocks=len(blocks),
        )
        yield from self._measure_and_reply(
            proc, payload["nonce"], message.src, "update"
        )

    def _apply_erasure(self, proc: Process, message: Message):
        payload = message.payload
        seed: bytes = payload["seed"]
        memory = self.device.memory
        for block_index in range(memory.block_count):
            yield Compute(self.write_time_per_block)
            memory.write(
                block_index,
                erasure_fill(seed, block_index, memory.block_size),
                "erase",
            )
        self.erasures_done += 1
        self.device.trace.record(
            self.device.sim.now, "erase.done", self.device.name
        )
        yield from self._measure_and_reply(
            proc, payload["nonce"], message.src, "erasure"
        )


class UpdateCoordinator(ExchangeDriver):
    """Verifier side: ships updates/erasures and checks the receipts."""

    reply_kinds = frozenset({"update_report", "erasure_report"})

    def __init__(
        self,
        verifier: Verifier,
        channel: Channel,
        endpoint_name: str = "vrf-update",
        verify_latency: float = 1e-3,
    ) -> None:
        self.outcomes: List[UpdateOutcome] = []
        self._nonces = HmacDrbg(b"update-nonces")
        super().__init__(verifier, channel, endpoint_name, verify_latency,
                         retry=None)

    # -- operations -----------------------------------------------------------

    def push_update(self, device_name: str,
                    blocks: Dict[int, bytes]) -> UpdateOutcome:
        """Ship new firmware blocks; the reference image is updated
        *first*, so only a prover that installed them verifies."""
        profile = self.verifier.profile(device_name)
        reference = list(profile.reference)
        for block_index, content in blocks.items():
            if not 0 <= block_index < len(reference):
                raise ConfigurationError(
                    f"update block {block_index} out of range"
                )
            if len(content) != len(reference[block_index]):
                raise ConfigurationError("update block size mismatch")
            reference[block_index] = bytes(content)
        profile.reference = tuple(reference)
        return self._send(
            device_name, "update_request",
            {"blocks": dict(blocks)}, kind="update",
        )

    def push_erasure(self, device_name: str,
                     seed: Optional[bytes] = None) -> UpdateOutcome:
        """Request a proof of secure erasure: all memory overwritten
        with a verifier-chosen stream, then measured."""
        profile = self.verifier.profile(device_name)
        if seed is None:
            seed = self._nonces.generate(16)
        block_size = len(profile.reference[0])
        profile.reference = tuple(
            erasure_fill(seed, index, block_size)
            for index in range(len(profile.reference))
        )
        return self._send(
            device_name, "erase_request", {"seed": seed}, kind="erasure",
        )

    # -- plumbing ---------------------------------------------------------------

    def _send(self, device_name: str, msg_kind: str, payload: dict,
              kind: str) -> UpdateOutcome:
        nonce = self._nonces.generate(16)
        payload = dict(payload, nonce=nonce)
        outcome = UpdateOutcome(
            device=device_name, kind=kind,
            requested_at=self.verifier.sim.now,
        )
        self.outcomes.append(outcome)

        def confirm(exchange: AttestationExchange) -> None:
            outcome.result = exchange.result
            outcome.confirmed_at = self.verifier.sim.now

        self._open(device_name, nonce, (msg_kind, payload),
                   on_result=confirm)
        return outcome

    def _finish(self, exchange: AttestationExchange) -> None:
        self._settle(exchange, "verified")
        exchange.result = self.verifier.verify_report(
            exchange.report, expected_nonce=exchange.nonce
        )
        exchange.on_result(exchange)
