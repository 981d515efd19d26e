"""LISA: Lightweight Swarm Attestation, "a tale of two LISAs" [4].

The paper's background (Section 2.1) cites LISA alongside SEDA: swarm
protocols differ in *Quality of Swarm Attestation* (QoSA) -- how much
information the verifier ends up with:

* **LISA-α (asynchronous)**: every device attests independently; each
  authenticated report is *forwarded* hop-by-hop to the verifier.  The
  verifier learns per-device health (high QoSA) at the cost of one
  report per device crossing the network.
* **LISA-s (synchronous)**: devices attest their children and submit
  one cumulative report up the spanning tree (like our SEDA-style
  :mod:`repro.swarm.collective`), so the verifier learns a binary/
  counter answer (lower QoSA) with O(depth) latency and O(1) traffic
  at the sink.

This module implements LISA-α on the same topology substrate, so the
QoSA-vs-traffic trade is measurable against the aggregated protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.tracectx import TraceContext
from repro.ra.measurement import MeasurementConfig, MeasurementProcess
from repro.ra.report import AttestationReport, Verdict
from repro.ra.service import listen
from repro.ra.verifier import Verifier
from repro.sim.device import Device
from repro.sim.network import Message
from repro.swarm.topology import SwarmTopology


@dataclass
class LisaAlphaResult:
    """Verifier-side outcome of one LISA-α round."""

    nonce: bytes
    per_device: Dict[str, Verdict] = field(default_factory=dict)
    completed_at: Optional[float] = None
    expected: int = 0

    @property
    def complete(self) -> bool:
        return len(self.per_device) >= self.expected

    @property
    def dirty_nodes(self) -> List[str]:
        return sorted(
            name for name, verdict in self.per_device.items()
            if verdict is not Verdict.HEALTHY
        )


class LisaAlphaNode:
    """Per-node engine: flood the request, attest, forward reports.

    Reports travel toward the verifier along the spanning tree
    (children send to parent, the root sends to the verifier), so
    every individual report really crosses multiple hops -- the QoSA
    price LISA-α pays is visible as channel traffic.
    """

    def __init__(
        self,
        device: Device,
        parent: str,
        children: List[str],
        algorithm: str = "blake2s",
        priority: int = 40,
    ) -> None:
        self.device = device
        self.parent = parent
        self.children = children
        self.config = MeasurementConfig(
            algorithm=algorithm, order="sequential", atomic=False,
            priority=priority,
        )
        self.online = True
        self._counter = 0
        self._seen_nonces = set()
        listen(device.nic, self._on_message,
               kinds=frozenset({"lisa_attest", "lisa_report"}))

    def _on_message(self, message: Message) -> None:
        if not self.online:
            return
        if message.kind == "lisa_attest":
            self._start(message)
        else:
            # Forward a descendant's report toward the verifier,
            # preserving its hop-spanning trace context.
            self.device.nic.send(self.parent, "lisa_report",
                                 message.payload, ctx=message.ctx)

    def _start(self, message: Message) -> None:
        nonce = message.payload["nonce"]
        if nonce in self._seen_nonces:
            return  # flood duplicate
        self._seen_nonces.add(nonce)
        for child in self.children:
            self.device.nic.send(
                child, "lisa_attest", {"nonce": nonce}, ctx=message.ctx
            )
        self._counter += 1
        mp = MeasurementProcess(
            self.device, self.config, nonce=nonce,
            counter=self._counter, mechanism="lisa-alpha",
        )
        proc = self.device.cpu.spawn(
            f"{self.device.name}.lisa.{self._counter}",
            mp.run,
            priority=self.config.priority,
        )

        def send_report(_record, mp=mp, ctx=message.ctx) -> None:
            report = AttestationReport.authenticate(
                self.device.attestation_key, self.device.name,
                [mp.record], sent_counter=self._counter,
            )
            self.device.nic.send(self.parent, "lisa_report", report,
                                 ctx=ctx)

        proc.done_signal.wait(send_report)


class LisaAlphaAttestation:
    """Verifier-side driver for LISA-α over a :class:`SwarmTopology`."""

    def __init__(
        self,
        topology: SwarmTopology,
        verifier: Verifier,
        endpoint_name: str = "lisa-vrf",
        algorithm: str = "blake2s",
    ) -> None:
        self.topology = topology
        self.verifier = verifier
        self.endpoint = topology.channel.make_endpoint(endpoint_name)
        self.results: List[LisaAlphaResult] = []
        self._by_nonce: Dict[bytes, LisaAlphaResult] = {}
        self._nonce_counter = 0
        children_map = topology.spanning_tree_children(root=0)
        parent_map = {0: endpoint_name}
        for parent_index, child_indices in children_map.items():
            for child_index in child_indices:
                parent_map[child_index] = topology.devices[
                    parent_index
                ].name
        self.nodes = []
        for index, device in enumerate(topology.devices):
            if device.name not in verifier.devices:
                verifier.enroll(device)
            self.nodes.append(
                LisaAlphaNode(
                    device,
                    parent=parent_map[index],
                    children=[
                        topology.devices[c].name
                        for c in children_map[index]
                    ],
                    algorithm=algorithm,
                )
            )
        listen(self.endpoint, self._on_message,
               kinds=frozenset({"lisa_report"}))

    def attest(self) -> bytes:
        self._nonce_counter += 1
        nonce = b"lisa" + self._nonce_counter.to_bytes(8, "big")
        result = LisaAlphaResult(
            nonce=nonce, expected=len(self.topology.devices)
        )
        self.results.append(result)
        self._by_nonce[nonce] = result
        ctx = (
            TraceContext.mint("lisa", nonce)
            if self.verifier.sim.obs.enabled else None
        )
        self.endpoint.send(
            self.topology.devices[0].name, "lisa_attest",
            {"nonce": nonce}, ctx=ctx,
        )
        return nonce

    def _on_message(self, message: Message) -> None:
        report: AttestationReport = message.payload
        nonce = report.newest.nonce
        result = self._by_nonce.get(nonce)
        if result is None or report.device in result.per_device:
            return
        profile = self.verifier.devices.get(report.device)
        if profile is None or not report.verify_tag(profile.key):
            result.per_device[report.device] = Verdict.INVALID
        else:
            result.per_device[report.device] = (
                self.verifier.verify_record(report.newest)
            )
        if result.complete and result.completed_at is None:
            result.completed_at = self.verifier.sim.now

    def result_for(self, nonce: bytes) -> Optional[LisaAlphaResult]:
        return self._by_nonce.get(nonce)
