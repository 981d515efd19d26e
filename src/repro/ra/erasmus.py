"""ERASMUS: periodic self-measurement with occasional collection.

ERASMUS [6] decouples the two halves of Quality of Attestation
(Section 3.3, Figure 5):

* the prover measures *itself* every ``T_M`` seconds and stores the
  results locally;
* the verifier occasionally (every ``T_C``) collects and verifies the
  stored measurements.

Measurements can therefore be frequent without verifier involvement --
the window of opportunity for transient malware is ``T_M``, not
``T_C`` -- and the measurement schedule can be made context-aware so
it never collides with the safety-critical application (the paper's
compromise (2); see :mod:`repro.core.scheduler_policy`).

:class:`ErasmusService` is the prover side (scheduler + history);
:class:`CollectorVerifier` is the verifier side; a
:class:`CollectionResult` reports per-record verdicts so infection
windows can be localized in time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import ConfigurationError
from repro.ra.measurement import MeasurementConfig, MeasurementProcess
from repro.ra.report import (
    AttestationReport,
    MeasurementRecord,
    Verdict,
    VerificationResult,
)
from repro.ra.service import (
    AttestationExchange,
    ExchangeDriver,
    NonceDedup,
    listen,
    send_report,
)
from repro.ra.verifier import Verifier
from repro.resilience.retry import RetryPolicy
from repro.sim.device import Device
from repro.sim.network import Channel, Message
from repro.sim.process import Process, Sleep

#: the ERASMUS collection counter stream (one monotonic sequence per
#: prover, independent of SeED pushes on the same device)
COLLECT_STREAM = "erasmus-collect"


class ErasmusService:
    """Prover-side self-measurement.

    Parameters
    ----------
    device:
        The prover.
    period:
        ``T_M``, seconds between self-measurements.
    config:
        Measurement configuration; ERASMUS measurements are
        interruptible by default (compromise (1) of Section 3.3:
        the application may preempt MP, which is then simply resumed).
    history_size:
        Ring-buffer capacity for stored measurements.
    scheduler:
        Optional context-aware policy: callable
        ``scheduler(device, nominal_time, index) -> float`` returning
        the (possibly deferred) actual start time.
    on_demand:
        ERASMUS "can easily be coupled with on-demand attestation ...
        measurements can be made on Prv based on a schedule *as well
        as* when receiving a query by Vrf": when True, the service
        also answers ``att_request`` challenges with a fresh
        challenge-bound measurement (maximum freshness), which is
        stored into the history like any scheduled one.
    """

    def __init__(
        self,
        device: Device,
        period: float,
        config: Optional[MeasurementConfig] = None,
        history_size: int = 64,
        scheduler: Optional[Callable[[Device, float, int], float]] = None,
        priority: int = 40,
        on_demand: bool = False,
    ) -> None:
        if not period > 0:  # also rejects NaN
            raise ConfigurationError("T_M must be positive")
        self.device = device
        self.period = period
        self.config = config if config is not None else MeasurementConfig(
            algorithm="blake2s", order="sequential", atomic=False,
            priority=priority,
        )
        self.history_size = history_size
        self.scheduler = scheduler
        self.on_demand = on_demand
        self.history: List[MeasurementRecord] = []
        self.dropped_records = 0
        self.measurements_done = 0
        self.on_demand_served = 0
        self._counter = 0
        self._sent = 0
        self._index = 0
        self._hooked = False
        self.process: Optional[Process] = None
        self._dedup = NonceDedup(device, "erasmus-od")

    # -- lifecycle --------------------------------------------------------

    def start(self) -> Process:
        """Begin the self-measurement schedule; also start answering
        collection requests if a NIC is attached.  Registers a reset
        hook: a brownout kills the loop process and wipes the NIC
        listeners, so both are reinstalled from "ROM" afterwards."""
        if not self._hooked:
            self.device.add_reset_hook(self._on_reset)
            self._hooked = True
        return self._activate()

    def _activate(self) -> Process:
        self.process = self.device.cpu.spawn(
            f"{self.device.name}.erasmus",
            self._measure_loop,
            priority=self.config.priority,
        )
        if self.device.nic is not None:
            listen(self.device.nic, self._on_message,
                   kinds=frozenset({"collect_request"}))
            if self.on_demand:
                listen(self.device.nic, self._on_challenge,
                       kinds=frozenset({"att_request"}))
        return self.process

    def _on_reset(self) -> None:
        """Brownout: the history ring lives in RAM and survives; the
        loop process and listeners do not.  Come back up mid-schedule
        (an interrupted measurement is simply redone at its slot).  The
        on-demand dedup cache is volatile too: a measurement the reset
        killed must not pin its nonce as in flight."""
        self._dedup.clear()
        self.device.trace.record(
            self.device.sim.now, "erasmus.reboot", self.device.name
        )
        self._activate()

    def _measure_loop(self, proc: Process):
        device = self.device
        sim = device.sim
        while True:
            index = self._index
            nominal = index * self.period
            start_at = nominal
            if self.scheduler is not None:
                start_at = max(nominal, self.scheduler(device, nominal, index))
            if sim.now < start_at:
                yield Sleep(start_at - sim.now)
            self._counter += 1
            nonce = b"self" + self._counter.to_bytes(8, "big")
            mp = MeasurementProcess(
                device, self.config, nonce=nonce, counter=self._counter,
                mechanism="erasmus",
            )
            # Run in-line: the service process *is* the measurement
            # process (one self-measurement at a time by construction).
            yield from mp.run(proc)
            self._store(mp.record)
            self.measurements_done += 1
            self._index += 1

    def _on_challenge(self, message: Message) -> None:
        """On-demand coupling: answer a Vrf challenge with a fresh,
        challenge-bound measurement (maximum freshness), stored into
        the history alongside the scheduled ones.  A retransmitted
        challenge is absorbed by the nonce dedup, never measured twice."""
        if not self._dedup.admit(message):
            return
        nonce = (message.payload or {}).get("nonce", b"")
        self._counter += 1
        counter = self._counter
        device = self.device
        mp = MeasurementProcess(
            device, self.config, nonce=nonce, counter=counter,
            mechanism="erasmus-od", ctx=message.ctx,
        )
        proc = device.cpu.spawn(
            f"{device.name}.erasmus-od.{counter}",
            mp.run,
            priority=self.config.priority,
        )

        def reply(_record, mp=mp, counter=counter, nonce=nonce,
                  src=message.src, ctx=message.ctx) -> None:
            self._store(mp.record)
            self.on_demand_served += 1
            report = AttestationReport.authenticate(
                device.attestation_key, device.name, [mp.record],
                sent_counter=counter,
            )
            self._dedup.settle(nonce, report)
            send_report(device.nic, src, report, ctx=ctx)

        proc.done_signal.wait(reply)

    def _store(self, record: MeasurementRecord) -> None:
        self.history.append(record)
        obs = self.device.obs
        if obs.enabled:
            obs.metrics.counter(
                "erasmus.measurements.stored",
                "self-measurements appended to the history ring",
            ).inc()
        if len(self.history) > self.history_size:
            self.history.pop(0)
            self.dropped_records += 1
            if obs.enabled:
                obs.metrics.counter(
                    "erasmus.records.dropped",
                    "history-ring evictions before collection",
                ).inc()

    # -- collection ------------------------------------------------------------

    def _on_message(self, message: Message) -> None:
        if message.kind != "collect_request":
            return
        # Collection is cheap (read + MAC over stored digests); answer
        # immediately from the event context, like a NIC-driven DMA reply.
        payload = message.payload or {}
        if not isinstance(payload, dict):
            return  # malformed request: dropped
        self._sent += 1
        report = AttestationReport.authenticate(
            self.device.attestation_key,
            self.device.name,
            list(self.history),
            sent_counter=self._sent,
        )
        self.device.nic.send(
            message.src,
            "collect_reply",
            {"report": report, "nonce": payload.get("nonce", b"")},
            ctx=message.ctx,
        )
        self.device.trace.record(
            self.device.sim.now, "erasmus.collect", self.device.name,
            records=len(self.history),
        )


@dataclass
class CollectionResult:
    """Outcome of one ERASMUS collection."""

    device: str
    collected_at: float
    result: VerificationResult
    records: List[MeasurementRecord] = field(default_factory=list)
    #: the raw authenticated report, kept for replay experiments
    report: Optional[AttestationReport] = None

    @property
    def dirty_intervals(self) -> List[tuple]:
        """(t_start, t_end) of each measurement that diverged -- the
        verifier's localization of when the prover was compromised."""
        out = []
        for record, verdict in zip(
            self.records, self.result.record_verdicts
        ):
            if verdict is not Verdict.HEALTHY:
                out.append((record.t_start, record.t_end))
        return out

    def cadence_gaps(self, period: float,
                     tolerance: float = 1.8) -> List[tuple]:
        """Suspicious holes in the self-measurement schedule.

        Malware cannot forge stored records (no key access), but it
        *can delete* them to hide the window in which it was resident.
        The verifier knows T_M, so any two consecutive records more
        than ``tolerance * period`` apart -- beyond scheduling jitter
        from context-aware deferral -- expose exactly the hole.

        Returns (gap_start, gap_end) pairs, including a trailing gap
        if the newest record is older than ``tolerance * period``
        before the collection instant.
        """
        gaps = []
        times = sorted(record.t_end for record in self.records)
        for earlier, later in zip(times, times[1:]):
            if later - earlier > tolerance * period:
                gaps.append((earlier, later))
        if times and self.collected_at - times[-1] > tolerance * period:
            gaps.append((times[-1], self.collected_at))
        return gaps


class CollectorVerifier(ExchangeDriver):
    """Verifier-side collection driver (defines ``T_C`` when polled
    periodically; see the QoA benchmarks).

    With ``retry=None`` (the default) a lost ``collect_reply`` is
    silently never noticed -- the classic behavior, and zero extra
    simulator events.  Passing a :class:`RetryPolicy` arms missed-report
    detection: an unanswered collection is counted as missed and the
    *same-nonce* request is retransmitted with exponential backoff (the
    prover is stateless per collection, so catch-up simply serves the
    current history)."""

    reply_kinds = frozenset({"collect_reply"})

    def __init__(
        self,
        verifier: Verifier,
        channel: Channel,
        endpoint_name: str = "vrf",
        verify_latency: float = 1e-3,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.collections: List[CollectionResult] = []
        self.missed = 0  # collections abandoned after the retry budget
        self._nonce_counter = 0
        super().__init__(verifier, channel, endpoint_name, verify_latency,
                         retry)

    def collect(self, device_name: str,
                on_result: Optional[Callable[[CollectionResult], None]] = None
                ) -> None:
        """Ask ``device_name`` for its stored measurements."""
        self._nonce_counter += 1
        nonce = b"collect" + self._nonce_counter.to_bytes(8, "big")
        self._open(
            device_name, nonce, ("collect_request", {"nonce": nonce}),
            on_result=on_result, trace_kind="erasmus",
        )

    def collect_every(self, device_name: str, period: float,
                      count: int) -> None:
        """Schedule ``count`` collections spaced ``period`` apart (T_C)."""
        for index in range(count):
            self.verifier.sim.schedule(
                (index + 1) * period, self.collect, device_name
            )

    def _reply(self, message: Message):
        payload = message.payload
        if not isinstance(payload, dict):
            return None, None
        report = payload.get("report")
        if not isinstance(report, AttestationReport):
            return None, None
        return payload.get("nonce", b""), report

    def _abandon(self, exchange: AttestationExchange) -> None:
        self.missed += 1
        obs = self.verifier.sim.obs
        if obs.enabled:
            obs.metrics.counter(
                "erasmus.collections.missed",
                "collections abandoned after the retry budget",
            ).inc()
        if exchange.on_result is not None:
            exchange.on_result(None)

    def _finish(self, exchange: AttestationExchange) -> None:
        self._settle(exchange, "verified")
        report: AttestationReport = exchange.report
        result = self.verifier.verify_report(
            report, enforce_counter=True, counter_stream=COLLECT_STREAM
        )
        collection = CollectionResult(
            device=report.device,
            collected_at=self.verifier.sim.now,
            result=result,
            records=list(report.records),
            report=report,
        )
        self.collections.append(collection)
        obs = self.verifier.sim.obs
        if obs.enabled:
            now = self.verifier.sim.now
            requested_at, ctx = exchange.requested_at, exchange.ctx
            span_args = dict(
                device=report.device, records=len(report.records),
            )
            if ctx is not None:
                span_args["trace_id"] = ctx.trace_id
            obs.spans.add_span(
                "erasmus.collection", requested_at, now,
                category="ra.verifier", **span_args,
            )
            obs.metrics.counter(
                "erasmus.collections", "completed collection round trips",
            ).inc()
            obs.metrics.histogram(
                "erasmus.collection.latency",
                "collect request to verdict (sim s)",
            ).observe(
                now - requested_at,
                exemplar=ctx.trace_id if ctx is not None else None,
            )
        if exchange.on_result is not None:
            exchange.on_result(collection)
