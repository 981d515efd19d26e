"""On-demand attestation plumbing shared by SMART, locking and SMARM.

Prover side: :class:`AttestationService` -- a device process that waits
for ``att_request`` messages, runs the configured measurement (one or
more rounds), and replies with an authenticated report.

Verifier side: :class:`OnDemandVerifier` -- sends challenges, matches
responses to outstanding nonces, verifies, and keeps the Figure 1
timeline (request sent / received / t_s / t_e / report received /
verified).

The verifier host is not CPU-modelled (Vrf is a resource-rich machine);
its verification latency is charged as a configurable engine delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs.tracectx import TraceContext
from repro.ra.measurement import MeasurementConfig, MeasurementProcess
from repro.ra.report import AttestationReport, Verdict, VerificationResult
from repro.ra.verifier import Verifier
from repro.resilience.retry import RetryPolicy
from repro.sim.device import Device
from repro.sim.engine import Signal
from repro.sim.network import Channel, Endpoint, Message
from repro.sim.process import Compute, Process, Sleep, WaitSignal

#: how many settled challenge nonces the prover remembers for dedup
DEDUP_CACHE_SIZE = 64


def send_report(endpoint: Endpoint, dst: str, report: Any,
                kind: str = "att_report",
                ctx: Optional[TraceContext] = None) -> Message:
    """The one sanctioned way attestation traffic enters the channel.

    Retransmission safety lives in the retry/dedup layer of this
    module; protocol code elsewhere must route ``att_*`` sends through
    here (or :class:`OnDemandVerifier`) so a send is never silently
    unrecoverable -- the ``ra-naked-send`` lint rule enforces exactly
    that boundary.  ``ctx`` carries the exchange's trace context across
    the hop (out-of-band; the report bytes are untouched).
    """
    return endpoint.send(dst, kind, report, ctx=ctx)


def listen(
    endpoint: Endpoint,
    handler: Callable[[Message], None],
    kinds: Optional[frozenset] = None,
) -> None:
    """Invoke ``handler`` for every matching message at ``endpoint``.

    ``kinds`` restricts the listener to specific message kinds; a
    listener consumes *only* its own kinds from the mailbox, so several
    protocol services (SMART + ERASMUS + SeED on one prover) can share
    one NIC without stealing each other's traffic.  ``kinds=None``
    consumes everything -- only safe for a dedicated endpoint.

    Signals are edges, so the listener re-arms itself before draining;
    draining (rather than using the fired value) makes same-instant
    bursts safe.
    """

    def matches(message: Message) -> bool:
        return kinds is None or message.kind in kinds

    def on_rx(_value) -> None:
        endpoint.rx_signal.wait(on_rx)
        taken = [m for m in endpoint.inbox if matches(m)]
        for message in taken:
            endpoint.inbox.remove(message)
            handler(message)

    endpoint.rx_signal.wait(on_rx)


class AttestationService:
    """The prover-side RA service.

    Parameters
    ----------
    device:
        The prover; must have a NIC attached.
    config:
        Measurement configuration (atomicity, order, locking, priority).
    mechanism:
        Name stamped into records ("smart", "dec-lock", "smarm", ...).
    inter_round_gap:
        Idle time between successive rounds of a multi-round request
        (SMARM needs *independent* measurements; a gap lets the
        application run in between).
    service_priority:
        Priority of the dispatcher process itself (cheap bookkeeping).
    """

    def __init__(
        self,
        device: Device,
        config: MeasurementConfig,
        mechanism: str = "ondemand",
        inter_round_gap: float = 0.0,
        service_priority: int = 60,
    ) -> None:
        if device.nic is None:
            raise ConfigurationError(
                "attach the device to a channel before installing RA"
            )
        self.device = device
        self.config = config
        self.mechanism = mechanism
        self.inter_round_gap = inter_round_gap
        self.service_priority = service_priority
        self.requests_handled = 0
        self.reports_sent: List[AttestationReport] = []
        #: optional SigningIdentity for non-repudiable reports (§2.4)
        self.signer = None
        self._counter = 0
        self._request_signal = Signal(device.sim, f"{device.name}.ra.req")
        self._pending: List[Message] = []
        self.process: Optional[Process] = None
        # Nonce dedup: None while that challenge's measurement is in
        # flight, the finished report once settled.  Retransmitted
        # challenges never double-measure -- in-flight duplicates are
        # dropped, settled ones get the cached report resent.  The
        # cache is volatile, so a Device.reset clears it and post-reset
        # retransmissions legitimately re-measure.
        self._dedup: Dict[bytes, Optional[AttestationReport]] = {}
        self._hooked = False

    def install(self) -> Process:
        """Register the message listener and start the dispatcher."""
        if not self._hooked:
            self.device.add_reset_hook(self._on_reset)
            self._hooked = True
        return self._activate()

    # -- internals --------------------------------------------------------

    def _activate(self) -> Process:
        listen(self.device.nic, self._on_message,
               kinds=frozenset({"att_request"}))
        self.process = self.device.cpu.spawn(
            f"{self.device.name}.ra-service",
            self._dispatcher,
            priority=self.service_priority,
        )
        return self.process

    def _on_reset(self) -> None:
        """Brownout: volatile RA state is gone; come back up listening."""
        self._pending.clear()
        self._dedup.clear()
        self._request_signal.clear()
        self.device.trace.record(
            self.device.sim.now, "ra.service.reboot", self.device.name
        )
        self._activate()

    def _on_message(self, message: Message) -> None:
        if message.kind != "att_request":
            return
        payload = message.payload or {}
        nonce = payload.get("nonce", b"")
        if nonce and nonce in self._dedup:
            cached = self._dedup[nonce]
            self.device.trace.record(
                self.device.sim.now, "ra.dedup", self.device.name,
                src=message.src, settled=cached is not None,
            )
            obs = self.device.obs
            if obs.enabled:
                obs.metrics.counter(
                    "ra.dedup.hits",
                    "retransmitted challenges absorbed without re-measuring",
                    mechanism=self.mechanism,
                ).inc()
            if cached is not None:
                # Settled: the report (not the measurement) was lost.
                send_report(self.device.nic, message.src, cached,
                            ctx=message.ctx)
            # In flight: the running measurement will answer.
            return
        if nonce:
            self._dedup[nonce] = None
        self._pending.append(message)
        self._request_signal.fire(message)

    def _trim_dedup(self) -> None:
        while len(self._dedup) > DEDUP_CACHE_SIZE:
            for key, value in self._dedup.items():
                if value is not None:
                    del self._dedup[key]
                    break
            else:
                return

    def _dispatcher(self, proc: Process):
        device = self.device
        while True:
            if not self._pending:
                yield WaitSignal(self._request_signal)
                continue
            message = self._pending.pop(0)
            payload = message.payload or {}
            nonce = payload.get("nonce", b"")
            rounds = int(payload.get("rounds", 1))
            device.trace.record(
                device.sim.now, "ra.request", device.name,
                src=message.src, rounds=rounds,
            )
            obs = device.obs
            round_span = None
            if obs.enabled:
                span_args = dict(
                    mechanism=self.mechanism, src=message.src,
                    rounds=rounds,
                )
                if message.ctx is not None:
                    span_args["trace_id"] = message.ctx.trace_id
                round_span = obs.spans.begin_span(
                    "ra.round", category="ra.service", **span_args
                )
            records = []
            for round_index in range(rounds):
                if round_index > 0 and self.inter_round_gap > 0:
                    yield Sleep(self.inter_round_gap)
                self._counter += 1
                mp = MeasurementProcess(
                    device, self.config, nonce=nonce,
                    counter=self._counter, mechanism=self.mechanism,
                    ctx=message.ctx,
                )
                mp_proc = device.cpu.spawn(
                    f"{device.name}.mp.{self._counter}",
                    mp.run,
                    priority=self.config.priority,
                )
                yield WaitSignal(mp_proc.done_signal)
                records.append(mp.record)
            report = AttestationReport.authenticate(
                device.attestation_key, device.name, records,
                sent_counter=self._counter,
            )
            if self.signer is not None:
                from repro.ra.signing import sign_data

                # Signing the fixed-size digest bundle costs the
                # prover the Figure 2 per-signature time.
                yield Compute(
                    device.timing.sign_time(self.signer.scheme)
                )
                report = report.with_signature(
                    sign_data(self.signer, report.signing_input()),
                    self.signer.scheme,
                )
            self.reports_sent.append(report)
            self.requests_handled += 1
            if nonce:
                self._dedup[nonce] = report
                self._trim_dedup()
            send_report(device.nic, message.src, report, ctx=message.ctx)
            device.trace.record(
                device.sim.now, "ra.reply", device.name,
                records=len(records), signed=self.signer is not None,
            )
            if round_span is not None:
                obs.spans.end_span(round_span, records=len(records))
                obs.metrics.counter(
                    "ra.requests.handled",
                    "attestation requests fully served",
                    mechanism=self.mechanism,
                ).inc()


@dataclass
class AttestationExchange:
    """One challenge/response exchange, with its Figure 1 timeline.

    ``attempts`` counts challenge transmissions (1 = no retransmission);
    ``status`` moves ``pending`` -> ``verified`` | ``timed-out``.
    """

    device: str
    nonce: bytes
    requested_at: float
    rounds: int = 1
    attempts: int = 1
    status: str = "pending"
    report: Optional[AttestationReport] = None
    report_received_at: Optional[float] = None
    result: Optional[VerificationResult] = None
    #: trace context minted for this exchange (None when obs disabled)
    ctx: Optional[TraceContext] = None

    @property
    def round_trip(self) -> Optional[float]:
        if self.result is None:
            return None
        return self.result.verified_at - self.requested_at


class OnDemandVerifier:
    """Verifier-side driver for challenge/response attestation.

    With ``retry=None`` (the default) behavior is exactly the classic
    fire-and-forget exchange and *no* extra simulator events are
    scheduled.  Passing a :class:`RetryPolicy` arms a per-exchange
    timeout: unanswered challenges are retransmitted with the same
    nonce (the prover's dedup cache keeps that idempotent), backing off
    exponentially with DRBG-seeded jitter, until the report verifies or
    the retry budget runs out.  An optional
    :class:`~repro.resilience.outcome.OutcomeReport` receives the
    classified outcome of every exchange.  ``rounds`` is the number of
    measurement passes a request asks for unless it names its own.
    """

    def __init__(
        self,
        verifier: Verifier,
        channel: Channel,
        endpoint_name: str = "vrf",
        verify_latency: float = 1e-3,
        retry: Optional[RetryPolicy] = None,
        outcomes: Optional["OutcomeReport"] = None,  # noqa: F821
        rounds: int = 1,
    ) -> None:
        self.verifier = verifier
        self.channel = channel
        self.endpoint = channel.make_endpoint(endpoint_name)
        self.verify_latency = verify_latency
        self.retry = retry
        self.outcomes = outcomes
        self.rounds = rounds
        self.exchanges: List[AttestationExchange] = []
        self._outstanding: Dict[bytes, AttestationExchange] = {}
        listen(self.endpoint, self._on_message,
               kinds=frozenset({"att_report"}))

    def request(
        self,
        device_name: str,
        rounds: Optional[int] = None,
        on_result: Optional[Callable[[AttestationExchange], None]] = None,
    ) -> AttestationExchange:
        """Send a challenge for ``rounds`` passes (default: the
        driver's) to ``device_name``; returns the exchange object that
        will be filled in as the protocol completes."""
        nonce = self.verifier.new_nonce(device_name)
        # Minting is gated on obs so NULL_OBS runs stay allocation-free
        # and their traces byte-identical.
        ctx = (
            TraceContext.mint("ondemand", device_name, nonce)
            if self.verifier.sim.obs.enabled else None
        )
        exchange = AttestationExchange(
            device=device_name,
            nonce=nonce,
            requested_at=self.verifier.sim.now,
            rounds=self.rounds if rounds is None else rounds,
            ctx=ctx,
        )
        exchange._on_result = on_result  # type: ignore[attr-defined]
        exchange._timeout = None  # type: ignore[attr-defined]
        exchange._drbg = (  # type: ignore[attr-defined]
            None if self.retry is None else self.retry.drbg_for(nonce)
        )
        self.exchanges.append(exchange)
        self._outstanding[nonce] = exchange
        self._transmit(exchange)
        return exchange

    def _transmit(self, exchange: AttestationExchange) -> None:
        # Retransmissions reuse the same context: one exchange, one
        # trace_id, however many attempts it takes.
        self.endpoint.send(
            exchange.device, "att_request",
            {"nonce": exchange.nonce, "rounds": exchange.rounds},
            ctx=exchange.ctx,
        )
        if self.retry is not None:
            wait = self.retry.wait_before(exchange.attempts, exchange._drbg)
            exchange._timeout = self.verifier.sim.schedule(
                wait, self._on_timeout, exchange
            )

    def _retransmit(self, exchange: AttestationExchange) -> None:
        exchange.attempts += 1
        obs = self.channel.sim.obs
        if obs.enabled:
            obs.metrics.counter(
                "ra.retries.total", "attestation challenge retransmissions",
            ).inc()
        if self.channel.trace is not None:
            self.channel.trace.record(
                self.channel.sim.now, "ra.retry", self.endpoint.name,
                device=exchange.device, attempt=exchange.attempts,
            )
        self._transmit(exchange)

    def _on_timeout(self, exchange: AttestationExchange) -> None:
        if exchange.status != "pending" or exchange.report is not None:
            return  # report arrived or exchange settled meanwhile
        exchange._timeout = None
        if exchange.attempts >= self.retry.max_attempts:
            self._conclude_failure(exchange)
            return
        self._retransmit(exchange)

    def _conclude_failure(self, exchange: AttestationExchange) -> None:
        exchange.status = "timed-out"
        self._outstanding.pop(exchange.nonce, None)
        obs = self.channel.sim.obs
        if obs.enabled:
            obs.metrics.counter(
                "ra.timeouts.total",
                "attestation exchanges abandoned after the retry budget",
            ).inc()
        if self.outcomes is not None:
            self.outcomes.record(
                device=exchange.device,
                nonce=exchange.nonce,
                requested_at=exchange.requested_at,
                concluded_at=self.channel.sim.now,
                attempts=exchange.attempts,
                completed=False,
            )
        callback = getattr(exchange, "_on_result", None)
        if callback is not None:
            callback(exchange)

    def _on_message(self, message: Message) -> None:
        if message.kind != "att_report":
            return
        report: AttestationReport = message.payload
        exchange = self._outstanding.get(report.newest.nonce)
        if exchange is None:
            # Unsolicited or replayed: verify anyway so replays are logged.
            self.verifier.sim.schedule(
                self.verify_latency,
                self.verifier.verify_report, report, b"\x00",
            )
            return
        if exchange.report is not None:
            return  # duplicate of a report already being verified
        exchange.report = report
        exchange.report_received_at = self.verifier.sim.now
        timeout = getattr(exchange, "_timeout", None)
        if timeout is not None:
            timeout.cancel()
            exchange._timeout = None  # type: ignore[attr-defined]
        self.verifier.sim.schedule(
            self.verify_latency, self._finish, exchange
        )

    def _finish(self, exchange: AttestationExchange) -> None:
        result = self.verifier.verify_report(
            exchange.report, expected_nonce=exchange.nonce
        )
        if (
            self.retry is not None
            and result.verdict in (Verdict.INVALID, Verdict.REPLAY)
            and exchange.attempts < self.retry.max_attempts
        ):
            # The report was damaged or stale, not the device dishonest:
            # spend a retry instead of concluding.
            exchange.report = None
            exchange.report_received_at = None
            self._retransmit(exchange)
            return
        exchange.result = result
        # Concluding on an unverifiable report (budget exhausted, or no
        # retry layer armed) delivered nothing trustworthy: the exchange
        # is timed-out in the outcome taxonomy, not verified.
        verified = result.verdict not in (Verdict.INVALID, Verdict.REPLAY)
        exchange.status = "verified" if verified else "timed-out"
        self._outstanding.pop(exchange.nonce, None)
        obs = self.channel.sim.obs
        if obs.enabled:
            now = self.channel.sim.now
            span_args = dict(
                device=exchange.device,
                verdict=exchange.result.verdict.value,
            )
            exemplar = None
            if exchange.ctx is not None:
                span_args["trace_id"] = exchange.ctx.trace_id
                span_args["attempts"] = exchange.attempts
                exemplar = exchange.ctx.trace_id
            obs.spans.add_span(
                "ra.round_trip", exchange.requested_at, now,
                category="ra.verifier", **span_args,
            )
            obs.metrics.histogram(
                "ra.round_trip.latency",
                "challenge to verdict latency (sim s)",
            ).observe(now - exchange.requested_at, exemplar=exemplar)
        if self.outcomes is not None:
            self.outcomes.record(
                device=exchange.device,
                nonce=exchange.nonce,
                requested_at=exchange.requested_at,
                concluded_at=self.channel.sim.now,
                attempts=exchange.attempts,
                completed=verified,
                verdict=exchange.result.verdict.value,
            )
        callback = getattr(exchange, "_on_result", None)
        if callback is not None:
            callback(exchange)
