"""On-demand attestation plumbing shared by SMART, locking and SMARM.

Prover side: :class:`AttestationService` -- a device process that waits
for ``att_request`` messages, runs the configured measurement (one or
more rounds), and replies with an authenticated report.
:class:`NonceDedup` keeps retransmitted challenges from measuring twice.

Verifier side: :class:`ExchangeDriver` -- the one request/reply
exchange with its retry state machine, configured by
:class:`OnDemandVerifier` (challenges, with the Figure 1 timeline:
request sent / received / t_s / t_e / report received / verified),
:class:`~repro.ra.erasmus.CollectorVerifier` and
:class:`~repro.ra.update.UpdateCoordinator`.

The verifier host is not CPU-modelled (Vrf is a resource-rich machine);
its verification latency is charged as a configurable engine delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

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

#: the most measurement passes one request may ask for: about five
#: times the 13 rounds that push SMARM's escape odds below 10^-6
#: (Section 3.2), so a request cannot keep the prover measuring
MAX_ROUNDS = 64


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


class NonceDedup:
    """Prover-side challenge dedup, keyed by nonce.

    An entry is ``None`` while that challenge's measurement is in
    flight and the finished report once settled.  Retransmitted
    challenges never double-measure: in-flight duplicates are dropped,
    settled ones get the cached report resent.  The cache is volatile,
    so the owning service clears it on a device reset and post-reset
    retransmissions legitimately re-measure.
    """

    def __init__(self, device: Device, mechanism: str) -> None:
        self.device = device
        self.mechanism = mechanism
        self._entries: Dict[bytes, Optional[AttestationReport]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def admit(self, message: Message) -> bool:
        """True if ``message`` is a challenge to measure; False if it
        duplicates a known nonce (then the cached report, if settled,
        is resent) or is malformed (a payload that is not a dict is
        dropped)."""
        payload = message.payload
        if payload is None:
            return True
        if not isinstance(payload, dict):
            return False
        nonce = payload.get("nonce", b"")
        if not nonce:
            return True
        if nonce not in self._entries:
            self._entries[nonce] = None
            return True
        cached = self._entries[nonce]
        device = self.device
        device.trace.record(
            device.sim.now, "ra.dedup", device.name,
            src=message.src, settled=cached is not None,
        )
        obs = device.obs
        if obs.enabled:
            obs.metrics.counter(
                "ra.dedup.hits",
                "retransmitted challenges absorbed without re-measuring",
                mechanism=self.mechanism,
            ).inc()
        if cached is not None:
            # Settled: the report (not the measurement) was lost.
            send_report(device.nic, message.src, cached, ctx=message.ctx)
        # In flight: the running measurement will answer.
        return False

    def settle(self, nonce: bytes, report: AttestationReport) -> None:
        """Cache the report that answered ``nonce``, evicting the
        oldest settled entries past :data:`DEDUP_CACHE_SIZE`."""
        if not nonce:
            return
        self._entries[nonce] = report
        while len(self._entries) > DEDUP_CACHE_SIZE:
            for key, value in self._entries.items():
                if value is not None:
                    del self._entries[key]
                    break
            else:
                return


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
        self._dedup = NonceDedup(device, mechanism)
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
        payload = message.payload
        if (
            isinstance(payload, dict) and "rounds" in payload
            and not _valid_rounds(payload["rounds"])
        ):
            return  # malformed: dropped before its nonce is in flight
        if self._dedup.admit(message):
            self._pending.append(message)
            self._request_signal.fire(message)

    def _dispatcher(self, proc: Process):
        device = self.device
        while True:
            if not self._pending:
                yield WaitSignal(self._request_signal)
                continue
            message = self._pending.pop(0)
            payload = message.payload or {}
            nonce = payload.get("nonce", b"")
            rounds = payload.get("rounds", 1)
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
            self._dedup.settle(nonce, report)
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
    #: called once when the exchange concludes (with what: the driver's call)
    on_result: Optional[Callable[[Any], None]] = None
    #: the armed retry timer, if any
    timeout: Any = None
    #: the retry policy's jitter stream for this exchange
    drbg: Any = None
    #: ``(kind, payload)`` that every transmission of the request sends
    request: Tuple[str, Any] = ("", None)

    @property
    def round_trip(self) -> Optional[float]:
        if self.result is None:
            return None
        return self.result.verified_at - self.requested_at


class ExchangeDriver:
    """The verifier side of a request/reply exchange: the reply
    endpoint, the nonce -> exchange map and the retry state machine.

    With ``retry=None`` a request is sent once and no timer is
    scheduled; a :class:`RetryPolicy` resends an unanswered request
    with the same nonce on the policy's backoff until a reply arrives
    or the budget is spent.  Subclasses supply :meth:`_reply`,
    :meth:`_finish`, :meth:`_abandon` and :meth:`_unsolicited`.
    """

    #: message kinds the replies arrive as
    reply_kinds: frozenset = frozenset()

    def __init__(self, verifier: Verifier, channel: Channel,
                 endpoint_name: str, verify_latency: float,
                 retry: Optional[RetryPolicy]) -> None:
        self.verifier = verifier
        self.channel = channel
        self.endpoint = channel.make_endpoint(endpoint_name)
        self.verify_latency = verify_latency
        self.retry = retry
        self._outstanding: Dict[bytes, AttestationExchange] = {}
        listen(self.endpoint, self._on_message, kinds=self.reply_kinds)

    def _open(self, device_name: str, nonce: bytes,
              request: Tuple[str, Any], on_result: Optional[Callable] = None,
              trace_kind: Optional[str] = None,
              rounds: int = 1) -> AttestationExchange:
        """Register and send a new exchange.  ``trace_kind`` names the
        trace context to mint (gated on obs, so NULL_OBS runs stay
        allocation-free and their traces byte-identical)."""
        sim = self.verifier.sim
        exchange = AttestationExchange(
            device=device_name,
            nonce=nonce,
            requested_at=sim.now,
            rounds=rounds,
            ctx=(
                TraceContext.mint(trace_kind, device_name, nonce)
                if trace_kind is not None and sim.obs.enabled else None
            ),
            on_result=on_result,
            drbg=None if self.retry is None else self.retry.drbg_for(nonce),
            request=request,
        )
        self._outstanding[nonce] = exchange
        self._transmit(exchange)
        return exchange

    def _transmit(self, exchange: AttestationExchange) -> None:
        # Retransmissions reuse the same context: one exchange, one
        # trace_id, however many attempts it takes.
        kind, payload = exchange.request
        self.endpoint.send(exchange.device, kind, payload, ctx=exchange.ctx)
        if self.retry is not None:
            wait = self.retry.wait_before(exchange.attempts, exchange.drbg)
            exchange.timeout = self.verifier.sim.schedule(
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
            return  # reply arrived or exchange settled meanwhile
        exchange.timeout = None
        if self._can_retry(exchange):
            self._retransmit(exchange)
            return
        self._settle(exchange, "timed-out")
        obs = self.channel.sim.obs
        if obs.enabled:
            obs.metrics.counter(
                "ra.timeouts.total",
                "attestation exchanges abandoned after the retry budget",
            ).inc()
        self._abandon(exchange)

    def _can_retry(self, exchange: AttestationExchange) -> bool:
        retry = self.retry
        return retry is not None and exchange.attempts < retry.max_attempts

    def _settle(self, exchange: AttestationExchange, status: str) -> None:
        exchange.status = status
        self._outstanding.pop(exchange.nonce, None)

    def _on_message(self, message: Message) -> None:
        nonce, report = self._reply(message)
        if report is None:
            return  # malformed: carries no report
        exchange = self._outstanding.get(nonce)
        if exchange is None:
            self._unsolicited(report)
            return
        if exchange.report is not None:
            return  # duplicate of a report already being verified
        exchange.report = report
        exchange.report_received_at = self.verifier.sim.now
        if exchange.timeout is not None:
            exchange.timeout.cancel()
            exchange.timeout = None
        self.verifier.sim.schedule(
            self.verify_latency, self._finish, exchange
        )

    # -- what each driver supplies ----------------------------------------

    def _reply(self, message: Message) -> Tuple[Optional[bytes], Any]:
        """``(nonce, report)`` of a reply; a ``None`` nonce matches no
        exchange, and a ``None`` report (a malformed reply) is dropped.
        Default: the payload is the report, and its newest record names
        the nonce (an empty report names none)."""
        report = message.payload
        if not isinstance(report, AttestationReport):
            return None, None
        return (report.newest.nonce if report.records else None), report

    def _finish(self, exchange: AttestationExchange) -> None:
        """Verify the reply ``verify_latency`` after it arrived."""
        raise NotImplementedError

    def _abandon(self, exchange: AttestationExchange) -> None:
        """The retry budget is spent and the exchange is settled
        ``timed-out``; by default nothing more happens."""

    def _unsolicited(self, report: Any) -> None:
        """A reply matching no exchange; by default it is dropped."""


def _valid_rounds(rounds: Any) -> bool:
    """An integer in ``[1, MAX_ROUNDS]`` (a ``bool`` is not a round
    count)."""
    return (
        isinstance(rounds, int) and not isinstance(rounds, bool)
        and 1 <= rounds <= MAX_ROUNDS
    )


def check_rounds(rounds: Any) -> int:
    """``rounds`` if it is a valid round count, else
    :class:`ConfigurationError` (run specs and verifier drivers)."""
    if not _valid_rounds(rounds):
        raise ConfigurationError(
            f"rounds must be an integer within [1, {MAX_ROUNDS}], "
            f"got {rounds!r}"
        )
    return rounds


class OnDemandVerifier(ExchangeDriver):
    """Verifier-side driver for challenge/response attestation.

    With ``retry=None`` (the default) behavior is exactly the classic
    fire-and-forget exchange and *no* extra simulator events are
    scheduled.  Passing a :class:`RetryPolicy` retransmits unanswered
    challenges with the same nonce (the prover's dedup cache keeps
    that idempotent), and an ``INVALID``/``REPLAY`` report spends a
    retry instead of concluding.  An optional
    :class:`~repro.resilience.outcome.OutcomeReport` receives the
    classified outcome of every exchange.  ``rounds`` is the number of
    measurement passes a request asks for unless it names its own.
    """

    reply_kinds = frozenset({"att_report"})

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
        self.outcomes = outcomes
        self.rounds = check_rounds(rounds)
        self.exchanges: List[AttestationExchange] = []
        super().__init__(verifier, channel, endpoint_name, verify_latency,
                         retry)

    def request(
        self,
        device_name: str,
        rounds: Optional[int] = None,
        on_result: Optional[Callable[[AttestationExchange], None]] = None,
    ) -> AttestationExchange:
        """Send a challenge for ``rounds`` passes (default: the
        driver's) to ``device_name``; returns the exchange object that
        will be filled in as the protocol completes."""
        rounds = self.rounds if rounds is None else check_rounds(rounds)
        nonce = self.verifier.new_nonce(device_name)
        exchange = self._open(
            device_name, nonce,
            ("att_request", {"nonce": nonce, "rounds": rounds}),
            on_result=on_result, trace_kind="ondemand", rounds=rounds,
        )
        self.exchanges.append(exchange)
        return exchange

    def _abandon(self, exchange: AttestationExchange) -> None:
        self._record_outcome(exchange, completed=False)
        if exchange.on_result is not None:
            exchange.on_result(exchange)

    def _unsolicited(self, report: AttestationReport) -> None:
        # Unsolicited, replayed or empty: verify anyway so it is logged.
        self.verifier.sim.schedule(
            self.verify_latency,
            self.verifier.verify_report, report, b"\x00",
        )

    def _record_outcome(self, exchange: AttestationExchange,
                        completed: bool, verdict: str = "") -> None:
        if self.outcomes is not None:
            self.outcomes.record(
                device=exchange.device,
                nonce=exchange.nonce,
                requested_at=exchange.requested_at,
                concluded_at=self.channel.sim.now,
                attempts=exchange.attempts,
                completed=completed,
                verdict=verdict,
            )

    def _finish(self, exchange: AttestationExchange) -> None:
        result = self.verifier.verify_report(
            exchange.report, expected_nonce=exchange.nonce
        )
        verified = result.verdict not in (Verdict.INVALID, Verdict.REPLAY)
        if not verified and self._can_retry(exchange):
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
        self._settle(exchange, "verified" if verified else "timed-out")
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
        self._record_outcome(
            exchange, completed=verified,
            verdict=exchange.result.verdict.value,
        )
        if exchange.on_result is not None:
            exchange.on_result(exchange)

