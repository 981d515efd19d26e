"""The served verifier: bounded queue, admission control, epoch batching.

One :class:`VerifierServer` fronts one :class:`~repro.ra.verifier.
Verifier` for an arbitrary prover population.  Reports arrive either
over the network (a :class:`~repro.sim.network.MuxEndpoint` spanning
the cohort channels) or via direct :meth:`VerifierServer.submit`
calls, pass admission control (per-tenant token bucket, then bounded
queue), and wait for the next *epoch tick*, which drains the whole
queue and verifies it in one
:meth:`~repro.ra.verifier.Verifier.verify_batch` call.

Every submitted report ends in exactly one verdict-ledger entry:
``verified``, ``rejected-rate-limit`` or ``rejected-queue-full`` --
nothing is dropped without a verdict, and the CI smoke job asserts
that invariant (``unaccounted 0``).

Determinism: admission, queue depth, drain times and verdicts depend
only on sim time and arrival order.  ``verify_batch`` only memoizes
the expected digests of the epoch, so every verdict equals what
:meth:`~repro.ra.verifier.Verifier.verify_report` gives the same
report in the same order.  The SLO taxonomy (``deferred-ok`` past the
queue-latency SLO, ``rejected`` at admission) lands in the shared
:class:`~repro.resilience.outcome.OutcomeReport`.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.ra.erasmus import COLLECT_STREAM
from repro.ra.report import AttestationReport
from repro.ra.seed import PUSH_STREAM
from repro.ra.service import listen
from repro.ra.verifier import Verifier
from repro.resilience.outcome import (
    OUTCOME_DEFERRED_OK,
    OUTCOME_REJECTED,
    OutcomeReport,
)
from repro.sim.engine import Simulator
from repro.sim.network import Endpoint, Message

#: message kinds the server consumes, with the per-kind verify kwargs
#: (the same replay defenses SeedMonitor / CollectorVerifier apply)
KIND_VERIFY_KWARGS: Dict[str, Dict[str, Any]] = {
    "seed_report": {"enforce_counter": True, "counter_stream": PUSH_STREAM},
    "collect_reply": {"enforce_counter": True, "counter_stream": COLLECT_STREAM},
    "att_report": {},
}

SERVED_KINDS = frozenset(KIND_VERIFY_KWARGS)

#: admission rejection reasons (ledger ``status`` values)
REJECT_RATE_LIMIT = "rejected-rate-limit"
REJECT_QUEUE_FULL = "rejected-queue-full"
STATUS_VERIFIED = "verified"


@dataclass(frozen=True)
class ServerConfig:
    """Service knobs (docs/verifier_service.md lists the SLO math).

    ``epoch`` is the batching period: the queue drains every ``epoch``
    sim-seconds, first at ``epoch``.  ``rate_limit`` is per-tenant
    tokens/second (0 disables the bucket), ``rate_burst`` the bucket
    capacity.  ``slo_queue_latency`` is the deferred-ok threshold.

    ``verify_cost`` / ``verify_cost_record`` are the sim-time cost of
    verifying one report: each drained report's verdict is delivered
    ``verify_cost + records * verify_cost_record`` sim-seconds after
    the drain start, cumulatively within the epoch
    (one verifier core working through the batch), so
    ``vserver.stage.verify`` observes real values.  Both default to 0:
    verdicts stay instantaneous, ledger fields keep their exact seed
    meaning (``queue_latency`` is always admission -> drain start) and
    golden ledgers stay byte-identical.  With costs that overrun the
    horizon, tail conclusions simply have not happened yet -- they
    show up in ``unaccounted`` exactly like still-queued reports.
    """

    queue_capacity: int = 256
    epoch: float = 0.5
    slo_queue_latency: float = 1.0
    rate_limit: float = 0.0
    rate_burst: float = 8.0
    verify_cost: float = 0.0
    verify_cost_record: float = 0.0

    def __post_init__(self) -> None:
        # the comparisons also reject NaN; an infinite time or rate
        # never lets the epoch train or the token bucket settle
        if not self.queue_capacity >= 1:
            raise ConfigurationError("queue_capacity must be >= 1")
        for name in ("epoch", "rate_burst"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(
                    f"{name} must be positive and finite"
                )
        for name in ("slo_queue_latency", "rate_limit", "verify_cost",
                     "verify_cost_record"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be >= 0 and finite")


class TokenBucket:
    """Per-tenant admission rate limit on the sim clock.

    Classic token bucket: ``rate`` tokens/second refill up to
    ``capacity``; each admitted report spends one token.  Refill is
    computed lazily from elapsed sim time, so the bucket never
    schedules events of its own (and cannot perturb the event
    sequence).
    """

    __slots__ = ("rate", "capacity", "tokens", "refilled_at")

    def __init__(self, rate: float, capacity: float,
                 now: float = 0.0) -> None:
        self.rate = rate
        self.capacity = capacity
        self.tokens = capacity
        self.refilled_at = now

    def try_take(self, now: float) -> bool:
        if self.rate <= 0:
            return True
        elapsed = now - self.refilled_at
        if elapsed > 0:
            self.tokens = min(
                self.capacity, self.tokens + elapsed * self.rate
            )
            self.refilled_at = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class LedgerEntry:
    """One report's fate, canonically serializable.

    Every field is sim-time- or arrival-order-derived, so the line
    does not depend on wall-clock speed -- the golden ledger test pins
    exactly that.
    """

    seq: int
    tenant: str
    device: str
    kind: str
    enqueued_at: float
    epoch: int
    status: str
    verdict: str = ""
    detail: str = ""
    records: int = 0
    queue_latency: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "tenant": self.tenant,
            "device": self.device,
            "kind": self.kind,
            "enqueued_at": round(self.enqueued_at, 9),
            "epoch": self.epoch,
            "status": self.status,
            "verdict": self.verdict,
            "detail": self.detail,
            "records": self.records,
            "queue_latency": round(self.queue_latency, 9),
        }

    def canonical_line(self) -> str:
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )


@dataclass
class _Queued:
    """One admitted report waiting for the next epoch drain."""

    seq: int
    tenant: str
    device: str
    kind: str
    enqueued_at: float
    report: AttestationReport
    verify_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: trace context carried from the prover's message (out-of-band)
    ctx: Optional[Any] = None


class VerifierServer:
    """The verifier service: admission -> queue -> epoch batch -> verdict."""

    def __init__(
        self,
        sim: Simulator,
        verifier: Verifier,
        config: Optional[ServerConfig] = None,
        *,
        name: str = "vsrv",
        endpoint: Optional[Endpoint] = None,
        outcomes: Optional[OutcomeReport] = None,
    ) -> None:
        self.sim = sim
        self.verifier = verifier
        self.config = config or ServerConfig()
        self.name = name
        self.endpoint = endpoint
        self.outcomes = outcomes if outcomes is not None else OutcomeReport()
        # maxlen is a backstop only: admission rejects before append,
        # so the deque can never silently evict an admitted report
        self.queue: Deque[_Queued] = deque(
            maxlen=self.config.queue_capacity
        )
        #: the run artifact itself, one entry per submitted report;
        #: growth sites carry allow[perf-unbounded-queue] suppressions
        self.ledger: List[LedgerEntry] = []
        #: exact per-report queue latencies for p50/p99 (one float per
        #: verified report; bounded by the traffic the caller generates)
        self.queue_latencies: List[float] = []
        self._buckets: Dict[str, TokenBucket] = {}
        self._tenants: Dict[str, str] = {}
        self._seq = 0
        self.epochs = 0
        self.submitted = 0
        self.rejected_rate = 0
        self.rejected_full = 0
        self.verified = 0
        self.max_queue_depth = 0
        self._running = False
        # lazily resolved instrument handles (same idiom as
        # repro.sim.network.Endpoint.deliver): the registry's
        # get-or-create lookup is paid once per instrument instead of
        # once per report, and because resolution still happens at the
        # first real observation, instrument creation order -- and so
        # snapshot content -- is unchanged
        self._admission_hist: Optional[Any] = None
        self._admitted_counter: Optional[Any] = None
        self._queue_depth_gauge: Optional[Any] = None
        self._rejected_counters: Dict[str, Any] = {}
        self._epochs_counter: Optional[Any] = None
        self._batch_size_hist: Optional[Any] = None
        self._verified_counter: Optional[Any] = None
        self._stage_queue_hist: Optional[Any] = None
        self._stage_verify_hist: Optional[Any] = None
        self._stage_total_hist: Optional[Any] = None
        #: optional *injected* wall clock (source it from
        #: :func:`repro.fleet.clock.perf_time`); when set, the server
        #: accumulates the wall time spent inside verification drains
        #: into :attr:`verify_wall_time`.  Pure observation: sim time,
        #: verdicts and the ledger are identical with it on or off.
        self.verify_wall_clock = None
        self.verify_wall_time = 0.0
        if endpoint is not None:
            listen(endpoint, self._on_message, kinds=SERVED_KINDS)

    # -- wiring ---------------------------------------------------------

    def register_tenant(self, device: str, tenant: str) -> None:
        """Map a prover to its rate-limit tenant (default: itself)."""
        self._tenants[device] = tenant

    def start(self) -> None:
        """Begin the epoch tick train (idempotent)."""
        if self._running:
            return
        self._running = True
        self.sim.schedule_at(self.config.epoch, self._tick)

    def stop(self) -> None:
        """Stop rescheduling ticks after the next drain."""
        self._running = False

    # -- admission ------------------------------------------------------

    def _on_message(self, message: Message) -> None:
        payload = message.payload
        report = (
            payload.get("report") if isinstance(payload, dict) else payload
        )
        if not isinstance(report, AttestationReport):
            return
        self.submit(
            report, kind=message.kind, sent_at=message.sent_at,
            ctx=message.ctx,
        )

    def submit(
        self,
        report: AttestationReport,
        *,
        kind: str = "seed_report",
        tenant: Optional[str] = None,
        sent_at: Optional[float] = None,
        ctx: Optional[Any] = None,
    ) -> Optional[LedgerEntry]:
        """Admission control for one report.

        Returns the rejection ledger entry when the report was turned
        away, or ``None`` when it was queued (its entry is written at
        verdict time).
        """
        verify_kwargs = KIND_VERIFY_KWARGS.get(kind)
        if verify_kwargs is None:
            raise ConfigurationError(f"unserved report kind {kind!r}")
        now = self.sim.now
        self.submitted += 1
        tenant = (
            tenant if tenant is not None
            else self._tenants.get(report.device, report.device)
        )
        seq = self._seq
        self._seq += 1
        obs = self.sim.obs
        if obs.enabled and sent_at is not None:
            hist = self._admission_hist
            if hist is None:
                hist = self._admission_hist = obs.metrics.histogram(
                    "vserver.stage.admission",
                    "send to admission decision (sim s)",
                )
            hist.observe(
                now - sent_at,
                exemplar=ctx.trace_id if ctx is not None else None,
            )
            if ctx is not None and obs.spans.enabled:
                obs.spans.add_span(
                    "vserver.stage.admission", sent_at, now,
                    category="ra.vserver", device=report.device,
                    kind=kind, trace_id=ctx.trace_id,
                )
        if self.config.rate_limit > 0:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    self.config.rate_limit, self.config.rate_burst, now
                )
            if not bucket.try_take(now):
                return self._reject(
                    seq, tenant, report, kind, now, REJECT_RATE_LIMIT,
                    "per-tenant rate limit exceeded",
                )
        if len(self.queue) >= self.config.queue_capacity:
            return self._reject(
                seq, tenant, report, kind, now, REJECT_QUEUE_FULL,
                f"queue at capacity {self.config.queue_capacity}",
            )
        self.queue.append(_Queued(
            seq=seq,
            tenant=tenant,
            device=report.device,
            kind=kind,
            enqueued_at=now,
            report=report,
            verify_kwargs=verify_kwargs,
            ctx=ctx,
        ))
        depth = len(self.queue)
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        if obs.enabled:
            counter = self._admitted_counter
            if counter is None:
                counter = self._admitted_counter = obs.metrics.counter(
                    "vserver.admitted", "reports admitted to the queue"
                )
            counter.inc()
            gauge = self._queue_depth_gauge
            if gauge is None:
                gauge = self._queue_depth_gauge = obs.metrics.gauge(
                    "vserver.queue.depth",
                    "reports waiting for an epoch drain",
                )
            gauge.set(depth)
        return None

    def _reject(
        self,
        seq: int,
        tenant: str,
        report: AttestationReport,
        kind: str,
        now: float,
        status: str,
        detail: str,
    ) -> LedgerEntry:
        if status == REJECT_RATE_LIMIT:
            self.rejected_rate += 1
        else:
            self.rejected_full += 1
        entry = LedgerEntry(
            seq=seq,
            tenant=tenant,
            device=report.device,
            kind=kind,
            enqueued_at=now,
            epoch=self.epochs,
            status=status,
            detail=detail,
            records=len(report.records),
        )
        # the ledger is the run artifact: one line per report, by design
        self.ledger.append(entry)  # repro: allow[perf-unbounded-queue]
        self.outcomes.record(
            device=report.device,
            nonce=report.auth_tag,
            requested_at=now,
            concluded_at=now,
            attempts=1,
            completed=False,
            classification=OUTCOME_REJECTED,
        )
        obs = self.sim.obs
        if obs.enabled:
            counter = self._rejected_counters.get(status)
            if counter is None:
                counter = self._rejected_counters[status] = (
                    obs.metrics.counter(
                        "vserver.rejected", "reports refused at admission",
                        reason=status,
                    )
                )
            counter.inc()
        return entry

    # -- epoch drain ----------------------------------------------------

    def _tick(self) -> None:
        self.epochs += 1
        now = self.sim.now
        drained = list(self.queue)
        self.queue.clear()
        obs = self.sim.obs
        if obs.enabled:
            counter = self._epochs_counter
            if counter is None:
                counter = self._epochs_counter = obs.metrics.counter(
                    "vserver.epochs", "epoch drains executed"
                )
            counter.inc()
            gauge = self._queue_depth_gauge
            if gauge is None:
                gauge = self._queue_depth_gauge = obs.metrics.gauge(
                    "vserver.queue.depth",
                    "reports waiting for an epoch drain",
                )
            gauge.set(0)
            hist = self._batch_size_hist
            if hist is None:
                hist = self._batch_size_hist = obs.metrics.histogram(
                    "vserver.epoch.batch_size", "reports drained per epoch",
                    buckets=(
                        0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024
                    ),
                )
            hist.observe(len(drained))
        if drained:
            clock = self.verify_wall_clock
            started = clock() if clock is not None else 0.0
            results = self.verifier.verify_batch(
                [(item.report, item.verify_kwargs) for item in drained]
            )
            if clock is not None:
                self.verify_wall_time += clock() - started
            # Verdicts are computed at the drain instant; the cost
            # model only defers their *delivery*, cumulatively -- one
            # verifier core working through the epoch's batch.
            # cost == 0 keeps the exact seed behavior: conclude
            # inline, no extra events.
            per_report = self.config.verify_cost
            per_record = self.config.verify_cost_record
            cumulative = 0.0
            epoch = self.epochs
            for item, result in zip(drained, results):
                cumulative += (
                    per_report + len(item.report.records) * per_record
                )
                if cumulative <= 0.0:
                    self._conclude(item, result, now)
                else:
                    self.sim.schedule(
                        cumulative, self._conclude, item, result, now,
                        cumulative, epoch,
                    )
        if self._running:
            self.sim.schedule(self.config.epoch, self._tick)

    def _conclude(
        self,
        item: _Queued,
        result,
        now: float,
        verify_time: float = 0.0,
        epoch: Optional[int] = None,
    ) -> None:
        # ``now`` is the drain start; with a cost model the verdict
        # lands ``verify_time`` later (the current sim instant), and
        # ``epoch`` pins the draining epoch even if later ticks have
        # already advanced the counter.
        latency = now - item.enqueued_at
        concluded_at = now + verify_time
        epoch = self.epochs if epoch is None else epoch
        self.verified += 1
        # deliberate accumulators: exact quantiles + the run artifact
        self.queue_latencies.append(latency)  # repro: allow[perf-unbounded-queue]
        entry = LedgerEntry(
            seq=item.seq,
            tenant=item.tenant,
            device=item.device,
            kind=item.kind,
            enqueued_at=item.enqueued_at,
            epoch=epoch,
            status=STATUS_VERIFIED,
            verdict=result.verdict.value,
            detail=result.detail,
            records=len(item.report.records),
            queue_latency=latency,
        )
        self.ledger.append(entry)  # repro: allow[perf-unbounded-queue]
        late = latency > self.config.slo_queue_latency
        self.outcomes.record(
            device=item.device,
            nonce=item.report.auth_tag,
            requested_at=item.enqueued_at,
            concluded_at=concluded_at,
            attempts=1,
            completed=True,
            verdict=result.verdict.value,
            classification=OUTCOME_DEFERRED_OK if late else None,
        )
        obs = self.sim.obs
        if obs.enabled:
            ctx = item.ctx
            exemplar = ctx.trace_id if ctx is not None else None
            counter = self._verified_counter
            if counter is None:
                counter = self._verified_counter = obs.metrics.counter(
                    "vserver.verified", "reports concluded with a verdict"
                )
            counter.inc()
            hist = self._stage_queue_hist
            if hist is None:
                hist = self._stage_queue_hist = obs.metrics.histogram(
                    "vserver.stage.queue",
                    "admission to epoch-drain start (sim s)",
                )
            hist.observe(latency, exemplar=exemplar)
            hist = self._stage_verify_hist
            if hist is None:
                hist = self._stage_verify_hist = obs.metrics.histogram(
                    "vserver.stage.verify",
                    "epoch-drain start to verdict (sim s; 0 until a "
                    "verify-cost model is charged)",
                )
            hist.observe(verify_time, exemplar=exemplar)
            hist = self._stage_total_hist
            if hist is None:
                hist = self._stage_total_hist = obs.metrics.histogram(
                    "vserver.stage.total",
                    "admission to verdict (sim s)",
                )
            hist.observe(latency + verify_time, exemplar=exemplar)
            if ctx is not None and obs.spans.enabled:
                obs.spans.add_span(
                    "vserver.stage.queue", item.enqueued_at, now,
                    category="ra.vserver", device=item.device,
                    trace_id=ctx.trace_id,
                )
                obs.spans.add_span(
                    "vserver.stage.verify", now, concluded_at,
                    category="ra.vserver", device=item.device,
                    trace_id=ctx.trace_id,
                )
                obs.spans.add_span(
                    "vserver.exchange", item.enqueued_at, concluded_at,
                    category="ra.vserver", device=item.device,
                    kind=item.kind, seq=item.seq,
                    verdict=result.verdict.value,
                    trace_id=ctx.trace_id,
                )

    # -- accounting ------------------------------------------------------

    @property
    def rejected(self) -> int:
        return self.rejected_rate + self.rejected_full

    @property
    def unaccounted(self) -> int:
        """Reports with neither a verdict, a rejection, nor a queue
        slot -- must be 0 (the CI smoke job greps for it)."""
        return (
            self.submitted - self.rejected - self.verified
            - len(self.queue)
        )

    def queue_latency_quantile(self, q: float) -> float:
        """Exact nearest-rank quantile over verified-report latencies."""
        if not self.queue_latencies:
            return 0.0
        ordered = sorted(self.queue_latencies)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[min(len(ordered), rank) - 1]

    def ledger_lines(self) -> List[str]:
        return [entry.canonical_line() for entry in self.ledger]

    def stats(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "verified": self.verified,
            "rejected": self.rejected,
            "rejected_rate_limit": self.rejected_rate,
            "rejected_queue_full": self.rejected_full,
            "queued": len(self.queue),
            "unaccounted": self.unaccounted,
            "epochs": self.epochs,
            "max_queue_depth": self.max_queue_depth,
            "queue_latency_p50": self.queue_latency_quantile(0.50),
            "queue_latency_p99": self.queue_latency_quantile(0.99),
        }

    def summary(self) -> str:
        stats = self.stats()
        verdicts = self.verifier.verdict_counts()
        verdict_text = ", ".join(
            f"{name} {count}" for name, count in sorted(verdicts.items())
        ) or "none"
        return "\n".join([
            (
                f"verifier service {self.name!r}: "
                f"{stats['submitted']} submitted, "
                f"{stats['verified']} verified, "
                f"{stats['rejected']} rejected "
                f"({stats['rejected_rate_limit']} rate-limit, "
                f"{stats['rejected_queue_full']} queue-full), "
                f"{stats['queued']} queued, "
                f"unaccounted {stats['unaccounted']}"
            ),
            (
                f"  epochs {stats['epochs']}, "
                f"max queue depth {stats['max_queue_depth']}, "
                f"queue latency p50 {stats['queue_latency_p50']:.3f}s "
                f"p99 {stats['queue_latency_p99']:.3f}s"
            ),
            f"  verdicts: {verdict_text}",
        ])
