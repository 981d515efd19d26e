"""SeED: secure non-interactive attestation (Section 3.3, after [14]).

In SeED the *prover* initiates attestation at pseudorandom times and
the verifier just listens.  The paper lists three challenges and their
fixes, all modelled here:

1. **Replay** -- responses are not bound to a verifier challenge, so
   each report carries a strictly monotonic counter (we also support a
   synchronized-clock check via a freshness bound).
2. **Transient malware disinfecting itself right before attestation**
   -- trigger times must be *secret from all software on the prover*:
   they are derived from a short seed shared with the verifier and fire
   through the device's :class:`~repro.sim.device.SecureTimer` (the
   "dedicated timeout circuit"), so malware agents get no advance
   notification hook.
3. **A communication adversary dropping responses** -- the verifier
   derives the same trigger schedule from the shared seed and flags a
   MISSING verdict when an expected report does not arrive within a
   grace window.

The paper also notes SeED's DoS resilience (no inbound requests to
exhaust) and low communication overhead; both fall out of the
unidirectional design and are measured in the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.crypto.drbg import HmacDrbg
from repro.errors import ConfigurationError
from repro.obs.tracectx import TraceContext
from repro.ra.measurement import MeasurementConfig, MeasurementProcess
from repro.ra.report import AttestationReport, Verdict, VerificationResult
from repro.ra.service import listen
from repro.ra.verifier import Verifier
from repro.sim.device import Device
from repro.sim.network import Channel, Message

#: the SeED push counter stream (independent of ERASMUS collections)
PUSH_STREAM = "seed-push"


def trigger_schedule(shared_seed: bytes, min_gap: float, max_gap: float,
                     count: int, start: float = 0.0) -> List[float]:
    """The pseudorandom attestation times both sides derive.

    Gaps are uniform in ``[min_gap, max_gap]`` from an HMAC-DRBG keyed
    with the shared seed -- unpredictable without the seed, identical
    on both ends.
    """
    if min_gap <= 0 or max_gap < min_gap:
        raise ConfigurationError("need 0 < min_gap <= max_gap")
    drbg = HmacDrbg(shared_seed + b"seed-triggers")
    times = []
    t = start
    for _ in range(count):
        t += min_gap + drbg.uniform() * (max_gap - min_gap)
        times.append(t)
    return times


class SeedService:
    """Prover side: secret-timer-triggered measurements, pushed reports."""

    def __init__(
        self,
        device: Device,
        shared_seed: bytes,
        verifier_name: str = "vrf",
        min_gap: float = 5.0,
        max_gap: float = 15.0,
        trigger_count: int = 20,
        config: Optional[MeasurementConfig] = None,
        serve_fetch: bool = False,
    ) -> None:
        if device.nic is None:
            raise ConfigurationError("device needs a NIC for SeED")
        self.device = device
        self.shared_seed = shared_seed
        self.min_gap = min_gap
        self.max_gap = max_gap
        self.verifier_name = verifier_name
        self.config = config if config is not None else MeasurementConfig(
            algorithm="blake2s", order="sequential", atomic=False,
            priority=45,
        )
        self.schedule = trigger_schedule(
            shared_seed, min_gap, max_gap, trigger_count
        )
        #: opt-in: answer ``seed_fetch`` catch-up requests by resending
        #: the stored report (default off -- listening adds NIC events)
        self.serve_fetch = serve_fetch
        self.fetches_served = 0
        self.reports_sent: List[AttestationReport] = []
        self._counter = 0
        self._hooked = False

    def start(self) -> None:
        """Arm the secure timer for every trigger in the schedule.

        Crucially there is **no software-visible armed process**: until
        the timer fires, malware has nothing to observe (challenge 2).
        """
        for trigger_time in self.schedule:
            self.device.secure_timer.at(trigger_time, self._triggered)
        if self.serve_fetch:
            # Device.reset wipes the NIC's rx_signal waiters; re-listen
            # from the hook or the fetch path dies at the first brownout.
            if not self._hooked:
                self.device.add_reset_hook(self._listen_fetch)
                self._hooked = True
            self._listen_fetch()

    def _listen_fetch(self) -> None:
        listen(self.device.nic, self._on_fetch,
               kinds=frozenset({"seed_fetch"}))

    def _on_fetch(self, message: Message) -> None:
        """Catch-up: resend a stored report the verifier never saw.

        Reports are kept in RAM, which survives a brownout, so the
        fetch path also recovers reports generated before a reset."""
        payload = message.payload or {}
        counter = payload.get("counter")
        for report in self.reports_sent:
            if report.sent_counter == counter:
                self.fetches_served += 1
                self.device.trace.record(
                    self.device.sim.now, "seed.fetch", self.device.name,
                    counter=counter,
                )
                self.device.nic.send(
                    message.src, "seed_fetch_reply",
                    {"counter": counter, "report": report},
                    ctx=message.ctx,
                )
                return

    def _triggered(self) -> None:
        self._counter += 1
        counter = self._counter
        nonce = b"seed" + counter.to_bytes(8, "big")
        # The prover is the initiator in SeED's unidirectional design,
        # so the push is where the exchange's trace context is born.
        ctx = (
            TraceContext.mint("seed", self.device.name, counter)
            if self.device.sim.obs.enabled else None
        )
        mp = MeasurementProcess(
            self.device, self.config, nonce=nonce, counter=counter,
            mechanism="seed", ctx=ctx,
        )
        proc = self.device.cpu.spawn(
            f"{self.device.name}.seed-mp.{counter}",
            mp.run,
            priority=self.config.priority,
        )

        def send_report(_record, mp=mp, counter=counter, ctx=ctx) -> None:
            report = AttestationReport.authenticate(
                self.device.attestation_key,
                self.device.name,
                [mp.record],
                sent_counter=counter,
            )
            self.reports_sent.append(report)
            self.device.nic.send(
                self.verifier_name, "seed_report", report, ctx=ctx
            )

        proc.done_signal.wait(send_report)


@dataclass
class ExpectedReport:
    """One slot in the verifier's expectation ledger."""

    counter: int
    trigger_time: float
    deadline: float
    received: bool = False
    fetch_sent: bool = False
    result: Optional[VerificationResult] = None


class SeedMonitor:
    """Verifier side: awaits pushed reports, flags the missing ones.

    Replay defense is selectable per the paper ("SeED requires either
    monotonic counters or synchronized real time clocks"):

    * ``replay_defense="counter"`` -- strictly increasing per-stream
      monotonic counters (the default);
    * ``replay_defense="clock"`` -- synchronized clocks: a report whose
      newest measurement is older than ``clock_skew_bound`` at
      verification time is rejected as stale, catching replays without
      prover-side counter state.
    """

    def __init__(
        self,
        verifier: Verifier,
        channel: Channel,
        device_name: str,
        shared_seed: bytes,
        min_gap: float = 5.0,
        max_gap: float = 15.0,
        trigger_count: int = 20,
        grace: float = 2.0,
        endpoint_name: str = "vrf",
        replay_defense: str = "counter",
        clock_skew_bound: float = 1.0,
        catch_up: bool = False,
    ) -> None:
        if replay_defense not in ("counter", "clock"):
            raise ConfigurationError(
                f"unknown replay defense {replay_defense!r}"
            )
        self.verifier = verifier
        self.device_name = device_name
        self.grace = grace
        self.replay_defense = replay_defense
        self.clock_skew_bound = clock_skew_bound
        #: opt-in missed-report recovery: a slot whose deadline passes
        #: gets one ``seed_fetch`` before being declared MISSING (the
        #: prover must run ``serve_fetch=True``)
        self.catch_up = catch_up
        self.fetched = 0  # slots recovered via catch-up
        self.endpoint = channel.make_endpoint(endpoint_name)
        schedule = trigger_schedule(
            shared_seed, min_gap, max_gap, trigger_count
        )
        self.expected: List[ExpectedReport] = [
            ExpectedReport(
                counter=index + 1,
                trigger_time=t,
                deadline=t + grace,
            )
            for index, t in enumerate(schedule)
        ]
        listen(self.endpoint, self._on_message,
               kinds=frozenset({"seed_report"}))
        if catch_up:
            listen(self.endpoint, self._on_fetch_reply,
                   kinds=frozenset({"seed_fetch_reply"}))
        for slot in self.expected:
            verifier.sim.schedule_at(slot.deadline, self._check_missing, slot)

    def _slot_for(self, counter: int) -> Optional[ExpectedReport]:
        for slot in self.expected:
            if slot.counter == counter:
                return slot
        return None

    def _on_message(self, message: Message) -> None:
        if message.kind != "seed_report":
            return
        report: AttestationReport = message.payload
        if report.device != self.device_name:
            return
        if self.replay_defense == "counter":
            result = self.verifier.verify_report(
                report, enforce_counter=True, counter_stream=PUSH_STREAM
            )
        else:
            result = self.verifier.verify_report(report)
            staleness = self.verifier.sim.now - report.newest.t_end
            if result.healthy and staleness > self.clock_skew_bound:
                result = VerificationResult(
                    verdict=Verdict.REPLAY,
                    device=report.device,
                    verified_at=self.verifier.sim.now,
                    detail=(
                        f"stale report: measured {staleness:.3f}s ago, "
                        f"clock bound {self.clock_skew_bound:.3f}s"
                    ),
                )
                self.verifier.results.append(result)
        slot = self._slot_for(report.sent_counter)
        if slot is not None and not slot.received:
            slot.received = True
            slot.result = result
        obs = self.verifier.sim.obs
        if obs.enabled:
            # Push flight + verification, linked to the prover-minted
            # context so SeED exchanges appear in the causal timeline.
            span_args = dict(
                device=report.device, verdict=result.verdict.value,
            )
            if message.ctx is not None:
                span_args["trace_id"] = message.ctx.trace_id
            obs.spans.add_span(
                "seed.push", message.sent_at, self.verifier.sim.now,
                category="ra.verifier", **span_args,
            )

    def _on_fetch_reply(self, message: Message) -> None:
        """A catch-up fetch came back: verify it against its slot.

        The per-stream monotonic counter has usually moved past the
        missing slot by now (later pushes verified first), so the
        fetched report is verified *without* counter enforcement --
        its binding to the slot is the authenticated ``sent_counter``
        (the payload's echoed counter is unauthenticated and ignored:
        a replayed or forged reply can only ever land in the slot its
        report was genuinely generated for, and only a slot we asked
        about), and staleness is expected by construction, so the
        clock defense is skipped too."""
        payload = message.payload or {}
        report = payload.get("report")
        if not isinstance(report, AttestationReport):
            return
        if report.device != self.device_name:
            return
        slot = self._slot_for(report.sent_counter)
        if slot is None or slot.received or not slot.fetch_sent:
            return
        result = self.verifier.verify_report(report)
        slot.received = True
        slot.result = result
        self.fetched += 1
        obs = self.verifier.sim.obs
        if obs.enabled:
            obs.metrics.counter(
                "seed.catchup.recovered",
                "missed SeED reports recovered via fetch",
            ).inc()

    def _check_missing(self, slot: ExpectedReport) -> None:
        if slot.received:
            return
        if self.catch_up and not slot.fetch_sent:
            slot.fetch_sent = True
            self.endpoint.send(
                self.device_name, "seed_fetch", {"counter": slot.counter},
                ctx=(
                    TraceContext.mint(
                        "seed-fetch", self.device_name, slot.counter
                    )
                    if self.verifier.sim.obs.enabled else None
                ),
            )
            obs = self.verifier.sim.obs
            if obs.enabled:
                obs.metrics.counter(
                    "seed.catchup.fetches",
                    "catch-up fetches sent for missed SeED reports",
                ).inc()
            # one grace window for the fetch round trip
            self.verifier.sim.schedule(self.grace, self._check_missing, slot)
            return
        result = VerificationResult(
            verdict=Verdict.MISSING,
            device=self.device_name,
            verified_at=self.verifier.sim.now,
            detail=(
                f"expected report #{slot.counter} "
                f"(trigger ~{slot.trigger_time:.3f}) never arrived"
            ),
        )
        slot.result = result
        self.verifier.results.append(result)

    # -- summary -----------------------------------------------------------

    def missing_count(self) -> int:
        return sum(
            1 for slot in self.expected
            if slot.result is not None
            and slot.result.verdict is Verdict.MISSING
        )

    def verdict_series(self) -> List[str]:
        return [
            slot.result.verdict.value if slot.result else "pending"
            for slot in self.expected
        ]

