"""The FaultPlan DSL: a seeded, deterministic schedule of trouble.

A :class:`FaultPlan` describes *when* the world misbehaves -- loss
bursts, latency jitter spikes, message corruption, prover
resets/brownouts, secure-timer clock drift -- and :meth:`FaultPlan.install`
turns it into a :class:`FaultInjector` channel filter plus scheduled
:meth:`Device.reset` / timer-skew events.  Every random decision comes
from an HMAC-DRBG keyed by the plan seed, so the same plan against the
same scenario yields byte-identical fault timelines (the fleet's
fault-matrix campaign diffs against a golden summary on exactly this
property).

Plans are built fluently::

    plan = (FaultPlan(seed=b"run-7")
            .loss(0.3, start=0.0, end=30.0)
            .jitter(0.02, start=5.0, end=15.0)
            .reset(at=6.0))

or parsed from the compact string form used by fleet run specs::

    FaultPlan.parse("loss=0.3@0:30;jitter=0.02@5:15;reset@6", seed=b"run-7")

Grammar: ``;``-separated terms, each ``name=value@start:end`` --
``reset@T`` and ``drift=rate@T`` take a single time, windowed terms
accept ``@start`` (open-ended) or no window at all (always active).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.drbg import HmacDrbg
from repro.errors import ConfigurationError
from repro.sim.network import ChannelFilter, FilterVerdict, Message


@dataclass(frozen=True)
class FaultWindow:
    """One active interval of a channel fault."""

    kind: str  # "loss" | "jitter" | "corrupt"
    start: float
    end: float  # math.inf for open-ended
    magnitude: float  # probability (loss/corrupt) or amplitude (jitter)
    mode: str = ""  # corruption: "crc" (discard) or "tamper" (mutate)
    match: Optional[str] = None  # message-kind prefix filter, None = all

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def matches(self, message: Message) -> bool:
        return self.match is None or message.kind.startswith(self.match)


class FaultPlan:
    """A deterministic schedule of injected faults (builder + DSL)."""

    def __init__(self, seed: bytes = b"fault-plan") -> None:
        self.seed = seed
        self.windows: List[FaultWindow] = []
        self.resets: List[float] = []
        self.drifts: List[Tuple[float, float]] = []  # (at, rate)

    # -- builder ----------------------------------------------------------

    def _window(self, kind: str, magnitude: float, start: float,
                end: Optional[float], mode: str = "",
                match: Optional[str] = None) -> "FaultPlan":
        if start < 0:
            raise ConfigurationError("fault window start must be >= 0")
        stop = math.inf if end is None else float(end)
        if stop <= start:
            raise ConfigurationError("fault window must end after it starts")
        self.windows.append(
            FaultWindow(kind, float(start), stop, magnitude, mode, match)
        )
        return self

    def loss(self, probability: float, start: float = 0.0,
             end: Optional[float] = None,
             match: Optional[str] = None) -> "FaultPlan":
        """Drop each matching message with ``probability`` in the window."""
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError("loss probability must be in [0, 1]")
        return self._window("loss", probability, start, end, match=match)

    def jitter(self, amplitude: float, start: float = 0.0,
               end: Optional[float] = None,
               match: Optional[str] = None) -> "FaultPlan":
        """Add uniform extra latency in ``[0, amplitude]`` seconds."""
        if amplitude < 0:
            raise ConfigurationError("jitter amplitude must be >= 0")
        return self._window("jitter", amplitude, start, end, match=match)

    def corrupt(self, probability: float, start: float = 0.0,
                end: Optional[float] = None, mode: str = "crc",
                match: Optional[str] = None) -> "FaultPlan":
        """Corrupt each matching message with ``probability``.

        ``mode="crc"`` (default): the link layer detects the damage and
        discards the frame -- indistinguishable from loss to the
        protocol, but counted separately.  ``mode="tamper"``: the frame
        arrives with its challenge nonce flipped, exercising the
        verifier's retry-on-bad-verdict path; payloads that carry no
        nonce degrade to a CRC discard.
        """
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError("corrupt probability must be in [0, 1]")
        if mode not in ("crc", "tamper"):
            raise ConfigurationError(f"unknown corruption mode {mode!r}")
        return self._window("corrupt", probability, start, end, mode, match)

    def reset(self, at: float) -> "FaultPlan":
        """Brownout the prover at time ``at`` (RAM survives, volatile
        attestation state does not -- see :meth:`Device.reset`)."""
        if at < 0:
            raise ConfigurationError("reset time must be >= 0")
        self.resets.append(float(at))
        return self

    def drift(self, rate: float, at: float = 0.0) -> "FaultPlan":
        """From time ``at``, skew the secure timer by fractional
        ``rate`` (0.01 = timers run 1% slow)."""
        if at < 0:
            raise ConfigurationError("drift start must be >= 0")
        self.drifts.append((float(at), float(rate)))
        return self

    @property
    def empty(self) -> bool:
        return not (self.windows or self.resets or self.drifts)

    # -- DSL --------------------------------------------------------------

    @classmethod
    def parse(cls, text: str, seed: bytes = b"fault-plan") -> "FaultPlan":
        """Parse the compact ``;``-separated string form (see module
        docstring for the grammar).  An empty string is the empty plan."""
        plan = cls(seed=seed)
        for raw_term in text.split(";"):
            term = raw_term.strip()
            if not term:
                continue
            head, _, when = term.partition("@")
            name, _, value = head.partition("=")
            name = name.strip()
            start, end = cls._parse_window(when, term)
            if name in ("reset", "drift") and end is not None:
                raise ConfigurationError(
                    f"{name} takes a single @time, not a window, in {term!r}"
                )
            if name == "reset":
                if value:
                    raise ConfigurationError(
                        f"reset takes no value in {term!r}"
                    )
                if when == "":
                    raise ConfigurationError(f"reset needs @time in {term!r}")
                plan.reset(start)
            elif name == "drift":
                plan.drift(cls._parse_number(value, term), at=start)
            elif name == "loss":
                plan.loss(cls._parse_number(value, term), start, end)
            elif name == "jitter":
                plan.jitter(cls._parse_number(value, term), start, end)
            elif name == "corrupt":
                plan.corrupt(cls._parse_number(value, term), start, end)
            else:
                raise ConfigurationError(
                    f"unknown fault term {name!r} in {term!r}"
                )
        return plan

    @staticmethod
    def _parse_number(value: str, term: str) -> float:
        if not value:
            raise ConfigurationError(f"missing value in fault term {term!r}")
        try:
            return float(value)
        except ValueError:
            raise ConfigurationError(
                f"bad number {value!r} in fault term {term!r}"
            )

    @staticmethod
    def _parse_window(when: str, term: str) -> Tuple[float, Optional[float]]:
        if not when:
            return 0.0, None
        start_text, sep, end_text = when.partition(":")
        start = FaultPlan._parse_number(start_text, term)
        if not sep:
            return start, None
        return start, FaultPlan._parse_number(end_text, term)

    # -- installation -----------------------------------------------------

    def install(
        self,
        channel: Optional[Any] = None,
        device: Optional[Any] = None,
        outcomes: Optional[Any] = None,
    ) -> Optional["FaultInjector"]:
        """Arm the plan: add the channel filter, schedule resets and
        drift onsets.  Returns the injector (or ``None`` when the plan
        has no channel faults).  ``outcomes`` is an
        :class:`~repro.resilience.outcome.OutcomeReport` that gets
        :meth:`~repro.resilience.outcome.OutcomeReport.note_reset`
        calls for reset attribution.
        """
        injector = None
        if channel is not None and self.windows:
            injector = FaultInjector(channel.sim, self)
            channel.add_filter(injector)
        if device is not None:
            for at in sorted(self.resets):
                device.sim.schedule_at(at, self._fire_reset, device, outcomes)
            for at, rate in sorted(self.drifts):
                device.sim.schedule_at(at, self._set_drift, device, rate)
        return injector

    @staticmethod
    def _fire_reset(device: Any, outcomes: Optional[Any]) -> None:
        if outcomes is not None:
            outcomes.note_reset(device.sim.now)
        device.reset()

    @staticmethod
    def _set_drift(device: Any, rate: float) -> None:
        device.secure_timer.drift = rate
        device.trace.record(
            device.sim.now, "timer.drift", device.name, rate=rate
        )


class FaultInjector(ChannelFilter):
    """The in-path filter realizing a plan's loss/jitter/corrupt windows.

    Decision order per message: loss first (the frame never arrives),
    then corruption (it arrives damaged), then jitter (it arrives
    late).  Each fault class draws from its own DRBG substream so
    adding, say, a jitter window never perturbs the loss pattern.
    """

    def __init__(self, sim: Any, plan: FaultPlan) -> None:
        self.sim = sim
        self.plan = plan
        self._drbgs: Dict[str, HmacDrbg] = {
            kind: HmacDrbg(plan.seed + b"|" + kind.encode())
            for kind in ("loss", "jitter", "corrupt")
        }
        self.lost_count = 0
        self.corrupted_count = 0
        self.jittered_count = 0

    def _active(self, kind: str, message: Message) -> List[FaultWindow]:
        now = self.sim.now
        return [
            w for w in self.plan.windows
            if w.kind == kind and w.active(now) and w.matches(message)
        ]

    def __call__(self, message: Message) -> FilterVerdict:
        obs = self.sim.obs
        for window in self._active("loss", message):
            if self._drbgs["loss"].uniform() < window.magnitude:
                self.lost_count += 1
                if obs.enabled:
                    obs.metrics.counter(
                        "net.faults.lost", "messages eaten by loss bursts",
                    ).inc()
                return FilterVerdict.drop()
        for window in self._active("corrupt", message):
            if self._drbgs["corrupt"].uniform() < window.magnitude:
                self.corrupted_count += 1
                if obs.enabled:
                    obs.metrics.counter(
                        "net.faults.corrupted",
                        "messages damaged in flight",
                    ).inc()
                if window.mode == "tamper":
                    tampered = self._tamper(message)
                    if tampered is not None:
                        return self._jittered(message, mutate=tampered)
                # CRC mode (or untamperable payload): the link layer
                # detects the damage and discards the frame.
                return FilterVerdict.drop()
        return self._jittered(message)

    def _jittered(self, message: Message,
                  mutate: Optional[Message] = None) -> FilterVerdict:
        extra = 0.0
        for window in self._active("jitter", message):
            draw = self._drbgs["jitter"].uniform() * window.magnitude
            if draw > 0.0:
                self.jittered_count += 1
                extra += draw
        return FilterVerdict.deliver(extra=extra, mutate=mutate)

    @staticmethod
    def _tamper(message: Message) -> Optional[Message]:
        """Flip the challenge nonce inside a dict payload; ``None`` if
        the payload carries nothing tamperable."""
        payload = message.payload
        if not isinstance(payload, dict):
            return None
        nonce = payload.get("nonce")
        if not isinstance(nonce, bytes) or not nonce:
            return None
        damaged = dict(payload)
        damaged["nonce"] = bytes(b ^ 0xFF for b in nonce)
        return dc_replace(message, payload=damaged)
