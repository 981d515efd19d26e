"""Verifier <-> prover communication with latency and adversaries.

On-demand RA (Figure 1) begins with a network round trip, and SeED
(Section 3.3) must survive a *communication adversary* that drops
attestation responses.  This module provides:

* :class:`Endpoint` -- a named mailbox with an arrival signal;
* :class:`Channel` -- a bidirectional link with a latency model;
* :class:`ChannelFilter` / :class:`FilterVerdict` -- the one in-path
  filter protocol shared by adversaries and fault injectors;
* :class:`DropAdversary` / :class:`DelayAdversary` / :class:`ReplayAdversary`
  -- in-path filters used by the failure-injection tests.

Filters speak :class:`FilterVerdict`.  A plain callable may instead
return ``None`` (drop), a number (the delivery delay) or a list of
``(delay, message)`` pairs (the replacement fan-out);
:meth:`Channel.send` normalizes every return through
:meth:`FilterVerdict.coerce`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.engine import Signal, Simulator


@dataclass(frozen=True)
class Message:
    """One network message.

    ``ctx`` is an out-of-band :class:`repro.obs.tracectx.TraceContext`
    carried alongside (never inside) the protocol payload: MAC'd bytes
    are computed from ``payload`` only, so tracing never perturbs the
    golden protocol transcripts.  ``None`` means untraced.
    """

    msg_id: int
    src: str
    dst: str
    kind: str
    payload: Any
    sent_at: float
    ctx: Any = None


class Endpoint:
    """A named mailbox attached to a channel.

    Processes consume messages by waiting on :attr:`rx_signal` and then
    draining :meth:`receive`.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.inbox: List[Message] = []
        self.rx_signal = Signal(sim, f"{name}.rx")
        self.channel: Optional["Channel"] = None
        self.received_count = 0
        #: ``net.messages.delivered`` reads ``received_count`` when
        #: sampled; its source is registered on the first delivery, so
        #: the series is absent from snapshots until a message arrives
        self._delivered_read = False

    def send(self, dst: str, kind: str, payload: Any,
             ctx: Any = None) -> Message:
        """Send via the attached channel."""
        if self.channel is None:
            raise ConfigurationError(f"endpoint {self.name!r} not attached")
        return self.channel.send(self.name, dst, kind, payload, ctx=ctx)

    def deliver(self, message: Message) -> None:
        """Called by the channel when a message arrives here."""
        self.inbox.append(message)
        self.received_count += 1
        obs = self.sim.obs
        if obs.enabled:
            # The flight interval only becomes known on arrival, so it
            # is recorded retrospectively from the send stamp.
            if message.ctx is not None:
                obs.spans.add_span(
                    "net.delivery", message.sent_at, self.sim.now,
                    category="net", src=message.src, dst=message.dst,
                    kind=message.kind, trace_id=message.ctx.trace_id,
                )
            else:
                obs.spans.add_span(
                    "net.delivery", message.sent_at, self.sim.now,
                    category="net", src=message.src, dst=message.dst,
                    kind=message.kind,
                )
            if not self._delivered_read:
                self._delivered_read = True
                obs.metrics.read_counter(
                    "net.messages.delivered", lambda: self.received_count,
                    "messages handed to an endpoint",
                )
        self.rx_signal.fire(message)

    def receive(self) -> Optional[Message]:
        """Pop the oldest pending message, or ``None``."""
        if not self.inbox:
            return None
        return self.inbox.pop(0)

    def drain(self) -> List[Message]:
        """Pop every pending message."""
        messages, self.inbox = self.inbox, []
        return messages


class MuxEndpoint(Endpoint):
    """A many-to-one mailbox spanning several channels.

    The served verifier's front door: thousands of provers live on
    per-cohort channels (each with its own latency model and fault
    filters), while the server terminates them all in one inbox and
    one ``rx_signal``.  :meth:`join` attaches this endpoint to an
    additional channel under its own name; :meth:`send` routes by
    destination, picking the first joined channel that knows ``dst``
    (channel join order, so routing stays deterministic).
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.channels: List["Channel"] = []
        super().__init__(sim, name)

    # ``Channel.attach`` assigns ``endpoint.channel``; the mux turns
    # that single-owner slot into an accumulating membership so joining
    # a second channel does not silently detach the first.
    @property
    def channel(self) -> Optional["Channel"]:
        return self.channels[0] if self.channels else None

    @channel.setter
    def channel(self, value: Optional["Channel"]) -> None:
        if value is not None and value not in self.channels:
            self.channels.append(value)

    def join(self, channel: "Channel") -> "MuxEndpoint":
        """Attach to one more channel (same name on every channel)."""
        channel.attach(self)
        return self

    def send(self, dst: str, kind: str, payload: Any,
             ctx: Any = None) -> Message:
        for channel in self.channels:
            if dst in channel.endpoints:
                return channel.send(self.name, dst, kind, payload, ctx=ctx)
        raise ConfigurationError(
            f"mux endpoint {self.name!r} reaches no channel with "
            f"destination {dst!r}"
        )


@dataclass(frozen=True)
class FilterVerdict:
    """What one filter decided about one in-flight message.

    ``action`` is ``"deliver"``, ``"drop"`` or ``"replace"``.  On
    deliver, ``delay`` (when not ``None``) *replaces* the delivery
    delay accumulated so far and ``extra`` is added on top -- jitter
    injectors use ``extra`` so they compose with whatever latency the
    channel or an upstream filter chose.  On replace, ``deliveries``
    is the full ``(delay, message)`` fan-out that substitutes for the
    original delivery (the replay adversary's contract).
    """

    action: str = "deliver"
    delay: Optional[float] = None
    extra: float = 0.0
    deliveries: Tuple[Tuple[float, "Message"], ...] = ()
    #: substitute message delivered in place of the original (in-flight
    #: tampering); ``None`` delivers the message unchanged
    mutate: Optional["Message"] = None

    def __post_init__(self) -> None:
        if self.action not in ("deliver", "drop", "replace"):
            raise ConfigurationError(
                f"unknown filter action {self.action!r}"
            )
        if self.extra < 0:
            raise ConfigurationError("extra delay must be non-negative")

    # -- constructors -----------------------------------------------------

    @classmethod
    def deliver(cls, delay: Optional[float] = None, extra: float = 0.0,
                mutate: Optional["Message"] = None) -> "FilterVerdict":
        return cls("deliver", delay=delay, extra=extra, mutate=mutate)

    @classmethod
    def drop(cls) -> "FilterVerdict":
        return cls("drop")

    @classmethod
    def replace(
        cls, deliveries: Any
    ) -> "FilterVerdict":
        return cls("replace", deliveries=tuple(
            (float(delay), message) for delay, message in deliveries
        ))

    @classmethod
    def coerce(cls, raw: Any) -> "FilterVerdict":
        """Normalize a filter's return value.

        ``None`` drops the message, a list of ``(delay, message)``
        pairs replaces the delivery, any number replaces the delivery
        delay; a :class:`FilterVerdict` passes through.
        """
        if isinstance(raw, FilterVerdict):
            return raw
        if raw is None:
            return cls.drop()
        if isinstance(raw, (list, tuple)):
            return cls.replace(raw)
        return cls.deliver(delay=float(raw))


class ChannelFilter:
    """Base class for in-path filters: ``__call__(Message) -> FilterVerdict``.

    Adversaries and fault injectors both subclass this.  Any other
    callable handed to :meth:`Channel.add_filter` works too, as long as
    it returns something :meth:`FilterVerdict.coerce` accepts.
    """

    def __call__(self, message: Message) -> FilterVerdict:
        raise NotImplementedError


class Channel:
    """A link between named endpoints with latency and optional filters.

    ``latency`` may be a constant (seconds) or a callable
    ``latency(message) -> float``.  Filters see each message before
    delivery and return a :class:`FilterVerdict`, or a value
    :meth:`FilterVerdict.coerce` normalizes (None/number/list).
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Any = 0.005,
        trace: Optional[Any] = None,
    ) -> None:
        self.sim = sim
        self.latency = latency
        self.trace = trace
        self.endpoints: Dict[str, Endpoint] = {}
        self.filters: List[Callable[[Message], Any]] = []
        # counts, not captured messages, so a message is freed once it
        # is delivered (a caller that needs the traffic adds a filter
        # that records it); ``net.messages.sent``/``dropped`` read them,
        # registered on the first send/drop (see Endpoint.deliver)
        self.sent_count = 0
        self.dropped_count = 0
        self._ids = itertools.count(1)
        self._sent_read = False
        self._dropped_read = False

    def attach(self, endpoint: Endpoint) -> Endpoint:
        if endpoint.name in self.endpoints:
            raise ConfigurationError(
                f"endpoint name {endpoint.name!r} already attached"
            )
        self.endpoints[endpoint.name] = endpoint
        endpoint.channel = self
        return endpoint

    def make_endpoint(self, name: str) -> Endpoint:
        """Create and attach an endpoint in one step."""
        return self.attach(Endpoint(self.sim, name))

    def add_filter(self, filter_fn: Callable[[Message], Any]) -> None:
        self.filters.append(filter_fn)

    def _base_latency(self, message: Message) -> float:
        if callable(self.latency):
            return float(self.latency(message))
        return float(self.latency)

    def send(self, src: str, dst: str, kind: str, payload: Any,
             ctx: Any = None) -> Message:
        if dst not in self.endpoints:
            raise ConfigurationError(f"unknown destination {dst!r}")
        message = Message(
            next(self._ids), src, dst, kind, payload, self.sim.now, ctx
        )
        self.sent_count += 1
        obs = self.sim.obs
        if obs.enabled and not self._sent_read:
            self._sent_read = True
            obs.metrics.read_counter(
                "net.messages.sent", lambda: self.sent_count,
                "messages entering the channel",
            )
        deliveries = [(self._base_latency(message), message)]
        for filter_fn in self.filters:
            next_deliveries = []
            for delay, msg in deliveries:
                verdict = FilterVerdict.coerce(filter_fn(msg))
                if verdict.action == "drop":
                    self.dropped_count += 1
                    if obs.enabled and not self._dropped_read:
                        self._dropped_read = True
                        obs.metrics.read_counter(
                            "net.messages.dropped",
                            lambda: self.dropped_count,
                            "messages eaten by an in-path filter",
                        )
                    if self.trace is not None:
                        self.trace.record(
                            self.sim.now, "net.drop", msg.src, msg_kind=msg.kind
                        )
                    continue
                if verdict.action == "replace":
                    next_deliveries.extend(verdict.deliveries)
                    continue
                chosen = delay if verdict.delay is None else verdict.delay
                delivered = msg if verdict.mutate is None else verdict.mutate
                next_deliveries.append((chosen + verdict.extra, delivered))
            deliveries = next_deliveries
        for delay, msg in deliveries:
            self.sim.schedule(delay, self.endpoints[msg.dst].deliver, msg)
            if self.trace is not None:
                self.trace.record(
                    self.sim.now,
                    "net.send",
                    msg.src,
                    dst=msg.dst,
                    msg_kind=msg.kind,
                    delay=round(delay, 6),
                )
        return message


class DropAdversary(ChannelFilter):
    """Drops matching messages with a given probability.

    The SeED communication adversary: suppress attestation responses so
    the verifier never learns the prover was dirty.
    """

    def __init__(
        self,
        probability: float = 1.0,
        kind: Optional[str] = None,
        rng: Optional[random.Random] = None,
        base_latency: float = 0.005,
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError("probability must be in [0, 1]")
        self.probability = probability
        self.kind = kind
        self.rng = rng if rng is not None else random.Random(0)
        self.base_latency = base_latency
        self.dropped_count = 0

    def __call__(self, message: Message) -> FilterVerdict:
        if self.kind is not None and message.kind != self.kind:
            return FilterVerdict.deliver(delay=self.base_latency)
        if self.rng.random() < self.probability:
            self.dropped_count += 1
            return FilterVerdict.drop()
        return FilterVerdict.deliver(delay=self.base_latency)


class DelayAdversary(ChannelFilter):
    """Adds a fixed extra delay to matching messages (request deferral
    in Figure 1's timeline)."""

    def __init__(
        self, extra_delay: float, kind: Optional[str] = None,
        base_latency: float = 0.005,
    ) -> None:
        if extra_delay < 0:
            raise ConfigurationError("extra_delay must be non-negative")
        self.extra_delay = extra_delay
        self.kind = kind
        self.base_latency = base_latency

    def __call__(self, message: Message) -> FilterVerdict:
        if self.kind is not None and message.kind != self.kind:
            return FilterVerdict.deliver(delay=self.base_latency)
        return FilterVerdict.deliver(
            delay=self.base_latency + self.extra_delay
        )


class ReplayAdversary(ChannelFilter):
    """Records matching messages and re-injects each one ``copies``
    times after ``replay_delay`` -- the attack SeED's monotonic
    counters must defeat."""

    def __init__(
        self,
        kind: str,
        replay_delay: float = 1.0,
        copies: int = 1,
        base_latency: float = 0.005,
    ) -> None:
        self.kind = kind
        self.replay_delay = replay_delay
        self.copies = copies
        self.base_latency = base_latency
        self.captured: List[Message] = []

    def __call__(self, message: Message) -> FilterVerdict:
        if message.kind != self.kind:
            return FilterVerdict.deliver(delay=self.base_latency)
        self.captured.append(message)
        deliveries = [(self.base_latency, message)]
        for copy_index in range(1, self.copies + 1):
            deliveries.append(
                (self.base_latency + copy_index * self.replay_delay, message)
            )
        return FilterVerdict.replace(deliveries)
