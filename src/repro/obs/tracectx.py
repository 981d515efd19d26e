"""Causal trace context for attestation exchanges.

One attestation exchange -- challenge out, measurement on the prover,
report back, verdict on the verifier -- crosses several processes and
at least two network hops.  The spans each layer records are real but
disconnected: nothing ties the prover's ``ra.measurement`` interval to
the verifier's ``ra.round_trip`` that caused it.  A
:class:`TraceContext` is the thread that ties them: the initiator mints
one per exchange, every message carries it *out-of-band* (a field on
:class:`repro.sim.network.Message`, never part of the MAC'd protocol
payload -- golden protocol bytes stay byte-identical), and every span
recorded on behalf of the exchange stamps ``trace_id`` into its args so
exporters and the fleet reducer can reassemble the causal timeline.

Trace ids are *deterministic*: they are content hashes of the minting
site's stable coordinates (mechanism, device, nonce/counter), not
random draws, so two runs of the same seeded scenario produce identical
ids and the golden causal-timeline file is diffable byte-for-byte.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional

__all__ = ["TraceContext", "mint_trace_id"]


def mint_trace_id(*parts: Any) -> str:
    """Deterministic 16-hex-digit trace id from stable coordinates.

    ``parts`` should uniquely identify the exchange within one run
    (e.g. ``("ondemand", device_name, nonce_hex)``).  Bytes parts are
    hex-encoded first so the join is unambiguous.
    """
    tokens = []
    for part in parts:
        if isinstance(part, (bytes, bytearray)):
            tokens.append(bytes(part).hex())
        else:
            tokens.append(str(part))
    digest = hashlib.sha256("\x1f".join(tokens).encode("utf-8")).hexdigest()
    return digest[:16]


class TraceContext:
    """Identity of one causal exchange, carried alongside messages.

    ``trace_id`` names the exchange; ``parent_span_id`` (optional)
    points at the span that caused the current hop, letting exporters
    draw arrows; ``baggage`` is a small immutable mapping of
    exchange-scoped annotations (mechanism name, attempt counter).
    Instances are immutable -- derive hop-local children with
    :meth:`child` instead of mutating.
    """

    __slots__ = ("trace_id", "parent_span_id", "baggage")

    def __init__(
        self,
        trace_id: str,
        parent_span_id: Optional[int] = None,
        baggage: Optional[Dict[str, Any]] = None,
    ) -> None:
        object.__setattr__(self, "trace_id", trace_id)
        object.__setattr__(self, "parent_span_id", parent_span_id)
        object.__setattr__(
            self, "baggage",
            tuple(sorted(baggage.items())) if baggage else (),
        )

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("TraceContext is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def mint(cls, *parts: Any, **baggage: Any) -> "TraceContext":
        """Mint a fresh context from stable exchange coordinates."""
        return cls(mint_trace_id(*parts), baggage=baggage or None)

    def child(self, parent_span_id: Optional[int] = None,
              **extra: Any) -> "TraceContext":
        """Same trace, new causal parent and/or extra baggage."""
        merged = dict(self.baggage)
        merged.update(extra)
        return TraceContext(
            self.trace_id,
            parent_span_id=(
                parent_span_id if parent_span_id is not None
                else self.parent_span_id
            ),
            baggage=merged or None,
        )

    # -- accessors ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"trace_id": self.trace_id}
        if self.parent_span_id is not None:
            out["parent_span_id"] = self.parent_span_id
        if self.baggage:
            out["baggage"] = dict(self.baggage)
        return out

    # -- dunder ---------------------------------------------------------

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, TraceContext):
            return NotImplemented
        return (
            self.trace_id == other.trace_id
            and self.parent_span_id == other.parent_span_id
            and self.baggage == other.baggage
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.parent_span_id, self.baggage))

    def __repr__(self) -> str:
        return f"TraceContext({self.trace_id!r})"
