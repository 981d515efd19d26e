"""Generation-aware digest cache for the measurement hot loop.

The paper's quantitative core is *simulated* measurement latency
(Figure 2); the Python cost of actually hashing block bytes on every
traversal is pure reproduction overhead.  ERASMUS and SeED self-measure
on a schedule, SMARM re-walks the same blocks shuffled, and fleet
campaigns repeat near-identical runs by the hundreds -- most traversals
re-hash memory that has not changed since the previous round.

:class:`DigestCache` removes that overhead without touching a single
simulated timestamp.  Entries are keyed by::

    (block_index, generation, algorithm, key_fingerprint)

``generation`` is :attr:`repro.sim.memory.Memory.generations` -- a
monotonic per-block counter bumped on every applied write -- so any
mutation (malware infection, relocation, workload writes, re-flash)
makes stale entries unreachable by construction.  ``key_fingerprint``
scopes entries to the device's attestation key, and ``algorithm`` to
the measurement configuration, so caches are never shared across
cryptographic contexts.

A hit returns the block's frozen content bytes and its audit hash
(:func:`repro.ra.report.audit_hash`); the measurement process still
feeds the content into the HMAC stream (nonce/counter prefixes make
the final digest per-measurement) and still charges the calibrated
ODROID hash time in sim-time.  Only the redundant Python-side
``read_block`` copy and SHA-256 audit hash are skipped -- plus, via
coalesced windows (``Simulator.coalesce_steps``), the per-block
event-queue round-trip that dominates wall clock.  Golden-equality
tests pin cache-on runs byte-identical to cache-off runs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError

#: (block_index, generation, algorithm, key_fingerprint)
CacheKey = Tuple[int, int, str, bytes]
#: (frozen block contents, audit hash of those contents)
CacheEntry = Tuple[bytes, bytes]

DEFAULT_CAPACITY = 4096


class DigestCache:
    """Bounded LRU cache of per-block content snapshots + audit hashes.

    One instance serves one device (wired via
    ``Device(digest_cache=...)`` or ``Scenario.build(digest_cache=True)``)
    and is consulted only by :class:`repro.ra.measurement.MeasurementProcess`.
    The default everywhere is *no cache*: the seed code path stays
    byte-for-byte untouched unless a caller opts in.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions",
                 "invalidations", "_entries")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ConfigurationError("cache capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: CacheKey) -> Optional[CacheEntry]:
        """The cached entry for ``key``, refreshed as most-recently-used."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(self, key: CacheKey, content: bytes, audit: bytes) -> None:
        """Insert an entry, evicting the least-recently-used past capacity."""
        entries = self._entries
        entries[key] = (bytes(content), audit)
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self) -> int:
        """Drop every entry (device reset hygiene).  Returns the count.

        Correctness never depends on this -- generation bumps already
        orphan stale keys -- but a brownout is the natural moment to
        free the dead entries instead of waiting for LRU churn.
        """
        dropped = len(self._entries)
        self._entries.clear()
        if dropped:
            self.invalidations += 1
        return dropped

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Counters for telemetry / bench output."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DigestCache {len(self._entries)}/{self.capacity} "
            f"hits={self.hits} misses={self.misses}>"
        )
