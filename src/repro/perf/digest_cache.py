"""Placeholder for the removed per-block digest cache.

Nothing in :mod:`repro` uses it.  The frozen benchmark's tracer
(``perfbench/tracer.py``) still imports :class:`DigestCache` and wraps
its ``lookup`` to report ``perf.digest_cache.hit_ratio``, which stays 0.
Delete this module at the next benchmark change, together with that
import, that wrap and that metric.
"""


class DigestCache:
    def lookup(self, key: object) -> None:
        return None
