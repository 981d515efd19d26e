"""HMAC, implemented from the RFC 2104 definition.

The paper's measurement function is a keyed integrity-ensuring
function, concretely a hash-based MAC (Section 2.4): the inner hash
processes the attested memory, the outer hash is constant-size (the
paper notes its cost is "negligible compared to the inner one").  We
implement HMAC from scratch over the hash registry rather than using
:mod:`hmac` so the construction itself is part of the reproduction and
is covered by the RFC 4231 test vectors in the test suite; only the
timing-safe comparison, :func:`hmac.compare_digest`, comes from there.

Keying is the expensive part of a short MAC, so it happens once per
key in :func:`keyed_states`: the padded key is XORed with ipad/opad
through two precomputed 256-byte ``bytes.translate`` tables, and the
result is two *keyed hash states*.  :class:`Hmac` feeds the inner one
and only ever ``copy()``-s the outer one when a digest is finalised;
:class:`repro.crypto.drbg.HmacDrbg` holds both for its current ``K``
and copies them for every PRF call under that key.
"""

from __future__ import annotations

import hmac as _stdlib_hmac
from typing import Any, Tuple

from repro.crypto.hashes import HashAlgorithm, get_algorithm

#: ``byte ^ 0x36`` / ``byte ^ 0x5C`` for every byte value, so a padded
#: key becomes ipad/opad with one ``bytes.translate`` call.
_IPAD_TABLE = bytes(x ^ 0x36 for x in range(256))
_OPAD_TABLE = bytes(x ^ 0x5C for x in range(256))


def keyed_states(key: bytes, algorithm: HashAlgorithm) -> Tuple[Any, Any]:
    """The keyed inner and outer hash states of HMAC(``key``, .).

    ``H(K ^ ipad)`` and ``H(K ^ opad)``, the key hashed down when it is
    longer than a block and zero-padded to one.  HMAC(key, data) feeds
    ``data`` to a copy of the inner state and that digest to a copy of
    the outer one, so a caller that only copies the pair can reuse it
    for every MAC under ``key``.
    """
    block_size = algorithm.block_size
    if len(key) > block_size:
        key = algorithm.factory(key).digest()
    key = key.ljust(block_size, b"\x00")
    return (
        algorithm.factory(key.translate(_IPAD_TABLE)),
        algorithm.factory(key.translate(_OPAD_TABLE)),
    )


class Hmac:
    """Streaming HMAC.

    >>> mac = Hmac(b"key", "sha256")
    >>> mac.update(b"message")
    >>> len(mac.digest())
    32
    """

    def __init__(self, key: bytes, algorithm: str = "sha256") -> None:
        self.algorithm: HashAlgorithm = get_algorithm(algorithm)
        # the outer state is only ever copied, never updated, so copies
        # of this MAC share it by reference
        self._inner, self._outer = keyed_states(key, self.algorithm)

    def update(self, data: bytes) -> None:
        """Feed attested bytes to the inner hash."""
        self._inner.update(data)

    def copy(self) -> "Hmac":
        """A snapshot sharing no mutable state with the original."""
        clone = object.__new__(Hmac)
        clone.algorithm = self.algorithm
        clone._outer = self._outer
        clone._inner = self._inner.copy()
        return clone

    def digest(self) -> bytes:
        """Finalize (non-destructively): outer hash over the inner digest."""
        outer = self._outer.copy()
        outer.update(self._inner.digest())
        return outer.digest()

    def hexdigest(self) -> str:
        return self.digest().hex()

    @property
    def digest_size(self) -> int:
        return self.algorithm.digest_size


def hmac_digest(key: bytes, data: bytes, algorithm: str = "sha256") -> bytes:
    """One-shot HMAC."""
    mac = Hmac(key, algorithm)
    mac.update(data)
    return mac.digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe comparison (the verifier compares MACs with this)."""
    return _stdlib_hmac.compare_digest(a, b)
