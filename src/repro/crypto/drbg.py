"""Deterministic random bit generator (HMAC-DRBG, SP 800-90A profile).

Reproducibility is a design requirement: SMARM's secret measurement
order, SeED's pseudorandom trigger schedule, nonce generation and key
generation must all be replayable from a seed -- both so experiments
are deterministic and because SMARM/SeED *derive* their secrets from
keyed PRFs in exactly this way (the verifier must be able to recompute
the prover's permutation / schedule from the shared key).

This is the SP 800-90A HMAC-DRBG update/generate core without the
reseed-counter ceremony (no prediction-resistance requests in a
simulation).

The generator holds the two keyed hash states of its current key
``K`` (:func:`~repro.crypto.hmac.keyed_states`) and re-keys only when
:meth:`HmacDrbg._update` sets a new ``K``; every PRF call under that
key copies the states instead of keying an HMAC.  One-byte draws --
:meth:`HmacDrbg.randbelow` with ``upper <= 255``, every draw of a
SMARM game up to 255 blocks -- run ``generate(1)``, ``_update()`` and the rejection
loop in one frame on local copies of those states.  The output stream
is byte-identical to the plain SP 800-90A loop either way.
"""

from __future__ import annotations

from typing import List, TypeVar

from repro.crypto.hashes import get_algorithm
from repro.crypto.hmac import keyed_states
from repro.errors import ParameterError

T = TypeVar("T")


class HmacDrbg:
    """HMAC-DRBG over a registered hash algorithm.

    >>> drbg = HmacDrbg(b"seed material")
    >>> a = drbg.generate(16)
    >>> HmacDrbg(b"seed material").generate(16) == a
    True
    """

    def __init__(self, seed: bytes, algorithm: str = "sha256") -> None:
        self.algorithm = algorithm
        self._hash = get_algorithm(algorithm)
        self._rekey(b"\x00" * self._hash.digest_size)
        self._value = b"\x01" * self._hash.digest_size
        self._update(seed)
        self.bytes_generated = 0

    # -- core ------------------------------------------------------------

    def _rekey(self, key: bytes) -> None:
        """Set ``K``: the keyed inner and outer states of HMAC(K, .)."""
        self._inner, self._outer = keyed_states(key, self._hash)

    def _hmac(self, *chunks: bytes) -> bytes:
        """HMAC(K, concatenated ``chunks``) under the current key."""
        inner = self._inner.copy()
        inner.update(b"".join(chunks))
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def _update(self, provided: bytes = b"") -> None:
        self._rekey(self._hmac(self._value, b"\x00", provided))
        self._value = self._hmac(self._value)
        if provided:
            self._rekey(self._hmac(self._value, b"\x01", provided))
            self._value = self._hmac(self._value)

    def reseed(self, entropy: bytes) -> None:
        """Mix new seed material into the state."""
        self._update(entropy)

    def generate(self, num_bytes: int) -> bytes:
        """The next ``num_bytes`` of the deterministic stream."""
        if num_bytes < 0:
            raise ParameterError("num_bytes must be non-negative")
        output = bytearray()
        while len(output) < num_bytes:
            self._value = self._hmac(self._value)
            output.extend(self._value)
        self._update()
        self.bytes_generated += num_bytes
        return bytes(output[:num_bytes])

    # -- convenience samplers -----------------------------------------------

    def randint_bits(self, bits: int) -> int:
        """A uniform integer in ``[0, 2**bits)``."""
        if bits <= 0:
            raise ParameterError("bits must be positive")
        num_bytes = (bits + 7) // 8
        value = int.from_bytes(self.generate(num_bytes), "big")
        return value >> (num_bytes * 8 - bits)

    def randbelow(self, upper: int) -> int:
        """A uniform integer in ``[0, upper)`` via rejection sampling.

        Each attempt draws ``upper.bit_length()`` bits; up to 8 bits
        that is one byte, taken on the fused path below.
        """
        if upper <= 0:
            raise ParameterError("upper must be positive")
        bits = upper.bit_length()
        if bits > 8:
            while True:
                candidate = self.randint_bits(bits)
                if candidate < upper:
                    return candidate
        # One byte per attempt: generate(1) then _update(), fused onto
        # local copies of the keyed states and written back once.
        shift = 8 - bits
        hash_ = self._hash
        inner, outer, value = self._inner, self._outer, self._value
        attempts = 0
        while True:
            attempts += 1
            # generate(1): V = HMAC(K, V), output its first byte
            h = inner.copy()
            h.update(value)
            o = outer.copy()
            o.update(h.digest())
            value = o.digest()
            candidate = value[0] >> shift
            # _update(): K = HMAC(K, V || 0x00), then V = HMAC(K, V)
            h = inner.copy()
            h.update(value + b"\x00")
            o = outer.copy()
            o.update(h.digest())
            inner, outer = keyed_states(o.digest(), hash_)
            h = inner.copy()
            h.update(value)
            o = outer.copy()
            o.update(h.digest())
            value = o.digest()
            if candidate < upper:
                break
        self._inner, self._outer, self._value = inner, outer, value
        self.bytes_generated += attempts
        return candidate

    def randrange(self, lower: int, upper: int) -> int:
        """A uniform integer in ``[lower, upper)``."""
        if lower >= upper:
            raise ParameterError("empty range")
        return lower + self.randbelow(upper - lower)

    def uniform(self) -> float:
        """A float in ``[0, 1)`` with 53 bits of precision."""
        return self.randint_bits(53) / (1 << 53)

    def shuffle(self, items: List[T]) -> List[T]:
        """In-place Fisher-Yates shuffle; returns the list for chaining."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def permutation(self, n: int) -> List[int]:
        """A uniform permutation of ``range(n)`` -- SMARM's secret order."""
        return self.shuffle(list(range(n)))

    def exponential(self, mean: float) -> float:
        """An exponential variate (Poisson-process gaps for SeED triggers)."""
        import math

        if mean <= 0:
            raise ParameterError("mean must be positive")
        u = self.uniform()
        # Guard the log: uniform() may return exactly 0.0.
        return -mean * math.log(1.0 - u)
