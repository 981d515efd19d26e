"""Modular arithmetic and primality, the number theory under RSA/ECDSA.

Pure-Python implementations of the classical toolbox: extended
Euclid, modular inverse, Miller-Rabin (deterministic for 64-bit
inputs, seeded-random witnesses above), prime generation from a DRBG,
and the Chinese Remainder Theorem used to accelerate RSA signing.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.crypto.drbg import HmacDrbg
from repro.errors import ParameterError

# Deterministic Miller-Rabin witnesses: these prove primality for all
# n < 3,317,044,064,679,887,385,961,981 (Sorenson & Webster 2015).
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclid: returns ``(g, x, y)`` with ``a*x + b*y == g``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_x, x = x, old_x - quotient * x
        old_y, y = y, old_y - quotient * y
    return old_r, old_x, old_y


def modinv(a: int, modulus: int) -> int:
    """Inverse of ``a`` modulo ``modulus``; raises if not coprime."""
    g, x, _ = egcd(a % modulus, modulus)
    if g != 1:
        # the operand may be secret (ecdsa_sign inverts the nonce):
        # never interpolate it into the exception text
        raise ParameterError(f"value has no inverse modulo {modulus}")
    return x % modulus


def _miller_rabin_round(n: int, d: int, r: int, witness: int) -> bool:
    """One Miller-Rabin round; True means 'probably prime so far'."""
    x = pow(witness, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rounds: int = 40,
                      drbg: Optional[HmacDrbg] = None) -> bool:
    """Miller-Rabin primality test.

    Deterministic (and exact) below the Sorenson-Webster bound; above
    it, uses ``rounds`` random witnesses drawn from ``drbg`` (or a
    fixed-seed DRBG, keeping the test reproducible).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < _DETERMINISTIC_BOUND:
        witnesses: Sequence[int] = _DETERMINISTIC_WITNESSES
    else:
        rng = drbg if drbg is not None else HmacDrbg(b"miller-rabin")
        witnesses = [rng.randrange(2, n - 1) for _ in range(rounds)]
    return all(
        _miller_rabin_round(n, d, r, w % n or 2) for w in witnesses
    )


def generate_prime(bits: int, drbg: HmacDrbg) -> int:
    """A random prime of exactly ``bits`` bits from the DRBG stream."""
    if bits < 8:
        raise ParameterError("refusing to generate primes under 8 bits")
    while True:
        candidate = drbg.randint_bits(bits)
        candidate |= (1 << (bits - 1)) | 1  # full length, odd
        if is_probable_prime(candidate, drbg=drbg):
            return candidate


def int_to_bytes(value: int, length: Optional[int] = None) -> bytes:
    """Big-endian encoding, minimal length unless ``length`` is given."""
    if value < 0:
        raise ParameterError("cannot encode negative integer")
    if length is None:
        length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    return int.from_bytes(data, "big")


def bit_length_bytes(bits: int) -> int:
    return (bits + 7) // 8
