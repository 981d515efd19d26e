"""ECDSA over short-Weierstrass prime curves, implemented from scratch.

Figure 2 measures ECDSA-160, ECDSA-224 and ECDSA-256; those map to the
SECG curves secp160r1, secp224r1 and secp256r1 (NIST P-224 / P-256).
This module implements affine point arithmetic, double-and-add scalar
multiplication, and ECDSA signing/verification with *deterministic*
nonces derived RFC 6979-style from the package DRBG -- both for
reproducibility and because nonce reuse is the classic ECDSA foot-gun.

Clarity is preferred over constant-time tricks: the signatures protect
simulated attestation reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashes import digest as hash_digest
from repro.crypto.modmath import bytes_to_int, int_to_bytes, modinv
from repro.errors import ParameterError, SignatureError

Point = Optional[Tuple[int, int]]  # None is the point at infinity


@dataclass(frozen=True)
class Curve:
    """Short-Weierstrass curve ``y^2 = x^3 + a x + b (mod p)``."""

    name: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int  # order of the base point

    @property
    def generator(self) -> Point:
        return (self.gx, self.gy)

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def byte_length(self) -> int:
        return (self.bits + 7) // 8

    # -- point arithmetic -------------------------------------------------

    def is_on_curve(self, point: Point) -> bool:
        if point is None:
            return True
        x, y = point
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0

    def add(self, p1: Point, p2: Point) -> Point:
        """Group law in affine coordinates."""
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        x1, y1 = p1
        x2, y2 = p2
        if x1 == x2:
            if (y1 + y2) % self.p == 0:
                return None  # P + (-P)
            return self.double(p1)
        slope = ((y2 - y1) * modinv(x2 - x1, self.p)) % self.p
        x3 = (slope * slope - x1 - x2) % self.p
        y3 = (slope * (x1 - x3) - y1) % self.p
        return (x3, y3)

    def double(self, point: Point) -> Point:
        if point is None:
            return None
        x, y = point
        if y == 0:
            return None
        slope = ((3 * x * x + self.a) * modinv(2 * y, self.p)) % self.p
        x3 = (slope * slope - 2 * x) % self.p
        y3 = (slope * (x - x3) - y) % self.p
        return (x3, y3)

    def multiply(self, scalar: int, point: Point) -> Point:
        """Left-to-right double-and-add."""
        scalar %= self.n
        result: Point = None
        addend = point
        while scalar:
            if scalar & 1:
                result = self.add(result, addend)
            addend = self.double(addend)
            scalar >>= 1
        return result


def _make_curves() -> Dict[str, Curve]:
    secp160r1 = Curve(
        name="secp160r1",
        p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFF,
        a=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFC,
        b=0x1C97BEFC54BD7A8B65ACF89F81D4D4ADC565FA45,
        gx=0x4A96B5688EF573284664698968C38BB913CBFC82,
        gy=0x23A628553168947D59DCC912042351377AC5FB32,
        n=0x0100000000000000000001F4C8F927AED3CA752257,
    )
    secp224r1 = Curve(
        name="secp224r1",
        p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF000000000000000000000001,
        a=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFFFFFFFFFE,
        b=0xB4050A850C04B3ABF54132565044B0B7D7BFD8BA270B39432355FFB4,
        gx=0xB70E0CBD6BB4BF7F321390B94A03C1D356C21122343280D6115C1D21,
        gy=0xBD376388B5F723FB4C22DFE6CD4375A05A07476444D5819985007E34,
        n=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFF16A2E0B8F03E13DD29455C5C2A3D,
    )
    secp256r1 = Curve(
        name="secp256r1",
        p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
        a=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFC,
        b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
        gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
        gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
        n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
    )
    return {
        "secp160r1": secp160r1,
        "secp224r1": secp224r1,
        "secp256r1": secp256r1,
        # Figure 2's labels, as aliases:
        "ecdsa160": secp160r1,
        "ecdsa224": secp224r1,
        "ecdsa256": secp256r1,
    }


CURVES: Dict[str, Curve] = _make_curves()


def get_curve(name: str) -> Curve:
    try:
        return CURVES[name]
    except KeyError:
        raise ParameterError(
            f"unknown curve {name!r}; known: {sorted(set(CURVES))}"
        ) from None


@dataclass(frozen=True)
class EcdsaKeyPair:
    """Private scalar ``d`` and public point ``Q = d*G``."""

    curve: Curve
    d: int
    q: Tuple[int, int]


def ecdsa_generate(curve_name: str, seed: bytes = b"ecdsa-seed") -> EcdsaKeyPair:
    """Deterministic key generation from ``seed``."""
    curve = get_curve(curve_name)
    drbg = HmacDrbg(seed + curve.name.encode())
    d = drbg.randrange(1, curve.n)
    q = curve.multiply(d, curve.generator)
    assert q is not None
    return EcdsaKeyPair(curve, d, q)


def _truncated_digest(curve: Curve, message: bytes, hash_name: str) -> int:
    """Hash the message and truncate to the curve order's bit length."""
    h = bytes_to_int(hash_digest(hash_name, message))
    # FIPS 186-4 truncates by digest bit-length vs n bit-length:
    digest_bits = len(hash_digest(hash_name, b"")) * 8
    shift = max(0, digest_bits - curve.bits)
    return h >> shift if shift else h


def _deterministic_nonce(key: EcdsaKeyPair, message: bytes,
                         hash_name: str) -> int:
    """RFC 6979-flavoured nonce: HMAC-DRBG seeded with (d, H(m))."""
    seed = (
        int_to_bytes(key.d, key.curve.byte_length)
        + hash_digest(hash_name, message)
    )
    drbg = HmacDrbg(seed, "sha256")
    return drbg.randrange(1, key.curve.n)


def ecdsa_sign(key: EcdsaKeyPair, message: bytes,
               hash_name: str = "sha256") -> Tuple[int, int]:
    """Sign ``message``; returns ``(r, s)``."""
    curve = key.curve
    z = _truncated_digest(curve, message, hash_name)
    k = _deterministic_nonce(key, message, hash_name)
    attempt = 0
    while True:
        point = curve.multiply(k, curve.generator)
        if point is not None:
            r = point[0] % curve.n
            if r != 0:
                s = (modinv(k, curve.n) * (z + r * key.d)) % curve.n
                if s != 0:
                    return (r, s)
        # Astronomically unlikely; re-derive a fresh nonce deterministically.
        attempt += 1
        k = (k + attempt) % curve.n or 1
        if attempt > 8:  # pragma: no cover - defensive
            raise SignatureError("could not produce a valid nonce")


def ecdsa_verify(curve_or_key, q_or_message, *rest,
                 hash_name: str = "sha256") -> bool:
    """Verify an ECDSA signature.

    Two call shapes are accepted::

        ecdsa_verify(keypair, message, (r, s))
        ecdsa_verify(curve, q, message, (r, s))
    """
    if isinstance(curve_or_key, EcdsaKeyPair):
        curve = curve_or_key.curve
        q = curve_or_key.q
        message = q_or_message
        (signature,) = rest
    else:
        curve = curve_or_key
        q = q_or_message
        message, signature = rest
    r, s = signature
    if not (1 <= r < curve.n and 1 <= s < curve.n):
        return False
    if not curve.is_on_curve(q):
        return False
    z = _truncated_digest(curve, message, hash_name)
    w = modinv(s, curve.n)
    u1 = (z * w) % curve.n
    u2 = (r * w) % curve.n
    point = curve.add(
        curve.multiply(u1, curve.generator), curve.multiply(u2, q)
    )
    if point is None:
        return False
    return point[0] % curve.n == r
