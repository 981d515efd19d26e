"""Cryptographic substrate.

Everything Figure 2 of the paper measures is implemented functionally:

* :mod:`repro.crypto.hashes` -- SHA-256, SHA-512, BLAKE2b, BLAKE2s
  behind one registry;
* :mod:`repro.crypto.hmac` -- HMAC (RFC 2104) from scratch;
* :mod:`repro.crypto.drbg` -- deterministic HMAC-DRBG, the package's
  seeded randomness source (SMARM permutations, nonces, key material);
* :mod:`repro.crypto.modmath` -- modular arithmetic and primality;
* :mod:`repro.crypto.rsa` -- RSA key generation, PKCS#1 v1.5-style
  signatures with CRT acceleration;
* :mod:`repro.crypto.ecdsa` -- short-Weierstrass ECDSA over
  secp160r1 / secp224r1 / secp256r1 with deterministic nonces;
* :mod:`repro.crypto.timing` -- the calibrated ODROID-XU4 cost model
  that turns byte counts into simulated seconds (Figure 2's curves).
"""

from repro import export_lazily

__all__ = export_lazily(globals(), {
    "repro.crypto.hashes": ("HASH_ALGORITHMS", "digest", "hash_new"),
    "repro.crypto.hmac": ("Hmac", "hmac_digest"),
    "repro.crypto.drbg": ("HmacDrbg",),
    "repro.crypto.rsa": (
        "RsaKeyPair", "rsa_generate", "rsa_sign", "rsa_verify",
    ),
    "repro.crypto.ecdsa": (
        "CURVES", "EcdsaKeyPair", "ecdsa_generate", "ecdsa_sign",
        "ecdsa_verify",
    ),
    "repro.crypto.timing": ("OdroidXU4Model", "TimingModel"),
})
