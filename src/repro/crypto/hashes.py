"""Hash algorithm registry.

The four hash functions measured in Figure 2 -- SHA-256, SHA-512,
BLAKE2b and BLAKE2s (the BLAKE2 pair "in particular well suited for
embedded systems") -- behind a uniform interface.  The compression
functions come from :mod:`hashlib`; what this module owns is the
*metadata* the rest of the package needs: digest sizes, block sizes
(for HMAC padding) and canonical names (for the timing model).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict

from repro.errors import ParameterError


@dataclass(frozen=True)
class HashAlgorithm:
    """Metadata for one hash function."""

    name: str
    factory: Callable[..., "hashlib._Hash"]
    digest_size: int
    block_size: int

    def new(self, data: bytes = b"") -> "hashlib._Hash":
        return self.factory(data)


HASH_ALGORITHMS: Dict[str, HashAlgorithm] = {
    "sha256": HashAlgorithm("sha256", hashlib.sha256, 32, 64),
    "sha512": HashAlgorithm("sha512", hashlib.sha512, 64, 128),
    "blake2b": HashAlgorithm("blake2b", hashlib.blake2b, 64, 128),
    "blake2s": HashAlgorithm("blake2s", hashlib.blake2s, 32, 64),
}


def get_algorithm(name: str) -> HashAlgorithm:
    """Look up a registered algorithm; raises :class:`ParameterError`."""
    try:
        return HASH_ALGORITHMS[name]
    except KeyError:
        raise ParameterError(
            f"unknown hash algorithm {name!r}; "
            f"known: {sorted(HASH_ALGORITHMS)}"
        ) from None


def digest(name: str, data: bytes) -> bytes:
    """One-shot digest."""
    return get_algorithm(name).new(data).digest()
