"""Hash registry: metadata and known-answer checks."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.crypto.hashes import (
    HASH_ALGORITHMS,
    digest,
    get_algorithm,
)
from repro.errors import ParameterError


def digest_chain(name: str, chunks) -> bytes:
    """Digest of the concatenation of ``chunks`` without joining them."""
    h = get_algorithm(name).new()
    for chunk in chunks:
        h.update(chunk)
    return h.digest()


class TestRegistry:
    def test_the_four_figure2_hashes_present(self):
        assert set(HASH_ALGORITHMS) == {
            "sha256", "sha512", "blake2b", "blake2s",
        }

    def test_digest_sizes(self):
        assert HASH_ALGORITHMS["sha256"].digest_size == 32
        assert HASH_ALGORITHMS["sha512"].digest_size == 64
        assert HASH_ALGORITHMS["blake2b"].digest_size == 64
        assert HASH_ALGORITHMS["blake2s"].digest_size == 32

    def test_block_sizes_for_hmac(self):
        assert HASH_ALGORITHMS["sha256"].block_size == 64
        assert HASH_ALGORITHMS["sha512"].block_size == 128

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ParameterError):
            get_algorithm("md5")


class TestKnownAnswers:
    def test_sha256_empty(self):
        assert digest("sha256", b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855"
        )

    def test_sha256_abc(self):
        assert digest("sha256", b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad"
        )

    def test_sha512_abc_prefix(self):
        assert digest("sha512", b"abc").hex().startswith("ddaf35a19361")

    @pytest.mark.parametrize("name", sorted(HASH_ALGORITHMS))
    def test_matches_hashlib(self, name):
        data = b"attestation report payload" * 7
        assert digest(name, data) == hashlib.new(name, data).digest()

    def test_streaming_equals_one_shot(self):
        h = get_algorithm("blake2s").new()
        h.update(b"part one")
        h.update(b"part two")
        assert h.digest() == digest("blake2s", b"part onepart two")

    def test_digest_chain(self):
        chunks = [b"a", b"bc", b"def"]
        assert digest_chain("sha256", chunks) == digest("sha256", b"abcdef")

    @given(st.binary(max_size=256), st.binary(max_size=256))
    def test_chain_concatenation_property(self, left, right):
        assert digest_chain("sha256", [left, right]) == digest(
            "sha256", left + right
        )
