"""HMAC from scratch: RFC 4231 vectors and stdlib equivalence."""

import hmac as stdlib_hmac

import pytest
from hypothesis import given, strategies as st

from repro.crypto.hashes import get_algorithm
from repro.crypto.hmac import (
    Hmac,
    constant_time_equal,
    hmac_chain,
    hmac_digest,
)

# RFC 4231 test cases (SHA-256 / SHA-512 expansions).
RFC4231 = [
    # (key, data, sha256 hex, sha512 hex prefix)
    (
        b"\x0b" * 20,
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        "87aa7cdea5ef619d4ff0b4241a1d6cb0",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        "164b7a7bfcf819e2e395fbe73b56e0a3",
    ),
    (
        b"\xaa" * 20,
        b"\xdd" * 50,
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        "fa73b0089d56a284efb0f0756c890be9",
    ),
    (
        # key longer than the block size
        b"\xaa" * 131,
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        "80b24263c7c1a3ebb71493c1dd7be8b4",
    ),
]


class TestRfc4231:
    @pytest.mark.parametrize("key,data,sha256_hex,_", RFC4231)
    def test_sha256_vectors(self, key, data, sha256_hex, _):
        assert hmac_digest(key, data, "sha256").hex() == sha256_hex

    @pytest.mark.parametrize("key,data,_,sha512_prefix", RFC4231)
    def test_sha512_vectors_prefix(self, key, data, _, sha512_prefix):
        assert hmac_digest(key, data, "sha512").hex().startswith(
            sha512_prefix
        )


class TestStdlibEquivalence:
    @pytest.mark.parametrize(
        "algorithm", ["sha256", "sha512", "blake2b", "blake2s"]
    )
    def test_fixed_case(self, algorithm):
        key, data = b"secret-key", b"measured memory contents"
        assert hmac_digest(key, data, algorithm) == stdlib_hmac.new(
            key, data, algorithm
        ).digest()

    @given(st.binary(min_size=0, max_size=200), st.binary(max_size=500))
    def test_random_inputs_match_stdlib(self, key, data):
        assert hmac_digest(key, data, "sha256") == stdlib_hmac.new(
            key, data, "sha256"
        ).digest()


class TestStreaming:
    def test_incremental_equals_one_shot(self):
        mac = Hmac(b"key", "sha256")
        mac.update(b"block0")
        mac.update(b"block1")
        assert mac.digest() == hmac_digest(b"key", b"block0block1")

    def test_digest_is_non_destructive(self):
        mac = Hmac(b"key")
        mac.update(b"data")
        first = mac.digest()
        mac.update(b"more")
        assert mac.digest() != first
        assert mac.digest() == hmac_digest(b"key", b"datamore")

    def test_copy_forks_state(self):
        mac = Hmac(b"key")
        mac.update(b"common")
        fork = mac.copy()
        mac.update(b"left")
        fork.update(b"right")
        assert mac.digest() == hmac_digest(b"key", b"commonleft")
        assert fork.digest() == hmac_digest(b"key", b"commonright")

    def test_hmac_chain(self):
        chunks = [b"a", b"b", b"c"]
        assert hmac_chain(b"k", chunks) == hmac_digest(b"k", b"abc")

    def test_hexdigest(self):
        mac = Hmac(b"k")
        mac.update(b"x")
        assert mac.hexdigest() == mac.digest().hex()

    def test_digest_size(self):
        assert Hmac(b"k", "sha256").digest_size == 32
        assert Hmac(b"k", "sha512").digest_size == 64


ALGORITHMS = ["sha256", "sha512", "blake2b", "blake2s"]


def key_of_length(algorithm, kind):
    """Keys around the padding edge: empty, short, exactly one block,
    and longer than a block (hashed down first)."""
    block = get_algorithm(algorithm).block_size
    length = {"empty": 0, "short": 10, "block": block, "3block": 3 * block}
    return bytes((7 * i + 1) & 0xFF for i in range(length[kind]))


class TestKeyedState:
    """The keyed inner/outer states are built once and reused by
    copy; every use must still be HMAC(key, data)."""

    @pytest.mark.parametrize("kind", ["empty", "short", "block", "3block"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_key_lengths_match_stdlib(self, algorithm, kind):
        key = key_of_length(algorithm, kind)
        data = b"attested memory " * 9
        expected = stdlib_hmac.new(key, data, algorithm).digest()
        mac = Hmac(key, algorithm)
        mac.update(data)
        assert mac.digest() == expected
        assert mac.mac(data) == expected

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_mac_is_one_shot_and_leaves_stream_alone(self, algorithm):
        mac = Hmac(b"secret-key", algorithm)
        mac.update(b"half-")
        assert mac.mac(b"other") == hmac_digest(
            b"secret-key", b"other", algorithm
        )
        mac.update(b"fed")
        assert mac.digest() == hmac_digest(
            b"secret-key", b"half-fed", algorithm
        )

    def test_shared_outer_state_stays_independent(self):
        mac = Hmac(b"key")
        mac.update(b"data")
        first = mac.digest()
        assert mac.digest() == first
        fork = mac.copy()
        fork.update(b"-fork")
        assert mac.digest() == first == hmac_digest(b"key", b"data")
        assert fork.digest() == hmac_digest(b"key", b"data-fork")
        assert fork.mac(b"x") == mac.mac(b"x") == hmac_digest(b"key", b"x")


class TestConstantTimeEqual:
    def test_equal(self):
        assert constant_time_equal(b"abc", b"abc")

    def test_unequal_same_length(self):
        assert not constant_time_equal(b"abc", b"abd")

    def test_unequal_length(self):
        assert not constant_time_equal(b"abc", b"abcd")

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_matches_operator(self, a, b):
        assert constant_time_equal(a, b) == (a == b)


class TestKeyHandling:
    def test_long_key_hashed_down(self):
        long_key = b"\x55" * 300
        assert hmac_digest(long_key, b"m") == stdlib_hmac.new(
            long_key, b"m", "sha256"
        ).digest()

    def test_empty_key(self):
        assert hmac_digest(b"", b"m") == stdlib_hmac.new(
            b"", b"m", "sha256"
        ).digest()
