"""HMAC-DRBG: determinism and sampler correctness."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.errors import ParameterError
from repro.ra.smarm import escape_probability


class TestDeterminism:
    def test_same_seed_same_stream(self):
        assert HmacDrbg(b"s").generate(64) == HmacDrbg(b"s").generate(64)

    def test_different_seed_different_stream(self):
        assert HmacDrbg(b"s1").generate(32) != HmacDrbg(b"s2").generate(32)

    def test_stream_advances(self):
        drbg = HmacDrbg(b"s")
        assert drbg.generate(32) != drbg.generate(32)

    def test_chunked_reads_differ_from_restart(self):
        # generate() finalizes state per call (SP 800-90A update), so
        # two 16-byte reads are not the same as one 32-byte read --
        # but both are reproducible.
        a = HmacDrbg(b"s")
        chunked = a.generate(16) + a.generate(16)
        b = HmacDrbg(b"s")
        chunked2 = b.generate(16) + b.generate(16)
        assert chunked == chunked2

    def test_reseed_changes_stream(self):
        plain = HmacDrbg(b"s")
        reseeded = HmacDrbg(b"s")
        reseeded.reseed(b"extra entropy")
        assert plain.generate(32) != reseeded.generate(32)

    def test_bytes_generated_counter(self):
        drbg = HmacDrbg(b"s")
        drbg.generate(10)
        drbg.generate(22)
        assert drbg.bytes_generated == 32

    def test_negative_length_rejected(self):
        with pytest.raises(ParameterError):
            HmacDrbg(b"s").generate(-1)

    def test_zero_length(self):
        assert HmacDrbg(b"s").generate(0) == b""


class TestSamplers:
    def test_randbelow_range(self):
        drbg = HmacDrbg(b"s")
        for _ in range(200):
            assert 0 <= drbg.randbelow(7) < 7

    def test_randbelow_covers_all_values(self):
        drbg = HmacDrbg(b"s")
        seen = {drbg.randbelow(4) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_randbelow_invalid(self):
        with pytest.raises(ParameterError):
            HmacDrbg(b"s").randbelow(0)

    def test_randrange(self):
        drbg = HmacDrbg(b"s")
        for _ in range(100):
            assert 10 <= drbg.randrange(10, 15) < 15

    def test_randrange_empty_rejected(self):
        with pytest.raises(ParameterError):
            HmacDrbg(b"s").randrange(5, 5)

    def test_randint_bits(self):
        drbg = HmacDrbg(b"s")
        for _ in range(50):
            assert 0 <= drbg.randint_bits(12) < 4096

    def test_randint_bits_invalid(self):
        with pytest.raises(ParameterError):
            HmacDrbg(b"s").randint_bits(0)

    def test_uniform_in_unit_interval(self):
        drbg = HmacDrbg(b"s")
        values = [drbg.uniform() for _ in range(300)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.3 < sum(values) / len(values) < 0.7  # sanity, not rigor

    def test_choice(self):
        drbg = HmacDrbg(b"s")
        items = ["a", "b", "c"]
        assert drbg.choice(items) in items

    def test_choice_empty_rejected(self):
        with pytest.raises(ParameterError):
            HmacDrbg(b"s").choice([])

    def test_exponential_positive(self):
        drbg = HmacDrbg(b"s")
        values = [drbg.exponential(2.0) for _ in range(200)]
        assert all(v >= 0 for v in values)
        assert 1.0 < sum(values) / len(values) < 3.5

    def test_exponential_invalid_mean(self):
        with pytest.raises(ParameterError):
            HmacDrbg(b"s").exponential(0.0)


class TestPermutations:
    def test_permutation_is_valid(self):
        perm = HmacDrbg(b"s").permutation(20)
        assert sorted(perm) == list(range(20))

    def test_permutation_deterministic(self):
        assert HmacDrbg(b"s").permutation(16) == HmacDrbg(b"s").permutation(16)

    def test_different_seeds_differ(self):
        # With 16! possibilities a collision would be a bug.
        assert HmacDrbg(b"a").permutation(16) != HmacDrbg(b"b").permutation(16)

    def test_shuffle_in_place(self):
        items = list(range(10))
        result = HmacDrbg(b"s").shuffle(items)
        assert result is items
        assert sorted(items) == list(range(10))

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=64), st.binary(max_size=16))
    def test_permutation_property(self, n, seed):
        perm = HmacDrbg(seed).permutation(n)
        assert sorted(perm) == list(range(n))

    def test_permutations_not_biased_at_zero(self):
        """First element of the permutation covers all positions."""
        seen = set()
        for i in range(120):
            seen.add(HmacDrbg(b"seed%d" % i).permutation(8)[0])
        assert seen == set(range(8))


class TestStreamGolden:
    """Pins the long-run output stream byte for byte, so a faster
    keying path can never change a SMARM permutation or a nonce."""

    STREAM_SHA256 = (
        "49d4e13e0904af73ca4a9ed39b31c5e6bff5cecff24717202d79a2d34a0ac7d0"
    )

    def test_long_stream_golden(self):
        # generate(i % 70) covers 0 bytes, under one digest, exactly one
        # digest and several blocks; reseeds (b"" included) interleave
        stream = hashlib.sha256()
        for algorithm in ("sha256", "sha512", "blake2s", "blake2b"):
            drbg = HmacDrbg(b"drbg-golden", algorithm)
            for i in range(300):
                stream.update(drbg.generate(i % 70))
                if i % 7 == 3:
                    drbg.reseed(b"x" * (i % 5))
            stream.update(bytes(drbg.permutation(64)))
        assert stream.hexdigest() == self.STREAM_SHA256

    def test_escape_probability_golden(self):
        estimate = escape_probability(64, trials=512, seed=b"smarm-golden")
        assert Fraction(estimate) == Fraction(178, 512)
