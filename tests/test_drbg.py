"""HMAC-DRBG: determinism and sampler correctness."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.errors import ParameterError
from repro.ra.smarm import escape_probability


def choice(drbg, items):
    """One uniform element of ``items`` drawn from ``drbg``."""
    if not items:
        raise ParameterError("cannot choose from an empty sequence")
    return items[drbg.randbelow(len(items))]


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
        assert choice(drbg, items) in items

    def test_choice_empty_rejected(self):
        with pytest.raises(ParameterError):
            choice(HmacDrbg(b"s"), [])

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


ALGORITHMS = ("sha256", "sha512", "blake2b", "blake2s")


def generic_randbelow(drbg, upper):
    """The plain rejection loop over ``randint_bits``: the oracle the
    fused one-byte path of ``randbelow`` must match draw for draw."""
    while True:
        candidate = drbg.randint_bits(upper.bit_length())
        if candidate < upper:
            return candidate


OPS = st.one_of(
    st.tuples(st.just("randbelow"), st.integers(1, 300)),
    st.tuples(st.just("generate"), st.integers(0, 70)),
    st.tuples(st.just("reseed"), st.binary(max_size=8)),
    st.tuples(st.just("randint_bits"), st.integers(1, 80)),
    st.tuples(st.just("uniform"), st.none()),
)


def play(drbg, ops, randbelow):
    """Run ``ops``; return the outputs, the byte count and the tail."""
    outputs = []
    for name, arg in ops:
        if name == "randbelow":
            outputs.append(randbelow(drbg, arg))
        elif name == "reseed":
            drbg.reseed(arg)
        elif name == "uniform":
            outputs.append(drbg.uniform())
        else:
            outputs.append(getattr(drbg, name)(arg))
    return outputs, drbg.bytes_generated, drbg.generate(64)


class TestFusedDrawDifferential:
    """``randbelow`` fuses one-byte draws (``upper <= 255``) onto the
    keyed states; every stream must equal the generic loop's."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.binary(max_size=16), ops=st.lists(OPS, max_size=30))
    def test_matches_generic_loop(self, algorithm, seed, ops):
        fused = play(HmacDrbg(seed, algorithm), ops, HmacDrbg.randbelow)
        generic = play(HmacDrbg(seed, algorithm), ops, generic_randbelow)
        assert fused == generic

    @pytest.mark.parametrize("upper", [1, 255, 256, 257])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_width_boundaries(self, algorithm, upper):
        ops = [("randbelow", upper)] * 40 + [("generate", 5)]
        fused = play(HmacDrbg(b"edge", algorithm), ops, HmacDrbg.randbelow)
        generic = play(HmacDrbg(b"edge", algorithm), ops, generic_randbelow)
        assert fused == generic

    def test_upper_one_still_consumes_a_byte_per_attempt(self):
        drbg = HmacDrbg(b"edge")
        assert [drbg.randbelow(1) for _ in range(40)] == [0] * 40
        # top bit 1 is rejected, so about two attempts per draw
        assert 40 < drbg.bytes_generated < 120

    def test_256_takes_the_two_byte_path(self):
        drbg = HmacDrbg(b"edge")
        for _ in range(40):
            before = drbg.bytes_generated
            assert 0 <= drbg.randbelow(256) < 256
            assert (drbg.bytes_generated - before) % 2 == 0
        assert drbg.bytes_generated > 80
