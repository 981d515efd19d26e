"""Number theory: egcd, inverses, primality, CRT."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.crypto.modmath import (
    bit_length_bytes,
    bytes_to_int,
    egcd,
    generate_prime,
    int_to_bytes,
    is_probable_prime,
    modinv,
)
from repro.errors import ParameterError

def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve ``x = r1 (mod m1), x = r2 (mod m2)`` for coprime moduli."""
    g, p, _ = egcd(m1, m2)
    if g != 1:
        raise ParameterError("CRT moduli must be coprime")
    diff = (r2 - r1) % m2
    return (r1 + m1 * ((diff * p) % m2)) % (m1 * m2)


CARMICHAEL_NUMBERS = [561, 1105, 1729, 2465, 2821, 6601, 8911]
KNOWN_PRIMES = [2, 3, 5, 101, 7919, 104729, (1 << 61) - 1]
KNOWN_COMPOSITES = [1, 4, 100, 7917, 104730, (1 << 61) - 3]


class TestEgcd:
    def test_basic(self):
        g, x, y = egcd(240, 46)
        assert g == 2
        assert 240 * x + 46 * y == 2

    @given(
        st.integers(min_value=1, max_value=10**9),
        st.integers(min_value=1, max_value=10**9),
    )
    def test_bezout_identity(self, a, b):
        g, x, y = egcd(a, b)
        assert a * x + b * y == g
        assert a % g == 0 and b % g == 0


class TestModInv:
    def test_basic(self):
        assert modinv(3, 11) == 4

    def test_non_coprime_rejected(self):
        with pytest.raises(ParameterError):
            modinv(6, 9)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_inverse_property_mod_prime(self, a):
        p = 1_000_003
        if a % p == 0:
            return
        inv = modinv(a, p)
        assert (a * inv) % p == 1


class TestPrimality:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_known_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("n", KNOWN_COMPOSITES)
    def test_known_composites(self, n):
        assert not is_probable_prime(n)

    @pytest.mark.parametrize("n", CARMICHAEL_NUMBERS)
    def test_carmichael_numbers_rejected(self, n):
        """Carmichael numbers fool Fermat but not Miller-Rabin."""
        assert not is_probable_prime(n)

    def test_negative_and_small(self):
        assert not is_probable_prime(-7)
        assert not is_probable_prime(0)
        assert not is_probable_prime(1)

    def test_large_prime(self):
        # 2^127 - 1 is a Mersenne prime, above the deterministic bound.
        assert is_probable_prime((1 << 127) - 1)

    def test_large_composite(self):
        assert not is_probable_prime(((1 << 127) - 1) * ((1 << 89) - 1))

    @given(st.integers(min_value=2, max_value=50_000))
    @settings(max_examples=60)
    def test_agrees_with_trial_division(self, n):
        def trial(n):
            if n < 2:
                return False
            d = 2
            while d * d <= n:
                if n % d == 0:
                    return False
                d += 1
            return True

        assert is_probable_prime(n) == trial(n)


class TestGeneratePrime:
    def test_bit_length_exact(self):
        drbg = HmacDrbg(b"primes")
        for bits in (16, 32, 64):
            p = generate_prime(bits, drbg)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_deterministic_from_seed(self):
        a = generate_prime(32, HmacDrbg(b"x"))
        b = generate_prime(32, HmacDrbg(b"x"))
        assert a == b

    def test_too_small_rejected(self):
        with pytest.raises(ParameterError):
            generate_prime(4, HmacDrbg(b"x"))


class TestCrt:
    def test_basic(self):
        x = crt_pair(2, 3, 3, 5)
        assert x % 3 == 2 and x % 5 == 3

    def test_non_coprime_rejected(self):
        with pytest.raises(ParameterError):
            crt_pair(1, 6, 2, 9)

    @given(
        st.integers(min_value=0, max_value=10**6),
    )
    def test_roundtrip(self, x):
        m1, m2 = 10**6 + 3, 10**6 + 33  # coprime (both prime-ish picks)
        solved = crt_pair(x % m1, m1, x % m2, m2)
        assert solved % m1 == x % m1
        assert solved % m2 == x % m2


class TestEncoding:
    def test_int_to_bytes_minimal(self):
        assert int_to_bytes(0) == b"\x00"
        assert int_to_bytes(255) == b"\xff"
        assert int_to_bytes(256) == b"\x01\x00"

    def test_int_to_bytes_fixed_length(self):
        assert int_to_bytes(1, 4) == b"\x00\x00\x00\x01"

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            int_to_bytes(-1)

    @given(st.integers(min_value=0, max_value=1 << 128))
    def test_roundtrip(self, value):
        assert bytes_to_int(int_to_bytes(value)) == value

    def test_bit_length_bytes(self):
        assert bit_length_bytes(1) == 1
        assert bit_length_bytes(8) == 1
        assert bit_length_bytes(9) == 2
        assert bit_length_bytes(1024) == 128
