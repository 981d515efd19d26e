"""ECDSA over the three Figure 2 curves."""

import pytest

from repro.crypto.ecdsa import (
    CURVES,
    ecdsa_generate,
    ecdsa_sign,
    ecdsa_verify,
    get_curve,
)
from repro.errors import ParameterError

CURVE_NAMES = ["secp160r1", "secp224r1", "secp256r1"]


@pytest.fixture(scope="module", params=CURVE_NAMES)
def keypair(request):
    return ecdsa_generate(request.param, seed=b"fixture")


class TestCurveParameters:
    @pytest.mark.parametrize("name", CURVE_NAMES)
    def test_generator_on_curve(self, name):
        curve = CURVES[name]
        assert curve.is_on_curve(curve.generator)

    @pytest.mark.parametrize("name", CURVE_NAMES)
    def test_generator_order(self, name):
        curve = CURVES[name]
        assert curve.multiply(curve.n, curve.generator) is None

    @pytest.mark.parametrize("name", CURVE_NAMES)
    def test_order_times_generator_minus_one(self, name):
        curve = CURVES[name]
        almost = curve.multiply(curve.n - 1, curve.generator)
        assert curve.add(almost, curve.generator) is None

    def test_bit_lengths_match_names(self):
        assert CURVES["secp160r1"].bits == 161  # n slightly exceeds 2^160
        assert CURVES["secp224r1"].bits == 224
        assert CURVES["secp256r1"].bits == 256

    def test_figure2_aliases(self):
        assert CURVES["ecdsa160"] is CURVES["secp160r1"]
        assert CURVES["ecdsa256"] is CURVES["secp256r1"]

    def test_unknown_curve_rejected(self):
        with pytest.raises(ParameterError):
            get_curve("secp521r1")


class TestGroupLaw:
    def test_identity(self):
        curve = CURVES["secp256r1"]
        g = curve.generator
        assert curve.add(None, g) == g
        assert curve.add(g, None) == g

    def test_inverse_sums_to_infinity(self):
        curve = CURVES["secp256r1"]
        g = curve.generator
        assert curve.add(g, (g[0], (-g[1]) % curve.p)) is None

    def test_double_equals_add_self(self):
        curve = CURVES["secp224r1"]
        g = curve.generator
        assert curve.double(g) == curve.add(g, g)

    def test_scalar_multiplication_distributes(self):
        curve = CURVES["secp160r1"]
        g = curve.generator
        left = curve.multiply(7, g)
        right = curve.add(curve.multiply(3, g), curve.multiply(4, g))
        assert left == right

    def test_multiply_zero_is_infinity(self):
        curve = CURVES["secp256r1"]
        assert curve.multiply(0, curve.generator) is None

    def test_points_stay_on_curve(self):
        curve = CURVES["secp256r1"]
        point = curve.generator
        for _ in range(10):
            point = curve.add(point, curve.generator)
            assert curve.is_on_curve(point)


class TestSignVerify:
    def test_roundtrip(self, keypair):
        signature = ecdsa_sign(keypair, b"report")
        assert ecdsa_verify(keypair, b"report", signature)

    def test_tampered_message(self, keypair):
        signature = ecdsa_sign(keypair, b"report")
        assert not ecdsa_verify(keypair, b"tampered", signature)

    def test_tampered_signature(self, keypair):
        r, s = ecdsa_sign(keypair, b"report")
        assert not ecdsa_verify(keypair, b"report", (r, s ^ 1))

    def test_wrong_key(self):
        signer = ecdsa_generate("secp256r1", seed=b"signer")
        other = ecdsa_generate("secp256r1", seed=b"other")
        signature = ecdsa_sign(signer, b"m")
        assert not ecdsa_verify(other, b"m", signature)

    def test_deterministic_nonce_stable_signature(self, keypair):
        assert ecdsa_sign(keypair, b"m") == ecdsa_sign(keypair, b"m")

    def test_different_messages_different_nonces(self, keypair):
        r1, _ = ecdsa_sign(keypair, b"m1")
        r2, _ = ecdsa_sign(keypair, b"m2")
        assert r1 != r2  # nonce reuse would leak the key

    def test_explicit_curve_call_shape(self):
        keypair = ecdsa_generate("secp224r1", seed=b"explicit")
        signature = ecdsa_sign(keypair, b"m")
        assert ecdsa_verify(keypair.curve, keypair.q, b"m", signature)

    def test_sha512_digest_truncation(self, keypair):
        signature = ecdsa_sign(keypair, b"m", hash_name="sha512")
        assert ecdsa_verify(keypair, b"m", signature, hash_name="sha512")


class TestVerifyRobustness:
    def test_out_of_range_r(self, keypair):
        _, s = ecdsa_sign(keypair, b"m")
        n = keypair.curve.n
        assert not ecdsa_verify(keypair, b"m", (0, s))
        assert not ecdsa_verify(keypair, b"m", (n, s))

    def test_out_of_range_s(self, keypair):
        r, _ = ecdsa_sign(keypair, b"m")
        n = keypair.curve.n
        assert not ecdsa_verify(keypair, b"m", (r, 0))
        assert not ecdsa_verify(keypair, b"m", (r, n))

    def test_point_off_curve_rejected(self):
        keypair = ecdsa_generate("secp256r1", seed=b"k")
        bogus_q = (keypair.q[0], keypair.q[1] ^ 1)
        signature = ecdsa_sign(keypair, b"m")
        assert not ecdsa_verify(
            keypair.curve, bogus_q, b"m", signature
        )


class TestKeyGeneration:
    def test_deterministic(self):
        a = ecdsa_generate("secp256r1", seed=b"s")
        b = ecdsa_generate("secp256r1", seed=b"s")
        assert a.d == b.d and a.q == b.q

    def test_public_point_valid(self):
        keypair = ecdsa_generate("secp160r1", seed=b"s")
        curve = keypair.curve
        assert curve.is_on_curve(keypair.q)
        assert curve.multiply(keypair.d, curve.generator) == keypair.q

    def test_private_scalar_in_range(self):
        keypair = ecdsa_generate("secp224r1", seed=b"s")
        assert 1 <= keypair.d < keypair.curve.n
