"""Signed attestation reports: the Section 2.4 non-repudiation option,
end to end."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.ra.report import Verdict
from repro.ra.signing import (
    PublicIdentity,
    make_signing_identity,
    sign_data,
    verify_data,
)
from repro.ra.smart import SmartAttestation

from tests.conftest import make_stack

SCHEMES = ["rsa1024", "ecdsa160", "ecdsa256"]


class TestSigningPrimitives:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_roundtrip(self, scheme):
        identity = make_signing_identity(scheme, seed=b"t" + scheme.encode())
        signature = sign_data(identity, b"report bytes")
        assert verify_data(identity.public(), b"report bytes", signature)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_tamper_rejected(self, scheme):
        identity = make_signing_identity(scheme, seed=b"t" + scheme.encode())
        signature = sign_data(identity, b"report bytes")
        assert not verify_data(
            identity.public(), b"other bytes", signature
        )

    def test_wrong_key_rejected(self):
        signer = make_signing_identity("ecdsa256", seed=b"a")
        other = make_signing_identity("ecdsa256", seed=b"b")
        signature = sign_data(signer, b"m")
        assert not verify_data(other.public(), b"m", signature)

    def test_truncated_ecdsa_signature_rejected(self):
        identity = make_signing_identity("ecdsa224", seed=b"t")
        signature = sign_data(identity, b"m")
        assert not verify_data(identity.public(), b"m", signature[:-1])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            make_signing_identity("dilithium", seed=b"t")

    def test_public_identity_has_no_private_material(self):
        identity = make_signing_identity("ecdsa160", seed=b"t")
        public = identity.public()
        assert isinstance(public, PublicIdentity)
        assert not hasattr(public.material, "d")
        # ECDSA public material is (curve name, point).
        curve_name, point = public.material
        assert curve_name == "secp160r1"
        assert isinstance(point, tuple)


class TestSignedProtocol:
    def run_signed(self, scheme="ecdsa256", forge=False):
        stack = make_stack()
        service = SmartAttestation(stack.device, signature=scheme)
        service.install()
        stack.verifier.enroll(
            stack.device.name, signing=service.signer.public()
        )
        if forge:
            # A MITM that re-signs with its own key: the MAC would
            # still pass (it only needs the symmetric key the real
            # device holds), but the signature check must fail.
            impostor = make_signing_identity(scheme, seed=b"impostor")

            def reseal(message):
                if message.kind != "att_report":
                    return 0.002
                report = message.payload
                forged = report.with_signature(
                    sign_data(impostor, report.signing_input()), scheme
                )
                return [(0.002, dataclasses.replace(
                    message, payload=forged
                ))]

            stack.channel.add_filter(reseal)
        exchange = stack.driver.request(stack.device.name)
        stack.sim.run(until=60)
        return exchange, service

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_signed_report_verifies(self, scheme):
        exchange, service = self.run_signed(scheme)
        assert exchange.result.verdict is Verdict.HEALTHY
        assert exchange.report.scheme == scheme
        assert exchange.report.signature

    def test_forged_signature_rejected(self):
        exchange, _ = self.run_signed(forge=True)
        assert exchange.result.verdict is Verdict.INVALID
        assert "signature" in exchange.result.detail

    def test_signature_without_registered_key_rejected(self):
        stack = make_stack()
        service = SmartAttestation(stack.device, signature="ecdsa160")
        service.install()
        # Verifier never learns the public key.
        exchange = stack.driver.request(stack.device.name)
        stack.sim.run(until=60)
        assert exchange.result.verdict is Verdict.INVALID

    def test_signing_time_charged_to_prover(self):
        """The reply is delayed by the scheme's Figure 2 signing cost."""
        plain_stack = make_stack()
        SmartAttestation(plain_stack.device).install()
        plain = plain_stack.driver.request(plain_stack.device.name)
        plain_stack.sim.run(until=60)

        signed_stack = make_stack()
        service = SmartAttestation(signed_stack.device,
                                   signature="rsa4096")
        service.install()
        signed_stack.verifier.enroll(
            signed_stack.device.name, signing=service.signer.public()
        )
        signed = signed_stack.driver.request(signed_stack.device.name)
        signed_stack.sim.run(until=60)

        sign_cost = signed_stack.device.timing.sign_time("rsa4096")
        extra = signed.round_trip - plain.round_trip
        assert extra == pytest.approx(sign_cost, rel=0.05)

    def test_mac_only_reports_unaffected(self):
        stack = make_stack()
        SmartAttestation(stack.device).install()
        exchange = stack.driver.request(stack.device.name)
        stack.sim.run(until=60)
        assert exchange.report.scheme == ""
        assert exchange.result.verdict is Verdict.HEALTHY
