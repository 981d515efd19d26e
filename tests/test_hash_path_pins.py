"""History pins for the measurement hash path.

``TestServiceLedgerIdentity`` compares batched against serial
verification inside one revision, so a change that moves both the
prover-side digest and the verifier-side recomputation the same way
passes it.  These values were captured before the reference traversal
was hashed as one buffer and must never move:

* a reduced ``storm1k`` run per record algorithm -- the sha256 of its
  verdict ledger (which carries no digests, so it is the same for every
  algorithm) and of every record digest the provers emitted;
* :func:`~repro.ra.measurement.expected_digest` over a fixed 12-block
  image: sequential and shuffled order, a normalized block set, and
  contiguous and scattered region subsets.
"""

import hashlib

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.ra.measurement import derive_order_seed, expected_digest
from repro.vserver import ServiceConfig, build_service_scenario

STORM = "preset=storm1k;provers=64;blocks=32;compromised=0.25"

LEDGER_SHA256 = (
    "b2860d90b3401828b6822a656947c3cb15e0ffc339be37da604cfbd58ca110d7"
)

#: algorithm -> sha256 over every prover's history record digests
RECORD_DIGESTS_SHA256 = {
    "sha256": (
        "865a23e2de192e5ac3e0bec164cf950616cc14e5667305928fc9795f5ed88434"
    ),
    "sha512": (
        "4dff9b0259293f710c68dd053e36e55dd3c2bdff06f39db967657fa2c764d262"
    ),
    "blake2b": (
        "d85b3c1ab7bf54b538d4ec6e9279ac1eed6f816904c53dc941da119c616afae0"
    ),
}


class TestReducedStormPins:
    @pytest.mark.parametrize("algorithm", sorted(RECORD_DIGESTS_SHA256))
    def test_ledger_and_record_digests(self, algorithm):
        scenario = build_service_scenario(
            ServiceConfig.parse(f"{STORM};algorithm={algorithm}")
        )
        scenario.run()
        assert scenario.server.unaccounted == 0
        lines = scenario.ledger_lines()
        assert len(lines) == 256
        assert sum('"verdict":"compromised"' in line for line in lines) == 64
        ledger = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert ledger == LEDGER_SHA256
        digests = b"".join(
            record.digest
            for prover in scenario.provers
            for record in prover.history
        )
        assert (
            hashlib.sha256(digests).hexdigest()
            == RECORD_DIGESTS_SHA256[algorithm]
        )


KEY = b"pin-key" * 4
NONCE = b"pin-nonce"
COUNTER = 3
ALL = list(range(12))

#: (order, measured blocks, normalized blocks, sha256 digest, blake2s)
DIGEST_PINS = [
    ("sequential", ALL, None,
     "6fa1b6c677acc3810213b26551f197f1db35cff695e5bf3715b234a40979c885",
     "db7d19447781fab8054a3484cbbf09a2e9cdfb6671b8ccf878219b90bbf50593"),
    ("shuffled", ALL, None,
     "b235a73bf5dfe253c8d294dfd278f0618a6bcc0cfcf6378aa390939d0676f61e",
     "1585a8714edff517443311874c56175ec1d27dd00d516bc22d18582a5ae029c4"),
    ("sequential", ALL, frozenset({2, 3, 9}),
     "01ba7f438d061991f212ddd5ffffb9571f51f7fd0c29d37e10644534dc3a14f2",
     "9c64cbd5d4fe5a82d6963873a7438a9d6507459b188577959fb314701e73b8ce"),
    ("shuffled", ALL, frozenset({2, 3, 9}),
     "de1e9a3495383240f73fe91cb2fd262b8271a82196cf5b29a9856213a7e832fe",
     "b3922dadf2eb91be32f5e9201ae0b23c92c2582a659569443dcdf894f67a047a"),
    ("sequential", [4, 5, 6, 7], None,
     "49f0c455f47655283118005c372f14c6392dda5754724edb46951105e53a0e9d",
     "b7d6821ff4509dda757b03a8512a7f22a21a11d2e5c4831befa21414e7085adc"),
    ("shuffled", [4, 5, 6, 7], frozenset({5}),
     "206e6e96dc1dec6c963bb67baac168437ebb863ac2e17e2d00e93cc45c73b4a9",
     "9f21f6e780d91ed9b81c68fbaaeb7adf28e99f9308cc66f042305755de6b43d4"),
    ("sequential", [10, 1, 6], frozenset({1, 2}),
     "acbdd298da208a0f716b6486c10c690464429dc8f6a1b3f42d7fcb62245d4961",
     "397462a09e9561189471a495876a9698993f6859eddfdd85bdf20ee3bd2b8fb4"),
]


class TestExpectedDigestPins:
    @pytest.mark.parametrize(
        "order,blocks,normalized,sha256_hex,blake2s_hex", DIGEST_PINS
    )
    def test_pinned_digest(
        self, order, blocks, normalized, sha256_hex, blake2s_hex
    ):
        drbg = HmacDrbg(b"pin-image")
        image = tuple(drbg.generate(48) for _ in range(12))
        seed = (
            derive_order_seed(KEY, NONCE, COUNTER)
            if order == "shuffled" else b""
        )
        for algorithm, pinned in (
            ("sha256", sha256_hex), ("blake2s", blake2s_hex)
        ):
            digest = expected_digest(
                KEY, image, algorithm, NONCE, COUNTER, blocks, order, seed,
                normalized_blocks=normalized,
            )
            assert digest.hex() == pinned, (algorithm, order, blocks)
