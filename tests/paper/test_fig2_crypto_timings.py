"""FIG2 -- hash and signature timings (Figure 2).

The ten Figure 2 curves from the calibrated ODROID-XU4 cost model,
with the paper's anchor numbers and the hash-vs-signature crossover
asserted.  ``TestFunctionalCrypto`` signs with the from-scratch RSA at
two of Figure 2's key sizes and checks the signature lengths.  No test
here reads host time, so none checks how the host timings order.
"""

from repro.crypto.rsa import rsa_generate, rsa_sign
from repro.experiments import fig2_report
from repro.units import GiB, MiB

from tests.paper.conftest import banner


def test_fig2_model_series():
    result = fig2_report(points_per_decade=1)
    print(banner("Figure 2: MP timings on the ODROID-XU4 model"))
    print(result.render())

    assert all(anchor.holds for anchor in result.anchors)
    # The crossover claim: above ~1 MB, most signatures are noise.
    sha_crossovers = [
        size
        for (hash_name, signature), size in result.crossovers.items()
        if hash_name == "sha256"
    ]
    assert sum(1 for size in sha_crossovers if size < 4 * MiB) >= 4
    # 2 GiB hashing in the 10-35 s band for every hash ("nearly 14 sec").
    for name in ("sha256", "sha512", "blake2b", "blake2s"):
        final = dict(result.series[name])[2 * GiB]
        assert 10.0 < final < 35.0


class TestFunctionalCrypto:
    """The from-scratch RSA at Figure 2's 1024- and 2048-bit sizes."""

    def test_rsa1024_sign(self):
        key = rsa_generate(1024, seed=b"bench-1024")
        signature = rsa_sign(key.private, b"report digest")
        assert len(signature) == 128

    def test_rsa2048_sign(self):
        key = rsa_generate(2048, seed=b"bench-2048")
        signature = rsa_sign(key.private, b"report digest")
        assert len(signature) == 256
