"""SEC32 -- SMARM escape probabilities (Section 3.2).

The paper: the optimal roving malware escapes one shuffled measurement
with probability ~ e^-1 ~ 0.37, and "after 13 checks that probability
is below 10^-6".  Regenerated three ways: closed form, abstract
Monte-Carlo, and the full device simulation.
"""

import math
from pathlib import Path

import pytest

from repro.analysis.smarm_math import multi_round_escape

from tests.paper.conftest import banner

GOLDEN = Path(__file__).parent.parent / "golden" / "smarm_cli.txt"


def test_sec32_smarm_escape(sec32):
    """``sec32`` is the n=64, 4000-trial run ``repro smarm`` prints."""
    result = sec32
    print(banner("Section 3.2: SMARM escape probabilities"))
    print(result.render())

    assert result.mc_single == pytest.approx(result.exact_single,
                                             abs=0.03)
    assert result.exact_single == pytest.approx(math.exp(-1), abs=0.01)
    table = dict(result.rounds_table)
    assert table[1] == pytest.approx(0.365, abs=0.01)
    assert table[13] < 1e-5  # the paper's "below 10^-6 after 13" regime
    assert table[14] < 1e-6
    assert result.rounds_needed in (13, 14)
    # The golden pins every byte of the Monte-Carlo, so a crypto or DRBG
    # change cannot shift a permutation unnoticed.
    assert (result.render() + "\n").encode() == GOLDEN.read_bytes()


def test_sec32_full_stack_escape_rate():
    """Device-level SMARM vs uniform-relocating malware: the single
    round escape rate lands in the e^-1 band."""
    from repro.malware.relocating import SelfRelocatingMalware
    from repro.ra.report import Verdict
    from repro.ra.smarm import SmarmAttestation
    from tests.conftest import make_stack

    trials = 80
    escapes = 0
    for seed in range(trials):
        stack = make_stack(block_count=24)
        SmarmAttestation(stack.device).install()
        SelfRelocatingMalware(
            stack.device, target_block=20, infect_at=0.1,
            strategy="uniform", rng_seed=seed,
        )
        exchanges = []
        stack.sim.schedule_at(
            1.0,
            lambda s=stack, e=exchanges: e.append(
                s.driver.request(s.device.name)
            ),
        )
        stack.sim.run(until=60)
        if exchanges[0].result.verdict is Verdict.HEALTHY:
            escapes += 1
    rate = escapes / trials
    expected = multi_round_escape(24, 1)
    print(banner("full-stack SMARM single-round escape rate"))
    print(f"  observed {rate:.3f} vs closed form {expected:.3f}")
    # 80 Bernoulli trials at p~0.36: allow a 3-sigma band.
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(rate - expected) < 3.5 * sigma
