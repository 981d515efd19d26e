"""Paper-claim helpers.

Every module regenerates one paper artifact, prints the same
rows/series the paper reports (run with ``-s`` to see them), and
asserts the paper's shape claims so a silent regression cannot slip
through.
"""

from __future__ import annotations

import pytest

from repro.experiments import sec32_smarm


def banner(title: str) -> str:
    rule = "=" * max(10, len(title))
    return f"\n{rule}\n{title}\n{rule}"


@pytest.fixture(scope="session")
def sec32():
    """Section 3.2's n=64, 4000-trial escape game, played once.

    Its ``mc_single`` is ``escape_probability(64, trials=4000)`` on the
    default DRBG stream, so the Section 3.2 claim and the strategy
    ablation share it.
    """
    return sec32_smarm(n_blocks=64, trials=4000)
