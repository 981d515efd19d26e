"""A deterministic call budget for the ``fleet-qoa`` campaign.

Wall-clock gates drift with the host; the number of Python calls a run
makes does not.  This test counts ``sys.setprofile`` ``"call"`` events
-- function entries and generator resumes -- in frames whose code lives
in the ``repro`` package, over the nine runs of
``canned_campaign("qoa", seed_count=1)``: ERASMUS self-measurement
beside the 50 ms fire-alarm task, the campaign behind the ``fleet-qoa``
benchmark workload.  A first pass over the same runs warms the
process-wide ``ReferenceStore`` (and every other lazy cache), so the
counted pass is the steady state and does not depend on test order.

Measured on Python 3.11.7: 412,581 calls before the fused inline
advance, the per-traversal measurement hoists and the read-time
counters (``docs/performance.md`` §13), and 236,172 after.  The budget
is the latter plus 5%, so a change that puts a helper hop back on the
per-block or per-step path fails here, with no clock involved.  The
list/dict/set comprehensions in the counted code make 186 of the
calls; Python 3.12 inlines those (PEP 709) and counts that many fewer.
"""

import os
import sys

import repro
from repro import fleet
from repro.fleet.executor import execute_run

#: 236,172 calls measured on Python 3.11.7, plus 5%
CALL_BUDGET = 247_980


def count_calls(specs):
    """``"call"`` events in ``repro`` frames while ``specs`` run."""
    root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls += 1

    sys.setprofile(profile)
    try:
        for spec in specs:
            execute_run(spec)
    finally:
        sys.setprofile(None)
    return calls


def test_qoa_campaign_stays_within_its_call_budget():
    specs = fleet.canned_campaign("qoa", seed_count=1).plan()
    assert len(specs) == 9
    for spec in specs:  # warm-up pass: interned images, audits, imports
        execute_run(spec)
    calls = count_calls(specs)
    assert calls <= CALL_BUDGET, (
        f"the qoa campaign made {calls:,} Python calls in repro, over "
        f"its budget of {CALL_BUDGET:,}"
    )
