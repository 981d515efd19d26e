"""Deterministic call budgets for the ``fleet-qoa`` and ``fleet-locking``
campaigns.

Wall-clock gates drift with the host; the number of Python calls a run
makes does not.  These tests count ``sys.setprofile`` ``"call"`` events
-- function entries and generator resumes -- in frames whose code lives
in the ``repro`` package, over the runs of a canned campaign at one
seed:

* ``canned_campaign("qoa", seed_count=1)``, nine runs: ERASMUS
  self-measurement beside the 50 ms fire-alarm task, the campaign
  behind the ``fleet-qoa`` benchmark workload;
* ``canned_campaign("locking", seed_count=1)``, eight runs: periodic
  writer tasks racing lock-holding measurements, the campaign behind
  ``fleet-locking``.

A first pass over the same runs warms the process-wide
``ReferenceStore`` (and every other lazy cache), so the counted pass is
the steady state and does not depend on test order.

Measured on Python 3.11.7 (``docs/performance.md`` §13 and §14):

* ``qoa``: 412,581 calls before the fused inline advance, the
  per-traversal measurement hoists and the read-time counters;
  235,984 after them; 184,147 once a periodic job costs one wake;
  184,156 once the executor maps a spec by field name (one
  comprehension call per run); 184,237 once the three verifier-side
  drivers share one exchange class (a few hook calls per collection);
  184,174 once a run counts its trace records (no ring to build);
  147,052 once the CPU tallies that count in place (no call per
  record) and a measured block yields one prebuilt ``Compute``;
  147,043 once a ``Device`` builds no interrupt controller; 146,529
  once a measured block records a write-log mark instead of an audit
  hash.
* ``locking``: 292,938 calls (36,617 per run) before a periodic job
  cost one wake; 174,634 (21,829 per run) after; 174,642 with the
  field-name mapping; 174,706 with the one exchange class and the
  prover's nonce-dedup object; 174,658 with the counted trace;
  144,943 with the in-place tally and the prebuilt block command;
  144,935 without the interrupt controller; 144,855 with the mark.

Python 3.10.13 counts the same calls as 3.11.7; 3.12.1 counts 146,857
and 144,863.

Each budget is a recent count plus 5%, so a change that puts a helper
hop back on the per-block, per-step or per-job path fails here, with no
clock involved.  Python 3.12 inlines list/dict/set comprehensions
(PEP 709), so it counts a few hundred calls fewer.

The same passes also have an allocation budget: the objects the
collector tracks that the runs leave in the young generation, counted
with ``gc.get_count()[0]`` around each run with the collector off
(``docs/performance.md`` §15).  A run keeps what its scenario graph
holds until the executor's one ``gc.collect(0)``, so a record kept per
trace event or per committed write shows up here, where the call count
does not see it (a dataclass ``__init__`` is a ``<string>`` frame).
Measured on Python 3.11.7, the same under ``PYTHONHASHSEED`` 0, 1 and
123:

* ``qoa``: 45,894 objects (5,099 per run) while each run kept a
  4096-record trace ring and a ``WriteRecord`` per write; 11,106
  (1,234 per run) once the run counts its trace records and the memory
  logs writes as raw columns.
* ``locking``: 51,457 (6,432 per run) before; 10,718 (1,340 per run)
  after.

Since the CPU tallies its trace in place, 3.11.7 counts 11,103 and
10,706; with no interrupt controller per ``Device``, 11,013 and
10,682.  Young-object counts differ by interpreter, so that budget is
keyed by ``major.minor``: 3.10.13 counts 11,763 and 11,543, 3.12.1
counts 10,836 and 10,470.  An interpreter without its own count is
held to 3.11's.
"""

import gc
import os
import sys

import repro
from repro import fleet
from repro.fleet.executor import execute_run

#: 146,529 calls measured on Python 3.11.7, plus 5%
CALL_BUDGET = 153_855

#: 144,855 calls measured on Python 3.11.7, plus 5%
LOCKING_CALL_BUDGET = 152_097

#: young objects a qoa pass leaves, per interpreter: the count
#: measured on 3.10.13, 3.11.7 and 3.12.1, plus 5%
YOUNG_BUDGETS = {(3, 10): 12_351, (3, 11): 11_563, (3, 12): 11_377}

#: the same for a locking pass
LOCKING_YOUNG_BUDGETS = {(3, 10): 12_120, (3, 11): 11_216, (3, 12): 10_993}

#: this interpreter's budgets (3.11's where it has none of its own)
YOUNG_BUDGET = YOUNG_BUDGETS.get(sys.version_info[:2], YOUNG_BUDGETS[3, 11])
LOCKING_YOUNG_BUDGET = LOCKING_YOUNG_BUDGETS.get(
    sys.version_info[:2], LOCKING_YOUNG_BUDGETS[3, 11]
)


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


def count_young_objects(specs):
    """Objects the collector tracks that ``specs`` leave in the young
    generation, summed over the runs, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    left = 0
    try:
        for spec in specs:
            gc.collect()
            before = gc.get_count()[0]
            execute_run(spec)
            left += gc.get_count()[0] - before
    finally:
        if enabled:
            gc.enable()
        gc.collect()
    return left


def warm_and_count(campaign, runs, count=count_calls):
    """Plan ``campaign`` at one seed, run it once to warm every cache,
    and ``count`` a second pass (by default, its calls)."""
    specs = fleet.canned_campaign(campaign, seed_count=1).plan()
    assert len(specs) == runs
    for spec in specs:  # warm-up pass: interned images, imports
        execute_run(spec)
    return count(specs)


def test_qoa_campaign_stays_within_its_call_budget():
    calls = warm_and_count("qoa", 9)
    assert calls <= CALL_BUDGET, (
        f"the qoa campaign made {calls:,} Python calls in repro, over "
        f"its budget of {CALL_BUDGET:,}"
    )


def test_locking_campaign_stays_within_its_call_budget():
    calls = warm_and_count("locking", 8)
    assert calls <= LOCKING_CALL_BUDGET, (
        f"the locking campaign made {calls:,} Python calls in repro, "
        f"over its budget of {LOCKING_CALL_BUDGET:,}"
    )


def test_qoa_campaign_stays_within_its_allocation_budget():
    left = warm_and_count("qoa", 9, count=count_young_objects)
    assert left <= YOUNG_BUDGET, (
        f"the qoa campaign left {left:,} young objects, over its budget "
        f"of {YOUNG_BUDGET:,}"
    )


def test_locking_campaign_stays_within_its_allocation_budget():
    left = warm_and_count("locking", 8, count=count_young_objects)
    assert left <= LOCKING_YOUNG_BUDGET, (
        f"the locking campaign left {left:,} young objects, over its "
        f"budget of {LOCKING_YOUNG_BUDGET:,}"
    )
