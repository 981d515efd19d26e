"""Record-stream pins for the canned fleet campaigns.

The paper's evidence is the audit trail: the device ``Trace`` behind the
Fig. 1/4/5 timelines and the memory's write log behind the Fig. 4
consistency check.  The fleet digests see only record *counts*
(``trace_events``/``trace_dropped``), so these tests pin record
*contents* on the benchmarked workload: one ``qoa`` run and one
``locking`` run that emits more records than the default cap.  A fleet
run counts its trace records and keeps none, so the capture helper
hands the scenario a :class:`~tests.record_oracles.RingTrace` with the
spec's cap that also feeds the executor's counter.  Each run is
repeated with a cap large enough that nothing drops, and the sha256 of
``Trace.to_jsonl`` and of the write-log tuples
``(time, block, actor, fingerprint)`` must stay exactly as captured
before the record path was optimised.  The export then closed with a
``trace.meta`` count line; the test appends that line before hashing,
so the pins hash the same bytes.  The malware payload is seeded
independently of ``PYTHONHASHSEED``, so the write-log hash is the same
in every process.

Three differentials back the count-only record path: over every
seed-1 run of five canned campaigns, the counts a run reports equal
those of ``RingTrace`` rings at several caps fed the same records, and
a run whose CPU tallies the counting trace in place writes the same
result line as one whose every record is a ``record`` call; and over
the ``locking`` pin run, the write log read from the memory's columns
equals the ``WriteRecord`` sequence that used to be appended one
committed write at a time.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.fleet import executor
from repro.fleet.campaign import RunSpec, canned_campaign
from repro.sim.memory import Memory
from repro.sim.trace import CountingTrace

from tests.record_oracles import RingTrace, WriteRecord, write_log

#: campaign, selecting fields, retained/dropped at the default cap,
#: records emitted, committed writes, to_jsonl sha256, write-log sha256
PINS = [
    (
        "qoa",
        {"t_m": 2.0, "dwell": 3.0, "seed": 1},
        (3312, 0),
        3312,
        722,
        "a52991944960cf91f62181bd38199725074c053dbb06cf971b447155cce83fd5",
        "587c832d822b19ef4ba72ece721b4342a80f0a3083c6f4b4e79d0e0518f79abb",
    ),
    (
        "locking",
        {"mechanism": "dec-lock", "writer_tasks": 4, "seed": 0},
        (4096, 1012),
        5108,
        2400,
        "fc3cf2591e5bd951254c1f5146a826aafce5e8cfff4a64c893d11147c59b2efb",
        "e0edbfbfb9c9af59b5724530cd412d49f6b97c56f41a60b6fb970be8e5f82f87",
    ),
]

UNBOUNDED = 1 << 20


def pick(campaign: str, fields: dict) -> RunSpec:
    for spec in canned_campaign(campaign).plan():
        if all(getattr(spec, key) == value for key, value in fields.items()):
            return spec
    raise LookupError(f"no {campaign} spec with {fields}")


def meta_line(emitted: int) -> bytes:
    """The ``trace.meta`` line an uncapped export closed with when the
    pins were captured."""
    meta = {"kind": "trace.meta", "records": emitted, "dropped": 0,
            "max_records": UNBOUNDED}
    return (json.dumps(meta, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


class TeeTrace(RingTrace):
    """A :class:`RingTrace` that also passes each record to ``sink``."""

    def __init__(self, sink, max_records=None):
        super().__init__(max_records)
        self.sink = sink

    def record(self, time, kind, source, **data):
        self.sink.record(time, kind, source, **data)
        super().record(time, kind, source, **data)


def run_capturing_device(spec: RunSpec, monkeypatch):
    """``execute_run(spec)`` plus the device it built, whose ``trace``
    is a :class:`RingTrace` of ``spec.trace_limit`` records."""
    built = []
    real_build = executor.Scenario.build

    def build(*args, trace, **kwargs):
        scenario = real_build(
            *args, trace=TeeTrace(trace, spec.trace_limit), **kwargs
        )
        built.append(scenario)
        return scenario

    with monkeypatch.context() as patch:
        patch.setattr(executor.Scenario, "build", build)
        result = executor.execute_run(spec)
    (scenario,) = built
    return result, scenario.device


def write_log_sha256(memory) -> str:
    lines = "\n".join(
        f"{rec.time!r} {rec.block} {rec.actor} {rec.fingerprint.hex()}"
        for rec in write_log(memory)
    )
    return hashlib.sha256(lines.encode()).hexdigest()


@pytest.mark.parametrize(
    "campaign, fields, capped, emitted, writes, trace_sha, log_sha",
    PINS,
    ids=[pin[0] for pin in PINS],
)
class TestRecordStream:
    def test_counts_at_default_cap(
        self, campaign, fields, capped, emitted, writes, trace_sha,
        log_sha, monkeypatch,
    ):
        spec = pick(campaign, fields)
        assert spec.trace_limit == 4096
        result, device = run_capturing_device(spec, monkeypatch)
        assert (result.trace_events, result.trace_dropped) == capped
        assert result.trace_events + result.trace_dropped == emitted
        assert (len(device.trace), device.trace.dropped) == capped
        assert len(device.memory.write_times) == writes

    def test_contents_uncapped(
        self, campaign, fields, capped, emitted, writes, trace_sha,
        log_sha, monkeypatch, tmp_path,
    ):
        spec = dataclasses.replace(pick(campaign, fields),
                                   trace_limit=UNBOUNDED)
        result, device = run_capturing_device(spec, monkeypatch)
        assert (result.trace_events, result.trace_dropped) == (emitted, 0)
        path = tmp_path / "trace.jsonl"
        assert device.trace.to_jsonl(path) == emitted
        exported = path.read_bytes() + meta_line(emitted)
        assert hashlib.sha256(exported).hexdigest() == trace_sha
        assert len(device.memory.write_times) == writes
        assert write_log_sha256(device.memory) == log_sha


#: ring caps the counting sink is checked against (1 << 20: unbounded)
CAPS = (1, 100, 4096, UNBOUNDED)


class RingFanOut:
    """A device trace that passes each record to the executor's sink
    and to one :class:`RingTrace` per cap.  It has only ``record``, so
    a run that asked its trace for anything else would fail here."""

    def __init__(self, sink):
        self.sink = sink
        self.rings = {cap: RingTrace(cap) for cap in CAPS}

    def record(self, time, kind, source, **data):
        self.sink.record(time, kind, source, **data)
        for ring in self.rings.values():
            ring.record(time, kind, source, **data)


@pytest.mark.parametrize(
    "campaign", ["matrix", "qoa", "locking", "hetero", "faults"]
)
def test_counted_trace_matches_rings(campaign, monkeypatch):
    """The sink's derived ``(trace_events, trace_dropped)`` equals a
    ring's ``(len, dropped)`` at every cap, and the run reports the
    ring of its own ``trace_limit``."""
    specs = canned_campaign(campaign, seed_count=1).plan()
    real_build = executor.Scenario.build
    fanouts = []

    def build(*args, trace, **kwargs):
        fanouts.append(RingFanOut(trace))
        return real_build(*args, trace=fanouts[-1], **kwargs)

    monkeypatch.setattr(executor.Scenario, "build", build)
    for spec in specs:
        result = executor.execute_run(spec)
        fanout = fanouts.pop()
        assert spec.trace_limit in CAPS
        rings = fanout.rings
        for cap, ring in rings.items():
            assert fanout.sink.ring_counts(cap) == (len(ring), ring.dropped)
        ring = rings[spec.trace_limit]
        assert (result.trace_events, result.trace_dropped) == (
            len(ring), ring.dropped
        )
        assert len(rings[UNBOUNDED]) == fanout.sink.emitted > 0


@pytest.mark.parametrize(
    "campaign", ["matrix", "qoa", "locking", "hetero", "faults"]
)
def test_tallied_trace_matches_fanout(campaign, monkeypatch):
    """A run whose device trace is the executor's own
    :class:`~repro.sim.trace.CountingTrace` -- which the CPU tallies in
    place instead of calling ``record`` -- writes the same result line
    as the same run fed through :class:`RingFanOut`, where every record
    is a call, and its tally equals the unbounded ring's length."""
    specs = canned_campaign(campaign, seed_count=1).plan()
    real_build = executor.Scenario.build
    sinks = []

    def plain(*args, trace, **kwargs):
        sinks.append(trace)
        return real_build(*args, trace=trace, **kwargs)

    def fanned(*args, trace, **kwargs):
        sinks.append(RingFanOut(trace))
        return real_build(*args, trace=sinks[-1], **kwargs)

    for spec in specs:
        lines = []
        for build in (plain, fanned):
            with monkeypatch.context() as patch:
                patch.setattr(executor.Scenario, "build", build)
                lines.append(executor.execute_run(spec).to_json_line())
        tally, fanout = sinks
        sinks.clear()
        assert type(tally) is CountingTrace
        assert lines[0] == lines[1]
        assert tally.emitted == len(fanout.rings[UNBOUNDED]) > 0


def test_write_log_view_matches_appended_records(monkeypatch):
    """Each committed write of the ``locking`` pin run (MPU denials
    included) yields the record the old path appended: its time, block
    and actor, and the very snapshot ``read_block`` returned after it."""
    appended = []
    real_write, real_patch = Memory.write, Memory.patch

    def commit(real, memory, block_index, actor, *args):
        generation = memory.generations[block_index]
        real(memory, block_index, *args, actor)
        if memory.generations[block_index] != generation:
            appended.append(WriteRecord(
                memory.now(), block_index, actor,
                memory.read_block(block_index),
            ))

    def write(memory, block_index, data, actor="?"):
        commit(real_write, memory, block_index, actor, data)

    def patch(memory, block_index, offset, data, actor="?"):
        commit(real_patch, memory, block_index, actor, offset, data)

    monkeypatch.setattr(Memory, "write", write)
    monkeypatch.setattr(Memory, "patch", patch)
    campaign, fields, _capped, _emitted, writes, _trace, _log = PINS[1]
    _result, device = run_capturing_device(
        pick(campaign, fields), monkeypatch
    )
    log = write_log(device.memory)
    assert len(log) == writes == len(appended)
    assert log == appended
    assert all(a.content is b.content for a, b in zip(log, appended))
