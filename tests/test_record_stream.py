"""Record-stream pins for the canned fleet campaigns.

The paper's evidence is the audit trail: the device ``Trace`` behind the
Fig. 1/4/5 timelines and ``Memory.write_log`` behind the Fig. 4
consistency check.  The fleet digests see only record *counts*
(``trace_events``/``trace_dropped``), so these tests pin record
*contents* on the benchmarked workload: one ``qoa`` run and one
``locking`` run whose ring buffer drops records at the default cap.
Each is re-run with a cap large enough that nothing drops, and the
sha256 of ``Trace.to_jsonl`` and of the write-log tuples
``(time, block, actor, fingerprint)`` must stay exactly as captured
before the record path was optimised.  The malware payload is seeded
independently of ``PYTHONHASHSEED``, so the write-log hash is the same
in every process.
"""

import dataclasses
import hashlib

import pytest

from repro.fleet import executor
from repro.fleet.campaign import RunSpec, canned_campaign

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


def run_capturing_device(spec: RunSpec, monkeypatch):
    """``execute_run(spec)`` plus the device it built."""
    built = []
    real_build = executor.Scenario.build

    def build(*args, **kwargs):
        scenario = real_build(*args, **kwargs)
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
        for rec in memory.write_log
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
        assert len(device.memory.write_log) == writes

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
        assert hashlib.sha256(path.read_bytes()).hexdigest() == trace_sha
        assert len(device.memory.write_log) == writes
        assert write_log_sha256(device.memory) == log_sha
