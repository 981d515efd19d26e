"""Epoch-batched vs one-by-one verification: the byte-identity contract.

``Verifier.verify_batch`` must be a pure wall-clock optimization: for
any sequence of reports, batching may only amortize the expected-digest
recomputation, never change a verdict, a detail string, or a
per-record verdict.  ``Verifier.verify_report`` is the serial
reference.  This file pins that contract these ways:

* **per mechanism** -- reports captured from real Table-1 scenario
  runs (on-demand, ERASMUS collections, SeED pushes), re-verified
  against fresh verifiers serially and batched, including runs under a
  ``FaultPlan`` with loss + timer drift and a mid-run
  ``Device.reset()`` brownout;
* **per algorithm** -- every epoch the served verifier drains, for
  sha256, sha512 and blake2b record digests, re-verified report by
  report on a fresh verifier;
* **golden** -- the smoke preset's canonical ledger is committed at
  ``tests/golden/vserver_ledger.jsonl`` and the served drain must
  reproduce it byte-for-byte (the CI load-test smoke job diffs the
  same artifact);
* **generated** -- hypothesis-built epochs mixing sequential, shuffled,
  normalized, region and data-copy records with tampered digests, bad
  tags, unknown regions, records naming another device and history
  records re-shipped across reports;
* **digest count** -- inside one batch each distinct record is
  digested once, the property that makes the drain pay off.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tradeoff import ScenarioConfig
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashes import HASH_ALGORITHMS
from repro.errors import ConfigurationError
from repro.ra.erasmus import COLLECT_STREAM
from repro.ra.measurement import derive_order_seed, expected_digest
from repro.ra.report import AttestationReport, MeasurementRecord, Verdict
from repro.ra.seed import PUSH_STREAM
from repro.ra import verifier as verifier_module
from repro.ra.verifier import Verifier
from repro.resilience.retry import RetryPolicy
from repro.scenario import Scenario
from repro.sim.engine import Simulator
from repro.units import MiB
from repro.vserver import ServiceConfig, build_service_scenario

GOLDEN_LEDGER = Path(__file__).parent / "golden" / "vserver_ledger.jsonl"

ON_DEMAND = ["smart", "all-lock", "dec-lock", "inc-lock", "smarm"]


def run_scenario(mechanism, malware="transient", faults=None, seed=5):
    """One small but real Table-1 run; returns the finished scenario."""
    config = ScenarioConfig(
        block_count=8,
        sim_block_size=MiB,
        request_at=1.0,
        horizon=24.0,
        rounds=3,
        t_m=4.0,
        malware_block=2,
        infect_at=2.0,
        dwell=3.0,
        relocation_seed=seed,
    )
    retry = None
    if faults:
        retry = RetryPolicy(
            timeout=2.0, max_retries=4, backoff=1.5, max_timeout=8.0,
            jitter=0.1, seed=b"equiv-retry",
        )
    scenario = Scenario.build(
        mechanism,
        malware=malware,
        faults=faults,
        config=config,
        seed=seed,
        retry=retry,
        fault_seed=b"equiv-faults",
    )
    if scenario.driver is not None:
        scenario.schedule_request(1.0)
    elif scenario.collector is not None:
        scenario.schedule_collections(8.0, 2)
    scenario.sim.run(until=config.horizon)
    return scenario


def captured_reports(scenario):
    """The reports the run actually sent, plus their verify kwargs."""
    _, reports = scenario.produced()
    if scenario.collector is not None:
        reports = [collection.report for collection in reports]
        return reports, {"enforce_counter": True,
                         "counter_stream": COLLECT_STREAM}
    if scenario.seed_monitor is not None:
        return reports, {"enforce_counter": True,
                         "counter_stream": PUSH_STREAM}
    return reports, {}


def fresh_verifier(source):
    """A new verifier enrolled with the same profiles, clean state."""
    sim = Simulator()
    fresh = Verifier(sim, name=f"{source.name}-reverify")
    for name, profile in source.devices.items():
        fresh.enroll(
            name,
            key=profile.key,
            reference=profile.reference,
            region_map={k: list(v) for k, v in profile.region_map.items()},
            mutable_blocks=profile.mutable_blocks,
        )
    return fresh


def signature(results):
    """Everything deterministic about a verification outcome."""
    return [
        (
            result.device,
            result.verdict.value,
            result.detail,
            [verdict.value for verdict in result.record_verdicts],
            result.verified_at,
        )
        for result in results
    ]


def assert_equivalent(scenario):
    reports, kwargs = captured_reports(scenario)
    assert reports, "scenario produced no reports to re-verify"
    serial = fresh_verifier(scenario.verifier)
    serial_results = [
        serial.verify_report(report, **kwargs) for report in reports
    ]
    batched = fresh_verifier(scenario.verifier)
    batched_results = batched.verify_batch(
        [(report, kwargs) for report in reports]
    )
    assert signature(batched_results) == signature(serial_results)
    return serial_results


class TestMechanismEquivalence:
    @pytest.mark.parametrize("mechanism", ON_DEMAND)
    def test_on_demand_reports(self, mechanism):
        scenario = run_scenario(mechanism)
        assert_equivalent(scenario)

    def test_erasmus_collections(self):
        scenario = run_scenario("erasmus")
        results = assert_equivalent(scenario)
        # history re-ships are where batching amortizes: make sure the
        # workload actually contains multi-record reports
        assert any(len(r.record_verdicts) > 1 for r in results)

    def test_seed_pushes(self):
        scenario = run_scenario("seed")
        assert_equivalent(scenario)

    def test_faulted_channel_with_loss_and_drift(self):
        scenario = run_scenario(
            "smart", faults="loss=0.25@0:12;drift=0.02@2"
        )
        assert_equivalent(scenario)

    def test_mid_run_brownout_reset(self):
        # Device.reset() wipes volatile attestation state mid-run; the
        # replayed/stale reports it provokes must classify identically
        # in both drain modes.
        scenario = run_scenario(
            "seed", faults="loss=0.2@0:10;reset@5"
        )
        assert scenario.device.reset_count > 0
        assert_equivalent(scenario)

    def test_batch_rejects_replays_like_serial(self):
        scenario = run_scenario("seed")
        reports, kwargs = captured_reports(scenario)
        doubled = reports + reports  # every report replayed once
        serial = fresh_verifier(scenario.verifier)
        serial_results = [
            serial.verify_report(report, **kwargs) for report in doubled
        ]
        batched = fresh_verifier(scenario.verifier)
        batched_results = batched.verify_batch(
            [(report, kwargs) for report in doubled]
        )
        assert signature(batched_results) == signature(serial_results)
        assert any(
            result.verdict.value == "replay" for result in batched_results
        )


def served_epochs(algorithm, provers=12):
    """Run the smoke storm; return it and every drained epoch as
    ``(entries, results)``."""
    scenario = build_service_scenario(ServiceConfig.parse(
        f"preset=smoke;provers={provers};algorithm={algorithm}"
    ))
    drain = scenario.verifier.verify_batch
    epochs = []

    def recording(entries):
        results = drain(entries)
        epochs.append((list(entries), results))
        return results

    scenario.verifier.verify_batch = recording
    scenario.run()
    assert scenario.server.unaccounted == 0
    return scenario, epochs


class TestServiceLedgerIdentity:
    @pytest.mark.parametrize(
        "algorithm", ["sha256", "sha512", "blake2b"]
    )
    def test_batched_equals_serial_per_algorithm(self, algorithm):
        scenario, epochs = served_epochs(algorithm)
        serial = fresh_verifier(scenario.verifier)
        batched_results, serial_results = [], []
        for entries, results in epochs:
            serial.sim.run(until=results[0].verified_at)
            batched_results.extend(results)
            serial_results.extend(
                serial.verify_report(report, **kwargs)
                for report, kwargs in entries
            )
        assert len(batched_results) == scenario.server.verified
        assert signature(batched_results) == signature(serial_results)
        verdicts = {result.verdict.value for result in batched_results}
        assert {"healthy", "compromised"} <= verdicts

    def test_golden_smoke_ledger(self):
        golden = GOLDEN_LEDGER.read_text(encoding="utf-8").splitlines()
        scenario = build_service_scenario(ServiceConfig.parse("smoke"))
        scenario.run()
        assert scenario.ledger_lines() == golden


# -- generated mixed epochs ---------------------------------------------------

BLOCKS = 10
CODE = [0, 1, 2, 3, 4, 5, 7]
DATA = [6, 8, 9]
DEVICES = ["mix0", "mix1", "mix2"]

#: record shapes a prover can ship; "written" images carry legitimate
#: data-region writes, so only normalized, code-only and data-copy
#: records of them verify healthy; "data-copy-outside" copies a block
#: the reference image does not have; "other-device" is an honest
#: record of the next enrolled device shipped in this device's report
KINDS = [
    "pristine", "written", "shuffled", "normalized",
    "shuffled-normalized", "code", "data", "data-normalized",
    "data-copy", "data-copy-code", "data-copy-outside", "tampered",
    "other-device", "unknown-region",
]


def mixed_population():
    """Per device: key, reference image and a data-written image."""
    population = {}
    for name in DEVICES:
        drbg = HmacDrbg(b"mixed-epochs|" + name.encode())
        key = drbg.generate(32)
        reference = tuple(drbg.generate(24) for _ in range(BLOCKS))
        written = list(reference)
        for block in DATA:
            written[block] = drbg.generate(24)
        population[name] = (key, reference, tuple(written))
    return population


POPULATION = mixed_population()


def mixed_verifier():
    verifier = Verifier(Simulator(), name="mixed")
    for name, (key, reference, _written) in POPULATION.items():
        verifier.enroll(
            name, key=key, reference=reference,
            region_map={"code": CODE, "data": DATA},
            mutable_blocks=frozenset(DATA),
        )
    return verifier


def build_record(device, kind, algorithm, slot):
    """One honestly computed record of ``kind`` (then maybe tampered)."""
    if kind == "other-device":
        device = DEVICES[(DEVICES.index(device) + 1) % len(DEVICES)]
    key, reference, written = POPULATION[device]
    pristine = kind in (
        "pristine", "tampered", "other-device", "unknown-region"
    )
    image = reference if pristine else written
    nonce = b"mix" + slot.to_bytes(2, "big")
    counter = slot + 1
    region = {
        "code": "code", "data": "data", "data-normalized": "data",
        "unknown-region": "nope",
    }.get(kind, "")
    measured = {"code": CODE, "data": DATA}.get(region, range(BLOCKS))
    order_seed = b""
    if kind.startswith("shuffled"):
        order_seed = derive_order_seed(key, nonce, counter)
    normalized = kind.endswith("normalized")
    data_copy = ()
    if kind.startswith("data-copy"):
        extra = {"data-copy-code": [0], "data-copy-outside": [BLOCKS + 89]}
        copied = DATA + extra.get(kind, [])
        data_copy = tuple(sorted(
            (b, written[b] if b < BLOCKS else bytes(24)) for b in copied
        ))
    digest = expected_digest(
        key, image, algorithm, nonce, counter, measured,
        "shuffled" if order_seed else "sequential", order_seed,
        normalized_blocks=frozenset(DATA) if normalized else None,
    )
    if kind == "tampered":
        digest = bytes([digest[0] ^ 1]) + digest[1:]
    return MeasurementRecord(
        device=device, mechanism="mixed", algorithm=algorithm,
        nonce=nonce, counter=counter, digest=digest,
        t_start=float(slot), t_end=float(slot) + 0.5,
        block_count=len(measured), order_seed=order_seed, region=region,
        normalized=normalized, data_copy=data_copy,
    )


def build_epoch(pool, reports):
    """``(report, kwargs)`` entries; equal pool slots of one device are
    the same record object, so history re-ships are real duplicates."""
    records = {}
    entries = []
    for device_index, slots, sent_counter, bad_tag, enforce in reports:
        device = DEVICES[device_index]
        chosen = []
        for slot in slots:
            slot %= len(pool)
            if (device, slot) not in records:
                kind, algorithm = pool[slot]
                records[device, slot] = build_record(
                    device, kind, algorithm, slot
                )
            chosen.append(records[device, slot])
        key = POPULATION[device][0]
        report = AttestationReport.authenticate(
            b"wrong key" if bad_tag else key, device, chosen,
            sent_counter=sent_counter,
        )
        kwargs = {"enforce_counter": True} if enforce else {}
        entries.append((report, kwargs))
    return entries


def serial_outcome(entries):
    verifier = mixed_verifier()
    for report, kwargs in entries:
        try:
            verifier.verify_report(report, **kwargs)
        except ConfigurationError as exc:
            return signature(verifier.results), str(exc)
    return signature(verifier.results), None


def batched_outcome(entries):
    verifier = mixed_verifier()
    try:
        results = verifier.verify_batch(entries)
    except ConfigurationError as exc:
        return signature(verifier.results), str(exc)
    assert signature(results) == signature(verifier.results)
    return signature(verifier.results), None


POOL = st.lists(
    st.tuples(st.sampled_from(KINDS), st.sampled_from(sorted(HASH_ALGORITHMS))),
    min_size=1, max_size=12,
)
REPORTS = st.lists(
    st.tuples(
        st.integers(0, len(DEVICES) - 1),
        st.lists(st.integers(0, 11), min_size=1, max_size=4),
        st.integers(0, 4),
        st.sampled_from([False, False, False, True]),  # bad tag
        st.booleans(),
    ),
    min_size=1, max_size=10,
)


class TestGeneratedMixedEpochs:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(pool=POOL, reports=REPORTS)
    def test_batch_equals_serial(self, pool, reports):
        entries = build_epoch(pool, reports)
        assert batched_outcome(entries) == serial_outcome(entries)

    def test_every_kind_in_one_epoch(self):
        pool = [(kind, "sha256") for kind in KINDS]
        reports = [
            (index % len(DEVICES), [index, (index + 1) % (len(KINDS) - 1)],
             index, False, False)
            for index in range(len(KINDS) - 1)  # no unknown region
        ]
        reports.append((0, [0, 1], 99, True, False))  # bad tag
        entries = build_epoch(pool, reports)
        results, raised = serial_outcome(entries)
        assert raised is None
        assert batched_outcome(entries) == (results, None)
        verdicts = [verdict for _d, verdict, *_rest in results]
        assert {"healthy", "compromised", "invalid"} <= set(verdicts)
        details = [detail for _d, _v, detail, *_rest in results]
        assert any(d.startswith("record names device") for d in details)
        per_record = [v for *_head, rv, _t in results for v in rv]
        assert "healthy" in per_record and "compromised" in per_record

    def test_unknown_region_raises_at_the_same_entry(self):
        pool = [("pristine", "sha512"), ("unknown-region", "blake2s")]
        entries = build_epoch(
            pool, [(0, [0], 1, False, False), (1, [0, 1], 1, False, False),
                   (2, [0], 1, False, False)],
        )
        outcome = serial_outcome(entries)
        assert outcome[1] == "record references unknown region 'nope'"
        assert len(outcome[0]) == 1
        assert batched_outcome(entries) == outcome


class TestDataCopyOutsideReference:
    def test_batched_drain_matches_serial(self):
        """A copy naming a block beyond the reference image is rejected
        before any digest, batched as serially; it must not raise
        IndexError out of the batch's expected-digest precompute."""
        key = b"k" * 32
        reference = tuple(bytes([index]) * 16 for index in range(4))
        record = MeasurementRecord(
            device="d", mechanism="m", algorithm="sha256", nonce=b"n",
            counter=1, digest=b"x" * 32, t_start=0.0, t_end=0.5,
            block_count=4, data_copy=((99, b"z" * 16),),
        )
        report = AttestationReport.authenticate(
            key, "d", [record], sent_counter=1
        )
        verdicts = []
        for batched in (False, True):
            verifier = Verifier(Simulator(), name="v")
            verifier.enroll(
                "d", key=key, reference=reference,
                mutable_blocks=frozenset({3}),
            )
            if batched:
                result = verifier.verify_batch([(report, {})])[0]
            else:
                result = verifier.verify_report(report)
            verdicts.append((result.verdict, result.detail,
                             result.record_verdicts))
        assert verdicts[0] == verdicts[1]
        assert verdicts[0][0] is Verdict.COMPROMISED


class TestRecordOfAnotherDevice:
    @pytest.mark.parametrize("other", ["ghost", "mix1"])
    def test_report_from_mix0_is_invalid(self, other):
        """An authentic report from ``mix0`` carrying a record that names
        another device -- unenrolled (``ghost``) or enrolled (``mix1``,
        honestly computed against its reference) -- is invalid, batched
        as serially, and the drain goes on to the next report."""
        key, reference, _written = POPULATION["mix1"]
        digest = expected_digest(
            key, reference, "sha256", b"n", 1, range(BLOCKS),
            "sequential", b"",
        )
        record = MeasurementRecord(
            device=other, mechanism="m", algorithm="sha256", nonce=b"n",
            counter=1, digest=digest, t_start=0.0, t_end=0.5,
            block_count=BLOCKS,
        )
        report = AttestationReport.authenticate(
            POPULATION["mix0"][0], "mix0", [record], sent_counter=1
        )
        entries = [(report, {})] + build_epoch(
            [("pristine", "sha256")], [(1, [0], 1, False, False)]
        )
        outcome = serial_outcome(entries)
        assert outcome[1] is None
        assert [verdict for _d, verdict, *_rest in outcome[0]] == [
            "invalid", "healthy",
        ]
        assert outcome[0][0][2] == f"record names device {other!r}"
        assert batched_outcome(entries) == outcome


class TestDigestOncePerBatch:
    @staticmethod
    def count_calls(monkeypatch):
        """Count ``Hmac`` constructions and traversal joins the verifier
        makes from here on."""
        calls = {"hmac": 0, "traversal": 0}
        real_hmac = verifier_module.Hmac
        real_traversal = verifier_module.traversal_bytes

        def counting_hmac(*args, **kwargs):
            calls["hmac"] += 1
            return real_hmac(*args, **kwargs)

        def counting_traversal(*args, **kwargs):
            calls["traversal"] += 1
            return real_traversal(*args, **kwargs)

        monkeypatch.setattr(verifier_module, "Hmac", counting_hmac)
        monkeypatch.setattr(
            verifier_module, "traversal_bytes", counting_traversal
        )
        return calls

    def test_each_distinct_record_digested_once(self, monkeypatch):
        """Each distinct record is MACed once, however often the epoch
        re-ships it; plain records join their group's traversal once,
        shuffled and data-copy records join their own."""
        pool = [("pristine", "sha256"), ("normalized", "sha512"),
                ("shuffled-normalized", "sha256"), ("data-copy", "blake2b")]
        reports = [
            (0, [0, 1, 2], 1, False, False),
            (0, [1, 2, 3], 2, False, False),
            (0, [0, 1, 2, 3], 3, False, False),
            (1, [0, 1, 2, 3], 1, False, False),
            (1, [2, 3, 0], 2, False, False),
        ]
        entries = build_epoch(pool, reports)
        verifier = mixed_verifier()
        calls = self.count_calls(monkeypatch)
        results = verifier.verify_batch(entries)
        assert {result.verdict.value for result in results} == {"healthy"}
        # two devices x four distinct records, 17 records shipped
        assert sum(len(report.records) for report, _ in entries) == 17
        assert calls == {"hmac": 8, "traversal": 8}

    def test_shared_reference_joined_once(self, monkeypatch):
        """Devices enrolled under one reference tuple share the batch's
        traversal buffer: one join, one MAC per distinct record."""
        _key, reference, _written = POPULATION["mix0"]
        verifier = Verifier(Simulator(), name="shared")
        entries = []
        for index in range(3):
            name = f"twin{index}"
            key = bytes([index + 1]) * 32
            verifier.enroll(name, key=key, reference=reference)
            records = [
                MeasurementRecord(
                    device=name, mechanism="m", algorithm="sha256",
                    nonce=b"n", counter=counter,
                    digest=expected_digest(
                        key, reference, "sha256", b"n", counter,
                        range(BLOCKS), "sequential", b"",
                    ),
                    t_start=0.0, t_end=0.5, block_count=BLOCKS,
                )
                for counter in (1, 2)
            ]
            report = AttestationReport.authenticate(
                key, name, records, sent_counter=1
            )
            entries += [(report, {}), (report, {})]
        calls = self.count_calls(monkeypatch)
        results = verifier.verify_batch(entries)
        assert {result.verdict.value for result in results} == {"healthy"}
        assert calls == {"hmac": 6, "traversal": 1}
