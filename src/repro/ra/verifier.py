"""The trusted verifier (Vrf).

Vrf keeps a database of registered provers: shared attestation key,
reference (benign) memory image and region layout.  For every incoming
record it recomputes the digest MP *should* have produced over the
reference image -- same nonce, same counter, same traversal order
(recomputable because the shuffled order is derived from the shared
key, Section 3.2) -- and compares.

Replay defenses follow the paper: on-demand reports must answer the
outstanding challenge nonce; prover-initiated (SeED) reports must carry
a strictly increasing monotonic counter (Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hmac import Hmac, constant_time_equal
from repro.errors import ConfigurationError
from repro.ra.measurement import expected_digest, traversal_bytes
from repro.ra.report import (
    AttestationReport,
    MeasurementRecord,
    Verdict,
    VerificationResult,
)
from repro.sim.engine import Simulator


def frozen_blocks(blocks: Sequence[bytes]) -> Tuple[bytes, ...]:
    """``blocks`` as a tuple of exact ``bytes``.

    A tuple that already is one is returned as is, so every prover of a
    cohort and every verifier profile enrolled under it share one
    image; anything else (a list, a ``bytearray`` block, a ``bytes``
    subclass) is copied.
    """
    if type(blocks) is tuple and all(type(b) is bytes for b in blocks):
        return blocks
    return tuple(bytes(b) for b in blocks)


@dataclass
class DeviceProfile:
    """Everything Vrf knows about one prover."""

    name: str
    key: bytes
    reference: Tuple[bytes, ...]
    region_map: Dict[str, List[int]] = field(default_factory=dict)
    #: blocks in mutable (data) regions, zeroed when records are
    #: normalized (Section 2.3)
    mutable_blocks: frozenset = frozenset()
    #: highest accepted monotonic counter, per report stream -- SeED
    #: pushes and ERASMUS collections each keep their own sequence
    last_counters: Dict[str, int] = field(default_factory=dict)
    #: public signing identity for non-repudiable reports (§2.4);
    #: None means MAC-only operation
    public_identity: Optional[object] = None
    outstanding_nonce: Optional[bytes] = None
    #: verification timing cost model hook (seconds per record verify)
    verify_cost: float = 0.0


@dataclass(frozen=True)
class VerifyCostModel:
    """Sim-time cost of verifying one report on the verifier host.

    ``per_report`` is the fixed overhead (parse + MAC + bookkeeping),
    ``per_record`` the marginal cost of each contained measurement
    record; a per-device surcharge comes from
    :attr:`DeviceProfile.verify_cost` (seconds per record).  The
    default model everywhere is ``None`` -- zero cost, instantaneous
    verdicts, byte-identical golden ledgers; services opt in via
    config (e.g. the ``smoke-cost`` preset).
    """

    per_report: float = 0.0
    per_record: float = 0.0

    def __post_init__(self) -> None:
        if self.per_report < 0 or self.per_record < 0:
            raise ConfigurationError("verify costs must be >= 0")


class Verifier:
    """Vrf: challenge generation, report verification, result history."""

    def __init__(self, sim: Simulator, name: str = "vrf",
                 nonce_seed: bytes = b"vrf-nonces", trace=None) -> None:
        self.sim = sim
        self.name = name
        self.trace = trace
        self.devices: Dict[str, DeviceProfile] = {}
        self.results: List[VerificationResult] = []
        #: optional :class:`VerifyCostModel`; when set, callers that
        #: schedule verdict delivery (the served verifier, drivers)
        #: charge :meth:`verify_cost` sim-seconds per report
        self.cost_model: Optional[VerifyCostModel] = None
        self._nonce_drbg = HmacDrbg(nonce_seed)
        self._seen_nonces: Dict[str, set] = {}
        # lazily resolved instrument handles (see repro.sim.network.
        # Endpoint.deliver): one registry lookup per instrument instead
        # of one per verdict; first-use resolution keeps instrument
        # creation order -- and snapshots -- unchanged
        self._verdict_counters: Dict[str, Any] = {}
        self._freshness_hist: Optional[Any] = None
        #: batch-scoped expected-digest memo; set only inside
        #: :meth:`verify_batch`, so one-by-one verification recomputes
        #: every digest
        self._expected_memo: Optional[Dict[tuple, bytes]] = None

    def verify_cost(self, report: AttestationReport) -> float:
        """Sim-seconds this report costs under the active cost model.

        0.0 without a model, so default paths schedule nothing extra
        and existing event sequences are untouched.
        """
        model = self.cost_model
        if model is None:
            return 0.0
        profile = self.devices.get(report.device)
        per_record = model.per_record + (
            profile.verify_cost if profile is not None else 0.0
        )
        return model.per_report + len(report.records) * per_record

    # -- registry ---------------------------------------------------------

    def enroll(
        self,
        device,
        *,
        signing=None,
        key: Optional[bytes] = None,
        reference: Optional[Sequence[bytes]] = None,
        region_map: Optional[Dict[str, List[int]]] = None,
        mutable_blocks: Optional[frozenset] = None,
    ) -> DeviceProfile:
        """Enroll a prover: the one registry entry point.

        ``device`` is either a simulated
        :class:`~repro.sim.device.Device` -- whose pristine image,
        region layout and key become the reference state -- or a bare
        device name, in which case ``key`` and ``reference`` must be
        supplied.  ``signing`` attaches a public identity for
        non-repudiable reports (Section 2.4).

        Enrolling an already-known device is idempotent: the existing
        profile is returned (reference state is *not* refreshed), with
        ``signing`` applied when given -- so attaching a signing
        identity after enrollment is just a second ``enroll`` call.
        """
        if isinstance(device, str):
            name = device
            if name not in self.devices:
                if key is None or reference is None:
                    raise ConfigurationError(
                        "enrolling by name requires key= and reference="
                    )
                self._new_profile(
                    name, key, reference, region_map, mutable_blocks
                )
            profile = self.profile(name)
        else:
            name = device.name
            if name not in self.devices:
                if region_map is None:
                    region_map = {
                        region.name: list(region.blocks())
                        for region in device.memory.regions.values()
                    }
                if mutable_blocks is None:
                    mutable_blocks = frozenset(
                        block
                        for region in device.memory.regions.values()
                        if region.mutable
                        for block in region.blocks()
                    )
                self._new_profile(
                    name,
                    device.attestation_key if key is None else key,
                    (
                        list(device.memory.benign_image())
                        if reference is None
                        else reference
                    ),
                    region_map,
                    mutable_blocks,
                )
            profile = self.profile(name)
        if signing is not None:
            profile.public_identity = signing
        return profile

    def _new_profile(
        self,
        name: str,
        key: bytes,
        reference: Sequence[bytes],
        region_map: Optional[Dict[str, List[int]]],
        mutable_blocks: Optional[frozenset],
    ) -> DeviceProfile:
        profile = DeviceProfile(
            name=name,
            key=key,
            reference=frozen_blocks(reference),
            region_map=dict(region_map or {}),
            mutable_blocks=mutable_blocks or frozenset(),
        )
        self.devices[name] = profile
        self._seen_nonces[name] = set()
        return profile

    def profile(self, device_name: str) -> DeviceProfile:
        profile = self.devices.get(device_name)
        if profile is None:
            raise ConfigurationError(f"unknown device {device_name!r}")
        return profile

    # -- challenges ---------------------------------------------------------

    def new_nonce(self, device_name: str, length: int = 16) -> bytes:
        """A fresh challenge; recorded as the outstanding one."""
        profile = self.profile(device_name)
        nonce = self._nonce_drbg.generate(length)
        profile.outstanding_nonce = nonce
        return nonce

    # -- verification ---------------------------------------------------------

    def _measured_blocks(
        self, profile: DeviceProfile, record: MeasurementRecord
    ) -> List[int]:
        if not record.region:
            return list(range(len(profile.reference)))
        blocks = profile.region_map.get(record.region)
        if blocks is None:
            raise ConfigurationError(
                f"record references unknown region {record.region!r}"
            )
        return list(blocks)

    @staticmethod
    def _memo_key(record: MeasurementRecord) -> tuple:
        """Everything :meth:`expected_for` depends on, hashable."""
        return (
            record.device,
            record.algorithm,
            record.region,
            record.nonce,
            record.counter,
            record.order_seed,
            record.normalized,
            record.data_copy,
        )

    def expected_for(self, record: MeasurementRecord) -> bytes:
        """Digest MP should produce over the reference image.

        When the record ships a copy of D (Section 2.3), the attached
        contents stand in for the reference's data blocks -- the code
        region must still match the golden image exactly.

        Inside :meth:`verify_batch` each distinct record is digested
        once: a hit returns the memoized digest, a miss stores it.
        """
        memo = self._expected_memo
        if memo is not None:
            key = self._memo_key(record)
            cached = memo.get(key)
            if cached is not None:
                return cached
        profile = self.profile(record.device)
        order = "shuffled" if record.order_seed else "sequential"
        reference = profile.reference
        if record.data_copy:
            blocks = list(reference)
            for block_index, content in record.data_copy:
                blocks[block_index] = bytes(content)
            reference = tuple(blocks)
        digest = expected_digest(
            profile.key,
            reference,
            record.algorithm,
            record.nonce,
            record.counter,
            self._measured_blocks(profile, record),
            order,
            record.order_seed,
            normalized_blocks=(
                profile.mutable_blocks if record.normalized else None
            ),
        )
        if memo is not None:
            memo[key] = digest
        return digest

    def verify_record(self, record: MeasurementRecord) -> Verdict:
        """HEALTHY iff the record's digest matches the reference state.

        A shipped copy of D may only cover blocks the verifier knows to
        be mutable: a prover substituting *code* blocks this way is
        trying to launder malware as data and is flagged outright.
        """
        profile = self.profile(record.device)
        if record.data_copy:
            for block_index, _content in record.data_copy:
                if block_index not in profile.mutable_blocks:
                    return Verdict.COMPROMISED
        if constant_time_equal(self.expected_for(record), record.digest):
            return Verdict.HEALTHY
        return Verdict.COMPROMISED

    def verify_report(
        self,
        report: AttestationReport,
        expected_nonce: Optional[bytes] = None,
        enforce_counter: bool = False,
        counter_stream: str = "default",
    ) -> VerificationResult:
        """Full report verification: authenticity, replay, then state.

        ``expected_nonce``: require the newest record to answer this
        challenge (on-demand mode).  ``enforce_counter``: require the
        report's ``sent_counter`` to strictly increase within
        ``counter_stream`` (SeED pushes and ERASMUS collections are
        independent sequences on the same prover).  A report from a
        device that was never enrolled is ``INVALID``.
        """
        profile = self.devices.get(report.device)
        now = self.sim.now

        def conclude(verdict: Verdict, detail: str,
                     record_verdicts: Optional[List[Verdict]] = None,
                     freshness: Optional[float] = None) -> VerificationResult:
            result = VerificationResult(
                verdict=verdict,
                device=report.device,
                verified_at=now,
                detail=detail,
                record_verdicts=record_verdicts or [],
                freshness=freshness,
            )
            self.results.append(result)
            if self.trace is not None:
                self.trace.record(
                    now, "vrf.verdict", self.name,
                    device=report.device, verdict=verdict.value,
                )
            obs = self.sim.obs
            if obs.enabled:
                counter = self._verdict_counters.get(verdict.value)
                if counter is None:
                    counter = self._verdict_counters[verdict.value] = (
                        obs.metrics.counter(
                            "ra.verdicts", "verification outcomes",
                            verdict=verdict.value,
                        )
                    )
                counter.inc()
                if freshness is not None:
                    hist = self._freshness_hist
                    if hist is None:
                        hist = self._freshness_hist = (
                            obs.metrics.histogram(
                                "ra.report.freshness",
                                "verdict time minus newest t_e (sim s)",
                            )
                        )
                    hist.observe(freshness)
            return result

        if profile is None:
            return conclude(
                Verdict.INVALID, f"unknown device {report.device!r}"
            )
        if not report.records:
            return conclude(Verdict.INVALID, "empty report")
        if not report.verify_tag(profile.key):
            return conclude(Verdict.INVALID, "bad authentication tag")
        for record in report.records:
            if record.device != report.device:
                return conclude(
                    Verdict.INVALID, f"record names device {record.device!r}"
                )

        if report.scheme:
            from repro.ra.signing import verify_data

            identity = profile.public_identity
            if identity is None or identity.scheme != report.scheme:
                return conclude(
                    Verdict.INVALID,
                    f"no public key for scheme {report.scheme!r}",
                )
            if not verify_data(
                identity, report.signing_input(), report.signature
            ):
                return conclude(Verdict.INVALID, "bad signature")

        if enforce_counter:
            last = profile.last_counters.get(counter_stream, -1)
            if report.sent_counter <= last:
                return conclude(
                    Verdict.REPLAY,
                    f"counter {report.sent_counter} <= {last} "
                    f"in stream {counter_stream!r}",
                )
            profile.last_counters[counter_stream] = report.sent_counter

        if expected_nonce is not None:
            if report.newest.nonce != expected_nonce:
                return conclude(Verdict.REPLAY, "nonce mismatch")
            if expected_nonce in self._seen_nonces[report.device]:
                return conclude(Verdict.REPLAY, "nonce already used")
            self._seen_nonces[report.device].add(expected_nonce)

        record_verdicts = [self.verify_record(r) for r in report.records]
        freshness = now - report.newest.t_end
        bad = sum(1 for v in record_verdicts if v is not Verdict.HEALTHY)
        if bad:
            return conclude(
                Verdict.COMPROMISED,
                f"{bad}/{len(record_verdicts)} measurements diverge "
                "from reference",
                record_verdicts, freshness,
            )
        return conclude(
            Verdict.HEALTHY,
            f"{len(record_verdicts)} measurement(s) match reference",
            record_verdicts, freshness,
        )

    # -- epoch batching -------------------------------------------------------

    def _precompute_expected(
        self, entries: Sequence[Tuple[AttestationReport, Dict]]
    ) -> Dict[tuple, bytes]:
        """Expected digests for the plain records in ``entries``.

        Sequential-order records without a data copy are grouped per
        ``(device, algorithm, region, normalized)``.  Each distinct
        ``(reference, measured blocks, normalized blocks)`` is joined
        once (:func:`traversal_bytes`) -- devices enrolled under one
        shared reference tuple share the buffer -- and every distinct
        member MAC takes ``nonce || counter`` and that buffer.  Every
        other record is left to :meth:`expected_for`, which digests it
        on first use and stores it in the same memo.
        """
        memo: Dict[tuple, bytes] = {}
        groups: Dict[tuple, List[Tuple[tuple, MeasurementRecord]]] = {}
        for report, _kwargs in entries:
            if report.device not in self.devices:
                continue  # verify_report finds it invalid at its turn
            for record in report.records:
                if (record.order_seed or record.data_copy
                        or record.device != report.device):
                    continue
                key = self._memo_key(record)
                if key in memo:
                    continue
                memo[key] = b""  # claimed; overwritten below
                sig = (record.device, record.algorithm, record.region,
                       record.normalized)
                groups.setdefault(sig, []).append((key, record))
        # keyed by the reference's identity: every profile in
        # ``self.devices`` keeps its reference alive for this call
        traversals: Dict[tuple, bytes] = {}
        for sig, members in groups.items():
            device, algorithm, _region, normalized = sig
            profile = self.devices[device]
            try:
                blocks = tuple(
                    self._measured_blocks(profile, members[0][1])
                )
            except ConfigurationError:
                for key, _record in members:
                    del memo[key]
                continue
            zeroed = profile.mutable_blocks if normalized else None
            shape = (id(profile.reference), blocks, zeroed)
            traversal = traversals.get(shape)
            if traversal is None:
                traversal = traversals[shape] = traversal_bytes(
                    profile.reference, blocks, "sequential", b"", zeroed
                )
            for key, record in members:
                mac = Hmac(profile.key, algorithm)
                mac.update(record.nonce + record.counter.to_bytes(8, "big"))
                mac.update(traversal)
                memo[key] = mac.digest()
        return memo

    def verify_batch(
        self, entries: Sequence[Tuple[AttestationReport, Dict]]
    ) -> List[VerificationResult]:
        """Verify a same-epoch batch of reports in arrival order.

        ``entries`` is ``[(report, verify_kwargs), ...]`` where each
        kwargs dict holds that report's :meth:`verify_report` keyword
        arguments (``expected_nonce`` / ``enforce_counter`` /
        ``counter_stream``).  Verdicts, details and result-history
        side effects are byte-identical to calling
        :meth:`verify_report` once per entry in the same order -- the
        batch only amortizes expected-digest recomputation through one
        memo for the whole epoch (one traversal buffer per plain-record
        group, each distinct record digested once).
        """
        self._expected_memo = self._precompute_expected(entries)
        try:
            return [
                self.verify_report(report, **kwargs)
                for report, kwargs in entries
            ]
        finally:
            self._expected_memo = None

    # -- statistics -----------------------------------------------------------

    def verdict_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for result in self.results:
            key = result.verdict.value
            counts[key] = counts.get(key, 0) + 1
        return counts
