"""The measurement process MP: keyed block traversal of prover memory.

This is the engine every mechanism in Section 3 shares.  One run of
:class:`MeasurementProcess`:

1. marks t_s and (optionally) enters an atomic section -- SMART's
   "disable interrupts first" (Section 3.1);
2. applies a :class:`~repro.ra.locking.LockingPolicy` start hook,
   charging simulated MPU-syscall time;
3. derives the traversal order -- sequential, or a secret permutation
   derived from the attestation key and nonce (SMARM, Section 3.2), so
   the verifier can recompute it but on-device malware cannot;
4. walks the blocks: snapshot, HMAC update, simulated hash time,
   per-block lock hooks, and -- when interruptible -- a progress
   notification to resident malware, which is exactly the adversary
   model of Section 3.2 ("it may be able to determine how far along
   the measurement is ... and thus deduce how many blocks have been
   measured");
5. marks t_e, finalizes the HMAC (outer hash), releases or schedules
   release of remaining locks, and produces a
   :class:`~repro.ra.report.MeasurementRecord`.

Malware boundary actions are instantaneous: a zero-cost,
perfectly-reactive adversary, i.e. the *worst case* for every
mechanism (any real malware is slower).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hmac import Hmac, hmac_digest
from repro.errors import ConfigurationError
from repro.ra.locking import LockingPolicy, NoLock
from repro.ra.report import MeasurementRecord, audit_hash
from repro.sim.device import Device
from repro.sim.process import Atomic, Compute, Process


@dataclass
class MeasurementConfig:
    """Static parameters of a measurement.

    ``order`` is ``"sequential"`` (SMART, locking mechanisms) or
    ``"shuffled"`` (SMARM).  ``atomic`` masks interrupts for the whole
    traversal.  ``locking`` defaults to No-Lock.  ``release_delay``
    sets t_r = t_e + delay for the extended policies (a
    verifier-triggered release behaves identically; we model the
    timer-based variant).  ``region`` restricts measurement to a named
    region (TyTAN's per-process measurement); ``None`` measures all of
    M.
    """

    algorithm: str = "blake2s"
    order: str = "sequential"
    atomic: bool = False
    locking: Optional[LockingPolicy] = None
    release_delay: float = 0.0
    region: Optional[str] = None
    priority: int = 50
    notify_malware: bool = True
    #: Section 2.3: contribute zeros for blocks in mutable regions so
    #: legitimate data writes do not read as compromise.  The verifier
    #: mirrors this via the record's ``normalized`` flag.
    normalize_mutable: bool = False
    #: Section 2.3's other option: measure everything as-is and attach
    #: a verbatim copy of the mutable (data) region to the record, so
    #: the verifier can reproduce the digest ("Prv can return the
    #: fixed-size measurement result ... accompanied by a copy of D.
    #: Clearly, this only makes sense if |D| is small").  Mutually
    #: exclusive with ``normalize_mutable``.
    attach_mutable: bool = False

    def __post_init__(self) -> None:
        if self.order not in ("sequential", "shuffled"):
            raise ConfigurationError(f"unknown order {self.order!r}")
        if self.release_delay < 0:
            raise ConfigurationError("release_delay must be >= 0")
        if self.normalize_mutable and self.attach_mutable:
            raise ConfigurationError(
                "normalize_mutable and attach_mutable are the two "
                "alternative treatments of D; pick one"
            )


def derive_order_seed(key: bytes, nonce: bytes, counter: int) -> bytes:
    """Key-derived seed for the secret traversal permutation.

    Malware cannot compute it (no key access); the verifier can.
    """
    material = b"smarm-order" + nonce + counter.to_bytes(8, "big")
    return hmac_digest(key, material, "sha256")[:16]


def _overridden(policy: LockingPolicy, hook: str) -> Optional[Callable]:
    """``policy``'s bound ``hook``, or ``None`` where its class keeps
    :class:`LockingPolicy`'s no-op (the traversal then skips the call)."""
    if getattr(type(policy), hook) is getattr(LockingPolicy, hook):
        return None
    return getattr(policy, hook)


def traversal_order(
    blocks: Sequence[int], order: str, order_seed: bytes
) -> List[int]:
    """The block visit order for a measurement (shared with the verifier)."""
    if order == "sequential":
        return list(blocks)
    return HmacDrbg(order_seed).shuffle(list(blocks))


def traversal_bytes(
    reference_blocks: Sequence[bytes],
    measured_blocks: Sequence[int],
    order: str,
    order_seed: bytes,
    normalized_blocks: Optional[frozenset] = None,
) -> bytes:
    """The bytes MP MACs after ``nonce || counter``: the blocks in
    visit order, zeros for ``normalized_blocks`` (Section 2.3)."""
    visit = traversal_order(measured_blocks, order, order_seed)
    if not normalized_blocks:
        return b"".join([reference_blocks[index] for index in visit])
    return b"".join([
        bytes(len(reference_blocks[index]))
        if index in normalized_blocks else reference_blocks[index]
        for index in visit
    ])


class MeasurementProcess:
    """One run of MP on a device.

    Spawn it on the device CPU::

        mp = MeasurementProcess(device, config, nonce=b"...", counter=1)
        proc = device.cpu.spawn("mp", mp.run, priority=config.priority)
        sim.run()
        record = mp.record

    The finished :class:`MeasurementRecord` is also the process result
    (``proc.result``), so callers can wait on ``proc.done_signal``.
    """

    def __init__(
        self,
        device: Device,
        config: MeasurementConfig,
        nonce: bytes,
        counter: int = 0,
        mechanism: str = "generic",
        ctx: Optional[Any] = None,
    ) -> None:
        self.device = device
        self.config = config
        self.nonce = nonce
        self.counter = counter
        self.mechanism = mechanism
        #: trace context of the exchange that requested this measurement
        self.ctx = ctx
        self.record: Optional[MeasurementRecord] = None
        self.policy = config.locking if config.locking is not None else NoLock()

    # -- helpers ---------------------------------------------------------

    def _measured_blocks(self) -> List[int]:
        if self.config.region is None:
            return list(range(self.device.block_count))
        region = self.device.memory.regions.get(self.config.region)
        if region is None:
            raise ConfigurationError(
                f"unknown region {self.config.region!r}"
            )
        return list(region.blocks())

    def _lock_cost(self, ops: int) -> float:
        return ops * self.device.timing.lock_op_cost

    # -- the process body ---------------------------------------------------

    def run(self, proc: Process):
        device = self.device
        config = self.config
        sim = device.sim
        timing = device.timing
        interruptible = not config.atomic

        blocks = self._measured_blocks()
        order_seed = b""
        if config.order == "shuffled":
            order_seed = derive_order_seed(
                device.attestation_key, self.nonce, self.counter
            )
        order = traversal_order(blocks, config.order, order_seed)

        t_start = sim.now
        preemptions_before = proc.preemption_count
        device.trace.record(
            sim.now, "mp.start", self.mechanism,
            nonce=self.nonce.hex()[:8], counter=self.counter,
        )

        # Spans and metrics are gated apart: a metrics-only bundle (the
        # fleet default) pays no per-block span work.
        obs = device.obs
        spans = obs.spans if obs.spans.enabled else None
        metrics = obs.metrics if obs.metrics.enabled else None
        if spans is not None:
            span_args = dict(
                mechanism=self.mechanism, order=config.order,
                atomic=config.atomic, blocks=len(order),
            )
            if self.ctx is not None:
                span_args["trace_id"] = self.ctx.trace_id
            measurement_span = spans.begin_span(
                "ra.measurement", category="ra.measurement", **span_args
            )
        # ``ra.{blocks,bytes}.measured`` read the device's live count
        # for this mechanism when sampled; the traversal bumps it.
        measured = device.blocks_measured
        mechanism = self.mechanism
        if mechanism not in measured:
            measured[mechanism] = 0
            sim_block_size = device.memory.sim_block_size
            obs.metrics.read_counter(
                "ra.blocks.measured", lambda: measured[mechanism],
                "attested blocks traversed", mechanism=mechanism,
            )
            obs.metrics.read_counter(
                "ra.bytes.measured",
                lambda: measured[mechanism] * sim_block_size,
                "simulated bytes hashed", mechanism=mechanism,
            )

        if config.atomic:
            yield Atomic(True)

        self.policy.reset(device, order)
        start_ops = self.policy.on_start()
        if start_ops:
            yield Compute(self._lock_cost(start_ops))

        if config.notify_malware:
            device.notify_measurement_started(
                self.mechanism, interruptible, config.region or ""
            )

        mac = Hmac(device.attestation_key, config.algorithm)
        mac.update(self.nonce + self.counter.to_bytes(8, "big"))

        block_times = [-1.0] * device.block_count
        block_hashes = [b""] * device.block_count
        # one command for every block: the CPU reads only its duration
        # and keeps no reference, as with a periodic job's task.compute
        block_compute = Compute(timing.hash_time(
            config.algorithm, device.memory.sim_block_size
        ))

        zero_block = b"\x00" * device.memory.block_size
        data_copy = []

        # Regions are static for the lifetime of a measurement, so the
        # per-block mutability answers are precomputed once by marking
        # each mutable region's range into a flat array -- no per-block
        # region-table scan on the traversal hot loop.  Blocks are only
        # marked when a mutable treatment is configured, so an unmarked
        # block always MACs its content as read.
        mutable_lookup = [False] * device.block_count
        if config.normalize_mutable or config.attach_mutable:
            for marked_region in device.memory.regions.values():
                if marked_region.mutable:
                    for marked_index in marked_region.blocks():
                        mutable_lookup[marked_index] = True

        def mutable_content(block_index: int, content: bytes) -> bytes:
            if config.normalize_mutable:
                return zero_block
            # Ship the measured data verbatim (Section 2.3's
            # "accompanied by a copy of D").
            data_copy.append((block_index, content))
            return content

        memory = device.memory
        mac_update = mac.update
        read_block = memory.read_block
        benign = memory.reference_blocks()
        audits = memory.reference_audits()
        before_block = _overridden(self.policy, "before_block")
        after_block = _overridden(self.policy, "after_block")
        region_name = config.region or ""
        notify = config.notify_malware
        total = len(order)
        for position, block_index in enumerate(order):
            if spans is not None:
                # Mirror the Section 3.2 adversary model in the trace:
                # when the order is a secret permutation the span says
                # how far along MP is, never which block it touched.
                block_args = {"position": position + 1}
                if config.order != "shuffled":
                    block_args["block"] = block_index
                block_span = spans.begin_span(
                    "ra.block", category="ra.measurement", **block_args
                )
            if before_block is not None:
                pre_ops = before_block(block_index)
                if pre_ops:
                    yield Compute(self._lock_cost(pre_ops))
            content = read_block(block_index)
            # Still-benign content (an identity check against the
            # interned reference in the common case) reuses the
            # precomputed reference audit; anything else is hashed.
            reference = benign[block_index]
            if content is reference or content == reference:
                audit = audits[block_index]
            else:
                audit = audit_hash(content)
            block_times[block_index] = sim.now
            block_hashes[block_index] = audit
            mac_update(
                mutable_content(block_index, content)
                if mutable_lookup[block_index] else content
            )
            yield block_compute
            if after_block is not None:
                post_ops = after_block(block_index)
                if post_ops:
                    yield Compute(self._lock_cost(post_ops))
            if spans is not None:
                spans.end_span(block_span)
            measured[mechanism] += 1
            if notify:
                device.notify_block_measured(
                    position + 1, total, interruptible, region_name
                )

        # Outer HMAC hash over the fixed-size inner digest.
        yield Compute(timing.hash_time(config.algorithm, mac.digest_size))
        digest = mac.digest()

        # t_e is stamped before the end-of-measurement unlocks so that
        # "released at t_e" means exactly that; the MPU syscall time is
        # then charged after the measurement proper.
        t_end = sim.now
        end_ops = self.policy.on_end()
        if end_ops:
            yield Compute(self._lock_cost(end_ops))

        t_release: Optional[float] = None
        if self.policy.holds_after_end:
            t_release = t_end + config.release_delay
            # The extended policies *deliberately* keep the lock past
            # the atomic section: t_r release is part of the mechanism
            # (All-Lock-Ext / Inc-Lock-Ext), not an interleaving bug,
            # and the timer only fires after Atomic(False) below.
            sim.schedule(config.release_delay, self._do_release)  # repro: allow[ra-atomic-gap]

        if config.atomic:
            yield Atomic(False)

        if config.notify_malware:
            device.notify_measurement_finished()

        self.record = MeasurementRecord(
            device=device.name,
            mechanism=self.mechanism,
            algorithm=config.algorithm,
            nonce=self.nonce,
            counter=self.counter,
            digest=digest,
            t_start=t_start,
            t_end=t_end,
            block_count=len(order),
            order_seed=order_seed,
            region=config.region or "",
            normalized=config.normalize_mutable,
            data_copy=tuple(sorted(data_copy)),
            t_release=t_release,
            interruptions=proc.preemption_count - preemptions_before,
            audit_block_times=tuple(block_times),
            audit_block_hashes=tuple(block_hashes),
        )
        device.trace.record(
            sim.now, "mp.end", self.mechanism,
            duration=round(t_end - t_start, 6),
            interruptions=self.record.interruptions,
        )
        if spans is not None:
            spans.end_span(
                measurement_span,
                interruptions=self.record.interruptions,
                digest=digest.hex()[:8],
            )
        if metrics is not None:
            metrics.histogram(
                "ra.measurement.duration",
                "wall-to-wall measurement window t_e - t_s (sim s)",
                mechanism=self.mechanism,
            ).observe(
                t_end - t_start,
                exemplar=(
                    self.ctx.trace_id if self.ctx is not None else None
                ),
            )
        return self.record

    def _do_release(self) -> None:
        """Release extended locks at t_r (timer- or verifier-driven)."""
        self.policy.on_release()
        self.device.trace.record(
            self.device.sim.now, "mp.release", self.mechanism
        )


def expected_digest(
    key: bytes,
    reference_blocks: Sequence[bytes],
    algorithm: str,
    nonce: bytes,
    counter: int,
    measured_blocks: Sequence[int],
    order: str,
    order_seed: bytes,
    normalized_blocks: Optional[frozenset] = None,
) -> bytes:
    """What the verifier expects MP to produce over a reference image.

    MP feeds the traversal one block per ``update``; one
    :func:`traversal_bytes` buffer gives the same streaming HMAC, so
    any divergence from the reference changes the result.
    """
    mac = Hmac(key, algorithm)
    mac.update(nonce + counter.to_bytes(8, "big"))
    mac.update(traversal_bytes(
        reference_blocks, measured_blocks, order, order_seed,
        normalized_blocks,
    ))
    return mac.digest()
