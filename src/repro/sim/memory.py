"""Block-structured attested memory.

The paper reasons about prover memory ``M`` of bit-size ``L`` measured
block by block (Sections 2.3, 3.1, 3.2).  We model ``M`` as an array of
fixed-size blocks of real bytes:

* measurement reads blocks and hashes their **actual contents** (the
  crypto is functional, not mocked -- a flipped byte changes the HMAC);
* the MPU locks at block granularity;
* malware occupies blocks.

Scale decoupling
----------------
Simulated timing and stored bytes are decoupled.  A block stores
``block_size`` real bytes but *accounts* for ``sim_block_size`` bytes
in the timing model, so a device can represent a 1 GiB prover (the
Section 2.5 fire-alarm scenario) while keeping only a few MiB of real
Python bytearrays.  Digests depend only on the real bytes; latency
depends only on the simulated size.  Both default to the same value.

Write log
---------
Every committed write appends its time, block, actor and the block's
frozen contents after the write to four parallel columns
(``write_times``, ``write_blocks``, ``write_actors``,
``write_contents``) and builds no object.  ``Memory.write_log`` is a
read-only view that builds a :class:`WriteRecord` per write on each
read, as :attr:`~repro.sim.trace.Trace.records` does; readers that
query often (the Figure 4 analyzer in :mod:`repro.core.consistency`,
:meth:`Memory.writes_in`) index the columns directly.  The write
itself hashes nothing; a record's ``fingerprint`` is computed when an
auditor reads it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import AddressError, ConfigurationError, MemoryFault
from repro.perf import reference_store as _reference_store


@dataclass(frozen=True)
class Region:
    """A named, contiguous range of blocks with a mutability attribute.

    Mirrors the paper's ``M = [C, D]`` decomposition: ``C`` immutable
    code known to the verifier, ``D`` volatile data (Section 2.3).
    """

    name: str
    start: int
    length: int
    mutable: bool = False
    description: str = ""

    @property
    def end(self) -> int:
        """One past the last block index."""
        return self.start + self.length

    def blocks(self) -> range:
        return range(self.start, self.end)

    def __contains__(self, block_index: int) -> bool:
        return self.start <= block_index < self.end


#: length of the truncated content fingerprint used for auditing
FINGERPRINT_LEN = 8


def content_fingerprint(content: bytes) -> bytes:
    """Truncated SHA-256 identifying block contents in audit records."""
    return hashlib.sha256(content).digest()[:FINGERPRINT_LEN]


@dataclass(slots=True)
class WriteRecord:
    """One committed write, for consistency auditing (Figure 4).

    ``content`` is the block's contents *after* the write -- the
    memory's own frozen ``bytes`` snapshot, shared rather than copied --
    which lets the consistency analyzer reconstruct any block's content
    identity at any past instant from the log alone.  ``fingerprint``
    is derived from it when read: a write costs no hash, and only an
    auditor pays for one.

    Built from the memory's write-log columns on each read of
    ``Memory.write_log``, so two reads give equal but distinct objects;
    treated as immutable by convention, like
    :class:`~repro.sim.trace.TraceRecord`.
    """

    time: float
    block: int
    actor: str
    content: bytes

    @property
    def fingerprint(self) -> bytes:
        """:func:`content_fingerprint` of ``content``."""
        return content_fingerprint(self.content)


class MemoryImage:
    """An immutable snapshot of all block contents.

    The verifier's reference state is a ``MemoryImage``; measurement
    verification compares digests of images.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Iterable[bytes]) -> None:
        self._blocks: Tuple[bytes, ...] = tuple(bytes(b) for b in blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, index: int) -> bytes:
        return self._blocks[index]

    def __iter__(self):
        return iter(self._blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryImage):
            return NotImplemented
        return self._blocks == other._blocks

    def __hash__(self) -> int:
        return hash(self._blocks)

    def replace(self, block_index: int, data: bytes) -> "MemoryImage":
        """Return a new image with one block substituted."""
        if not 0 <= block_index < len(self._blocks):
            raise AddressError(f"block {block_index} out of range")
        blocks = list(self._blocks)
        blocks[block_index] = bytes(data)
        return MemoryImage(blocks)

    def fingerprint(self) -> str:
        """Content-addressed identity (SHA-256 over all blocks), for tests."""
        h = hashlib.sha256()
        for block in self._blocks:
            h.update(block)
        return h.hexdigest()


class MemoryBlock:
    """One block of prover memory."""

    __slots__ = ("index", "data", "sim_size")

    def __init__(self, index: int, data: bytearray, sim_size: int) -> None:
        self.index = index
        self.data = data
        self.sim_size = sim_size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MemoryBlock {self.index} {len(self.data)}B>"


def benign_fill(block_index: int, block_size: int, seed: int) -> bytes:
    """Deterministic pseudo-random benign contents for one block.

    Both prover initialization and the verifier's reference database use
    this, modelling the verifier knowing the expected firmware image.

    Memoized through the process-wide
    :data:`repro.perf.reference_store.REFERENCE_STORE`: the per-byte
    PRNG loop runs once per ``(seed, block_size, block_index)`` per
    process, and every caller afterwards gets the same interned
    ``bytes`` object (output is byte-identical to the raw generator,
    :func:`repro.perf.reference_store.raw_benign_fill`).
    """
    return _reference_store.REFERENCE_STORE.block(
        block_index, block_size, seed
    )


class Memory:
    """The prover's attested memory: an array of equally sized blocks.

    Writes are checked against an optional MPU (wired in by
    :class:`repro.sim.device.Device`) and logged with their simulation
    time so consistency of a measurement window can be audited after
    the fact.
    """

    def __init__(
        self,
        block_count: int,
        block_size: int = 64,
        sim_block_size: Optional[int] = None,
        seed: int = 7,
    ) -> None:
        if block_count <= 0:
            raise ConfigurationError("block_count must be positive")
        if block_size <= 0:
            raise ConfigurationError("block_size must be positive")
        self.block_count = block_count
        self.block_size = block_size
        self.sim_block_size = (
            block_size if sim_block_size is None else sim_block_size
        )
        if self.sim_block_size < block_size:
            raise ConfigurationError(
                "sim_block_size must be >= real block_size"
            )
        self.seed = seed
        # The benign firmware image is interned process-wide: construction
        # copies the shared bytes into per-device mutable bytearrays, and
        # keeps the image view so benign_block/benign_image/dirty_blocks
        # and audit-hash lookups never regenerate a byte.
        self._reference = _reference_store.REFERENCE_STORE.image(
            seed, block_size
        )
        benign = self._reference.blocks(block_count)
        self.blocks: List[MemoryBlock] = [
            MemoryBlock(i, bytearray(benign[i]), self.sim_block_size)
            for i in range(block_count)
        ]
        #: per-block frozen content snapshot: ``read_block`` returns the
        #: cached immutable bytes instead of copying the backing
        #: bytearray on every access; any applied mutation (write /
        #: patch / load_image) drops the affected snapshot.  Pristine
        #: blocks start out aliasing the interned benign bytes, so a
        #: cold read is zero-copy *and* identity-comparable against the
        #: reference image.
        self._frozen: List[Optional[bytes]] = list(benign)
        self._benign_image: Optional[MemoryImage] = None
        self.regions: Dict[str, Region] = {}
        self.mpu = None  # wired by Device; writes read its lock_bits
        #: the write log, one entry per committed write in commit order
        #: (see ``write_log``); appended to only by ``write``/``patch``
        self.write_times: List[float] = []
        self.write_blocks: List[int] = []
        self.write_actors: List[str] = []
        self.write_contents: List[bytes] = []
        self.sim = None  # wired by Device; its now stamps the write log
        #: monotonic per-block content generation: bumped on every
        #: *applied* mutation (MPU-blocked writes leave it untouched),
        #: so a write committed iff its block's generation moved.
        self.generations: List[int] = [0] * block_count

    # -- geometry --------------------------------------------------------

    @property
    def total_size(self) -> int:
        """Real bytes stored."""
        return self.block_count * self.block_size

    @property
    def total_sim_size(self) -> int:
        """Simulated bytes, as seen by the timing model."""
        return self.block_count * self.sim_block_size

    def _check_index(self, block_index: int) -> None:
        if not 0 <= block_index < self.block_count:
            raise AddressError(
                f"block {block_index} out of range [0, {self.block_count})"
            )

    # -- regions -----------------------------------------------------------

    def add_region(self, region: Region) -> Region:
        """Register a named region; regions may not overlap."""
        if region.start < 0 or region.end > self.block_count:
            raise AddressError(
                f"region {region.name!r} [{region.start}, {region.end}) "
                f"outside memory of {self.block_count} blocks"
            )
        for existing in self.regions.values():
            if region.start < existing.end and existing.start < region.end:
                raise ConfigurationError(
                    f"region {region.name!r} overlaps {existing.name!r}"
                )
        self.regions[region.name] = region
        return region

    def region_of(self, block_index: int) -> Optional[Region]:
        """The region containing ``block_index``, if any."""
        for region in self.regions.values():
            if block_index in region:
                return region
        return None

    # -- access ------------------------------------------------------------

    def now(self) -> float:
        sim = self.sim
        return sim.now if sim is not None else 0.0

    def read_block(self, block_index: int) -> bytes:
        """Read a block's current contents (reads are never blocked).

        Zero-copy on repeat reads: the returned ``bytes`` snapshot is
        cached until the next applied mutation of the block, so hot
        measurement traversals stop paying a bytearray copy per access.
        """
        if not 0 <= block_index < self.block_count:
            self._check_index(block_index)
        frozen = self._frozen[block_index]
        if frozen is None:
            frozen = self._frozen[block_index] = bytes(
                self.blocks[block_index].data
            )
        return frozen

    def generation(self, block_index: int) -> int:
        """The block's current content generation (see ``generations``)."""
        self._check_index(block_index)
        return self.generations[block_index]

    def write(self, block_index: int, data: bytes, actor: str = "?") -> None:
        """Overwrite a whole block.

        Raises :class:`MemoryFault` if the MPU has the block locked and
        is configured to raise; the write is then *not* applied.  Only
        a locked block's write asks the MPU (it records the fault).
        """
        if not 0 <= block_index < self.block_count:
            self._check_index(block_index)
        if len(data) != self.block_size:
            raise AddressError(
                f"write of {len(data)} bytes to block of {self.block_size}"
            )
        mpu = self.mpu
        if mpu is not None and mpu.lock_bits[block_index]:
            if not mpu.check_write(block_index, actor):
                return
        self.blocks[block_index].data[:] = data
        content = self._frozen[block_index] = bytes(data)
        self.generations[block_index] += 1
        sim = self.sim
        self.write_times.append(sim.now if sim is not None else 0.0)
        self.write_blocks.append(block_index)
        self.write_actors.append(actor)
        self.write_contents.append(content)

    def try_write(self, block_index: int, data: bytes, actor: str = "?") -> bool:
        """Like :meth:`write` but returns ``False`` on an MPU fault."""
        try:
            self.write(block_index, data, actor)
        except MemoryFault:
            return False
        return True

    def patch(
        self, block_index: int, offset: int, data: bytes, actor: str = "?"
    ) -> None:
        """Overwrite part of a block (same MPU semantics as ``write``)."""
        self._check_index(block_index)
        if offset < 0 or offset + len(data) > self.block_size:
            raise AddressError("patch outside block bounds")
        mpu = self.mpu
        if mpu is not None and mpu.lock_bits[block_index]:
            if not mpu.check_write(block_index, actor):
                return
        self.blocks[block_index].data[offset : offset + len(data)] = data
        patched = bytes(self.blocks[block_index].data)
        self._frozen[block_index] = patched
        self.generations[block_index] += 1
        self.write_times.append(self.now())
        self.write_blocks.append(block_index)
        self.write_actors.append(actor)
        self.write_contents.append(patched)

    @property
    def write_log(self) -> List[WriteRecord]:
        """Every committed write, oldest first, built on each read."""
        return list(map(
            WriteRecord, self.write_times, self.write_blocks,
            self.write_actors, self.write_contents,
        ))

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> MemoryImage:
        """Immutable copy of the entire current contents."""
        return MemoryImage(block.data for block in self.blocks)

    def load_image(self, image: MemoryImage) -> None:
        """Restore memory to ``image``, bypassing the MPU (re-flash)."""
        if len(image) != self.block_count:
            raise ConfigurationError("image block count mismatch")
        for index, content in enumerate(image):
            if len(content) != self.block_size:
                raise ConfigurationError("image block size mismatch")
            self.blocks[index].data[:] = content
            self._frozen[index] = bytes(content)
            self.generations[index] += 1

    def benign_image(self) -> MemoryImage:
        """The pristine image this memory was initialized with.

        Built once from the interned reference blocks and memoized;
        repeat calls (verifier enrollment, QoA analysis, fleet runs)
        return the same shared image.
        """
        if self._benign_image is None:
            self._benign_image = MemoryImage(
                self._reference.blocks(self.block_count)
            )
        return self._benign_image

    def benign_block(self, block_index: int) -> bytes:
        """Pristine contents of one block (interned, shared)."""
        self._check_index(block_index)
        return self._reference.block(block_index)

    def reference_blocks(self) -> Tuple[bytes, ...]:
        """The interned benign image as one shared tuple.

        Every call returns the same tuple of the same interned ``bytes``
        objects (shared across all devices with this ``seed`` /
        ``block_size``); the measurement hot loop compares against it by
        identity to recognise still-benign content.
        """
        return self._reference.blocks(self.block_count)

    def reference_audits(self) -> Tuple[bytes, ...]:
        """Audit hashes of :meth:`reference_blocks`, one shared tuple.

        Entry ``i`` equals ``content_fingerprint(self.benign_block(i))``
        without re-hashing; the measurement process and the Figure 4
        analyzer read it for still-benign content.
        """
        return self._reference.audits(self.block_count)

    def dirty_blocks(self) -> List[int]:
        """Indices of blocks that differ from the benign image.

        Reuses the interned reference blocks; the common all-clean case
        is an O(1) identity check per pristine block (its frozen
        snapshot *is* the interned benign object).
        """
        benign = self._reference.blocks(self.block_count)
        read = self.read_block
        return [
            i for i in range(self.block_count) if read(i) != benign[i]
        ]

    def writes_in(self, t_start: float, t_end: float) -> List[WriteRecord]:
        """All committed writes with ``t_start <= time <= t_end``."""
        return [
            WriteRecord(*row)
            for row in zip(
                self.write_times, self.write_blocks,
                self.write_actors, self.write_contents,
            )
            if t_start <= row[0] <= t_end
        ]
