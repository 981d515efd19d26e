"""Process-wide interned benign firmware: the cold-path ReferenceStore.

Every simulated prover boots from the same deterministic benign image
(:func:`repro.sim.memory.benign_fill`), and the verifier's reference
database is that image again.  Before this store existed, *each*
``Memory`` construction re-ran the per-byte PRNG loop for every block,
every cold measurement re-hashed those same bytes for its audit
fingerprints, and a thousand-prover fleet campaign paid all of it a
thousand times over.

:class:`ReferenceStore` interns benign block contents and their audit
hashes once per process, keyed by ``(seed, block_size, block_index)``:

* :class:`repro.sim.memory.Memory` construction copies interned bytes
  into its mutable blocks instead of regenerating them, and hands out
  the interned objects themselves for ``benign_block`` /
  ``benign_image`` / ``dirty_blocks``;
* the measurement process recognises still-benign content (an O(1)
  identity check against the interned block in the common case) and
  reuses the precomputed audit hash instead of re-hashing;
* :meth:`repro.ra.verifier.Verifier.enroll` reference images share the
  interned blocks structurally (``bytes(b)`` of an exact ``bytes``
  returns the same object), so N identical enrolled provers hold one
  firmware image, not N.

Interning is *pure memoization* of already-deterministic functions, so
every byte handed out is identical to what the uncached code produced
-- pinned by tests against the raw generators.

Bounding
--------
Fleet campaigns sweep device seeds, so the store is a bounded LRU at
*image* granularity: up to ``capacity`` distinct ``(seed, block_size)``
images stay interned; evicting one drops all its blocks/audits at
once.  Live ``Memory`` objects keep a direct reference to their image
view, so eviction only ever frees images no device is using.
"""

from __future__ import annotations

import hashlib
import random
from collections import OrderedDict
from typing import Dict, Tuple

from repro.errors import ConfigurationError

#: truncated audit-fingerprint length; must match
#: :data:`repro.sim.memory.FINGERPRINT_LEN` (the import direction --
#: ``sim.memory`` imports this module -- forbids sharing the constant;
#: the equality is pinned by ``tests/test_reference_store.py``)
AUDIT_LEN = 8

#: default maximum number of distinct (seed, block_size) images interned
DEFAULT_IMAGE_CAPACITY = 64


def raw_benign_fill(block_index: int, block_size: int, seed: int) -> bytes:
    """The uncached benign-content generator.

    This is the seed repo's ``benign_fill`` byte-for-byte: one
    ``random.Random`` per block, one ``getrandbits(8)`` per byte.  The
    public :func:`repro.sim.memory.benign_fill` memoizes it through the
    process-wide store; this raw form stays importable so tests can pin
    the memoized output against it.
    """
    rng = random.Random((seed << 20) ^ block_index)
    return bytes(rng.getrandbits(8) for _ in range(block_size))


class ReferenceImage:
    """One interned benign image: lazy per-block contents and audits.

    Handed out by :meth:`ReferenceStore.image`; ``Memory`` keeps its
    view for the device's lifetime so per-block access is two dict
    lookups with no LRU traffic.
    """

    __slots__ = ("seed", "block_size", "_blocks", "_audits", "_tuples")

    def __init__(self, seed: int, block_size: int) -> None:
        self.seed = seed
        self.block_size = block_size
        self._blocks: Dict[int, bytes] = {}
        self._audits: Dict[int, bytes] = {}
        #: memoized per-block_count prefix tuples for image construction
        self._tuples: Dict[int, Tuple[bytes, ...]] = {}

    def block(self, block_index: int) -> bytes:
        """Interned benign contents of one block (generated on first use)."""
        content = self._blocks.get(block_index)
        if content is None:
            content = self._blocks[block_index] = raw_benign_fill(
                block_index, self.block_size, self.seed
            )
        return content

    def audit(self, block_index: int) -> bytes:
        """Precomputed audit hash of the block's benign contents.

        Equals ``repro.sim.memory.content_fingerprint(self.block(i))``;
        computed once per process instead of once per device traversal.
        """
        audit = self._audits.get(block_index)
        if audit is None:
            audit = self._audits[block_index] = hashlib.sha256(
                self.block(block_index)
            ).digest()[:AUDIT_LEN]
        return audit

    def blocks(self, block_count: int) -> Tuple[bytes, ...]:
        """The first ``block_count`` interned blocks as one shared tuple."""
        cached = self._tuples.get(block_count)
        if cached is None:
            block = self.block
            cached = self._tuples[block_count] = tuple(
                block(index) for index in range(block_count)
            )
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ReferenceImage seed={self.seed} "
            f"block_size={self.block_size} blocks={len(self._blocks)}>"
        )


class ReferenceStore:
    """Bounded process-wide LRU of :class:`ReferenceImage` objects."""

    __slots__ = ("capacity", "evictions", "_images")

    def __init__(self, capacity: int = DEFAULT_IMAGE_CAPACITY) -> None:
        if capacity <= 0:
            raise ConfigurationError("image capacity must be positive")
        self.capacity = capacity
        self.evictions = 0
        self._images: "OrderedDict[Tuple[int, int], ReferenceImage]" = (
            OrderedDict()
        )

    def image(self, seed: int, block_size: int) -> ReferenceImage:
        """The interned image view for ``(seed, block_size)``."""
        if block_size <= 0:
            raise ConfigurationError("block_size must be positive")
        key = (seed, block_size)
        images = self._images
        image = images.get(key)
        if image is None:
            image = images[key] = ReferenceImage(seed, block_size)
            if len(images) > self.capacity:
                images.popitem(last=False)
                self.evictions += 1
        else:
            images.move_to_end(key)
        return image

    def block(self, block_index: int, block_size: int, seed: int) -> bytes:
        """Interned benign contents (``benign_fill`` argument order)."""
        return self.image(seed, block_size).block(block_index)

    def audit(self, block_index: int, block_size: int, seed: int) -> bytes:
        """Interned audit hash (``benign_fill`` argument order)."""
        return self.image(seed, block_size).audit(block_index)

    def clear(self) -> int:
        """Drop every interned image (test isolation).  Returns count."""
        dropped = len(self._images)
        self._images.clear()
        return dropped

    def stats(self) -> Dict[str, float]:
        """Counters for telemetry / bench output."""
        return {
            "images": len(self._images),
            "capacity": self.capacity,
            "evictions": self.evictions,
            "blocks": sum(
                len(image._blocks) for image in self._images.values()
            ),
            "audits": sum(
                len(image._audits) for image in self._images.values()
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ReferenceStore {len(self._images)}/{self.capacity} images>"
        )


#: the process-wide store every Memory/measurement consults; tests that
#: need isolation swap or clear it explicitly
REFERENCE_STORE = ReferenceStore()


def interned_image(
    block_count: int, block_size: int, seed: int
) -> Tuple[bytes, ...]:
    """Shared tuple of the first ``block_count`` benign blocks."""
    return REFERENCE_STORE.image(seed, block_size).blocks(block_count)


def set_reference_store(store: ReferenceStore) -> ReferenceStore:
    """Swap the process-wide store (tests); returns the previous one."""
    global REFERENCE_STORE
    previous = REFERENCE_STORE
    REFERENCE_STORE = store
    return previous
