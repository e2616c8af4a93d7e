"""Cache models (tags only — data lives in the flat memory).

The paper's caches are 64 KB direct-mapped with 64-byte blocks; the data
cache is write-through with no write-allocate: stores update memory
through a write buffer and never stall the pipeline, and store misses do
not allocate a block.

Counter semantics — a contract relied on by the stream-precompute fast
path (:mod:`repro.sim.precompute`), which rebuilds these counters from
totals instead of replaying the tag array, and pinned by
``tests/sim/test_counter_semantics.py``:

* ``accesses == hits + misses`` at all times;
* ``probe`` never counts and never allocates, so interleaving probes
  does not perturb the statistics or the fill state;
* ``access`` counts exactly one hit or miss and allocates on a miss;
* ``write_access`` counts exactly one hit or miss and never fills
  (write-through, no-allocate).
"""

from __future__ import annotations

from repro.sim.machine import CacheConfig


class DirectMappedCache:
    """Tag array of a direct-mapped cache."""

    __slots__ = ("config", "_index_mask", "_block_shift", "_tag_shift",
                 "_tags", "hits", "misses")

    def __init__(self, config: CacheConfig):
        self.config = config
        self._block_shift = config.block_shift
        self._index_mask = config.index_mask
        self._tag_shift = config.tag_shift
        self._tags: list = [None] * config.num_blocks
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        self._tags = [None] * self.config.num_blocks
        self.hits = 0
        self.misses = 0

    def _split(self, addr: int) -> tuple[int, int]:
        block = addr >> self._block_shift
        return block & self._index_mask, block >> self._tag_shift

    def probe(self, addr: int) -> bool:
        """Non-allocating lookup; does not count in hit/miss statistics."""
        block = addr >> self._block_shift
        return self._tags[block & self._index_mask] == block >> self._tag_shift

    def access(self, addr: int) -> bool:
        """Read access: returns hit, allocates the block on a miss."""
        block = addr >> self._block_shift
        index = block & self._index_mask
        tag = block >> self._tag_shift
        if self._tags[index] == tag:
            self.hits += 1
            return True
        self._tags[index] = tag
        self.misses += 1
        return False

    def write_access(self, addr: int) -> bool:
        """Write-through, no-allocate store access: never fills."""
        block = addr >> self._block_shift
        index = block & self._index_mask
        tag = block >> self._tag_shift
        if self._tags[index] == tag:
            self.hits += 1
            return True
        self.misses += 1
        return False

    @property
    def accesses(self) -> int:
        return self.hits + self.misses
