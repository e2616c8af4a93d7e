"""Direct-mapped cache model tests."""

import pytest

from repro.sim.cache import DirectMappedCache
from repro.sim.machine import CacheConfig


def small_cache():
    return DirectMappedCache(CacheConfig(size=1024, block_size=64))


def test_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(size=1000, block_size=64)
    with pytest.raises(ValueError):
        CacheConfig(size=192, block_size=64)  # 3 blocks
    # 1024 blocks of 48 bytes: a block shift would model 32-byte blocks.
    with pytest.raises(ValueError, match="power of two"):
        CacheConfig(size=48 * 1024, block_size=48)
    with pytest.raises(ValueError, match="power of two"):
        CacheConfig(size=0, block_size=0)


def test_cold_miss_then_hit():
    c = small_cache()
    assert not c.access(0x100)
    assert c.access(0x100)
    assert c.access(0x13F)  # same 64-byte block
    assert (c.hits, c.misses) == (2, 1)


def test_block_granularity():
    c = small_cache()
    c.access(0x0)
    assert c.access(0x3F)
    assert not c.access(0x40)  # next block


def test_conflict_eviction():
    c = small_cache()  # 16 blocks
    a = 0x0
    b = 16 * 64  # maps to the same index
    c.access(a)
    assert not c.access(b)
    assert not c.access(a)  # evicted


def test_probe_does_not_allocate():
    c = small_cache()
    assert not c.probe(0x200)
    assert not c.access(0x200)  # still a miss: probe didn't fill
    assert c.probe(0x200)
    hits_before = c.hits
    c.probe(0x200)  # probes don't count in stats
    assert c.hits == hits_before


def test_write_through_no_allocate():
    c = small_cache()
    assert not c.write_access(0x300)
    assert not c.access(0x300)  # store miss did not fill
    assert c.write_access(0x300)  # but the load fill serves stores


def test_distinct_indices_coexist():
    c = small_cache()
    for i in range(16):
        c.access(i * 64)
    assert all(c.probe(i * 64) for i in range(16))


def test_paper_default_geometry():
    c = DirectMappedCache(CacheConfig())
    assert c.config.size == 64 * 1024
    assert c.config.block_size == 64
    assert c.config.num_blocks == 1024
    assert c.config.miss_penalty == 12
