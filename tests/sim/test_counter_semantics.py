"""Counter semantics of the cache model and the predictor contract.

The stream-precompute fast path (:mod:`repro.sim.precompute`) does not
replay the tag arrays inside the timing loop — it reconstructs
``SimStats`` cache counters from precomputed totals — and it replays
the predictor backends outside it, reading only the sequence of
``probe`` results.  That is only sound under the documented semantics
of :mod:`repro.sim.cache` and :mod:`repro.sim.predictors`:

* ``accesses == hits + misses`` at all times, with ``probe``
  non-counting and non-allocating;
* ``access`` counts one hit or miss and allocates on a miss;
* ``write_access`` counts one hit or miss and never fills;
* a backend's ``probe`` only reads its state, and ``update`` advances
  it unconditionally per routed load, so the probe results depend only
  on the (PC, address[, demand-hit]) sequence of routed loads.

These tests pin the semantics at the unit level and then pin that the
precomputed streams report the seed oracle's access/hit counters on a
real trace (the oracle drives live cache and table models).
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.isa import parse_asm
from repro.sim._pipeline_reference import reference_run
from repro.sim.cache import DirectMappedCache
from repro.sim.executor import execute
from repro.sim.machine import (
    CacheConfig,
    EarlyGenConfig,
    MachineConfig,
    SelectionMode,
)
from repro.sim.pipeline import TimingSimulator
from repro.sim.predictors import AddressPredictionTable

from golden_cases import stats_to_record
from test_pipeline_parity import _random_asm


def _block(cache, n: int) -> int:
    """Address of the n-th block (so addresses conflict predictably)."""
    return n * cache.config.block_size


def test_direct_mapped_counter_identity():
    cache = DirectMappedCache(CacheConfig(size=256, block_size=64))
    assert cache.accesses == 0

    assert cache.access(_block(cache, 0)) is False      # cold miss, fills
    assert cache.access(_block(cache, 0)) is True       # hit
    assert cache.write_access(_block(cache, 1)) is False  # store miss ...
    assert cache.access(_block(cache, 1)) is False      # ... did not fill
    assert cache.write_access(_block(cache, 1)) is True   # read fill did
    assert (cache.hits, cache.misses) == (2, 3)
    assert cache.accesses == cache.hits + cache.misses == 5


def test_direct_mapped_probe_is_neutral():
    cache = DirectMappedCache(CacheConfig(size=256, block_size=64))
    assert cache.probe(_block(cache, 0)) is False
    assert (cache.hits, cache.misses, cache.accesses) == (0, 0, 0)
    assert cache.access(_block(cache, 0)) is False  # probe did not allocate
    before = (cache.hits, cache.misses)
    for _ in range(10):
        cache.probe(_block(cache, 0))
        cache.probe(_block(cache, 7))
    assert (cache.hits, cache.misses) == before
    assert cache.access(_block(cache, 0)) is True


def _fields(table, pc):
    entry = table.lookup(pc)[1]
    return (entry.tag, entry.pa, entry.st, entry.stc, entry.state)


def test_table_probe_is_a_pure_read():
    table = AddressPredictionTable(16)
    assert table.probe(0x40) is None           # cold: table miss
    assert table.lookup(0x40) == (0x40 >> 2 & 15, None)
    table.update(0x40, 1000)                   # Replace arc: functioning
    before = _fields(table, 0x40)
    for _ in range(3):
        assert table.probe(0x40) == 1000       # constant-address predict
    assert _fields(table, 0x40) == before
    table.update(0x40, 1000)                   # Correct arc
    # New_Stride drops to learning: tag hit but no prediction.
    table.update(0x40, 1064)
    assert table.lookup(0x40)[1] is not None
    assert table.probe(0x40) is None


def test_table_update_is_unconditional_per_routed_load():
    """The table evolves identically whether or not a prediction was
    dispatched — dispatch is a port question, not a table question."""
    dispatched = AddressPredictionTable(16)
    starved = AddressPredictionTable(16)
    addresses = [1000 + 8 * n for n in range(6)]
    for ca in addresses:
        dispatched.probe(0x40)
        dispatched.update(0x40, ca)
        starved.update(0x40, ca)  # no port: the probe never happened
    assert _fields(dispatched, 0x40) == _fields(starved, 0x40)


@pytest.mark.parametrize("mem_ports", (1, 2))
def test_both_paths_report_identical_cache_counters(mem_ports):
    """Regression: the precomputed streams and the seed oracle's live
    models must report identical ``dcache_hits``/``dcache_misses`` (and
    every other counter), with wrong-address pollution port-starved or
    not."""
    rng = random.Random(0xCAFE)
    trace = execute(parse_asm(_random_asm(rng))).trace
    machine = MachineConfig(
        mem_ports=mem_ports,
        dcache=CacheConfig(size=1024),
    ).with_earlygen(EarlyGenConfig(16, 0, SelectionMode.HARDWARE))

    live = reference_run(TimingSimulator(trace, machine))
    fast = TimingSimulator(trace, machine).run()

    assert fast.dcache_hits == live.dcache_hits
    assert fast.dcache_misses == live.dcache_misses
    assert fast.icache_misses == live.icache_misses
    assert stats_to_record(fast) == stats_to_record(live)


# ---------------------------------------------------------------------------
# Backend-generic contract suite: every predictor backend must satisfy
# the probe/update semantics the precompute fast path assumes (probe a
# pure read, update unconditional, probe results a function of the
# routed (PC, address[, demand-hit]) sequence alone).
# ---------------------------------------------------------------------------

from repro.sim.predictors import (  # noqa: E402
    backend_names,
    create as create_predictor,
    predictor_key,
)

BACKENDS = backend_names()


def _eg(backend: str, entries: int = 16) -> EarlyGenConfig:
    return EarlyGenConfig(entries, 0, SelectionMode.HARDWARE,
                          predictor=backend)


def _routed_loads(n: int = 300):
    """A deterministic (pc, ca, demand_hit) stream with mixed behavior:
    strided PCs, a constant-address PC, an erratic PC, and tag-conflict
    aliases, so every backend exercises predict/suppress/realloc arcs.
    On a 16-entry table 0x40, 0x44, 0x48 and 0x4C map to entries 0–3,
    except that every third 0x4C slot goes to 0x80, which shares entry
    0 with 0x40.
    """
    loads = []
    for i in range(n):
        k = i % 4
        if k == 0:
            pc, ca = 0x40, 1000 + (i // 4) * 8      # clean stride
        elif k == 1:
            pc, ca = 0x44, 5000                      # constant address
        elif k == 2:
            pc, ca = 0x48, (i * 2654435761) % 65536  # erratic
        elif i % 3:
            pc, ca = 0x4C, 3000                      # constant, own entry
        else:
            pc, ca = 0x40 + 16 * 4, 2000 + i        # aliases 0x40's entry
        loads.append((pc, ca, (i * 7) % 3 != 0))
    return loads


def _probe_results(p, loads, reprobe=False):
    """Probe then update *p* per routed load; with *reprobe* each load
    probes a second time, as a re-read of the same entry."""
    out = []
    for pc, ca, dh in loads:
        out.append(p.probe(pc))
        if reprobe:
            assert p.probe(pc) == out[-1]
        p.update(pc, ca, demand_hit=dh)
    return out


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_probe_is_a_pure_read(backend):
    """Probing a load twice returns the same result twice and leaves
    every later probe result unchanged."""
    loads = _routed_loads()
    once = _probe_results(create_predictor(_eg(backend)), loads)
    assert _probe_results(
        create_predictor(_eg(backend)), loads, reprobe=True) == once
    # The stream yields predictions and loads without one.
    assert any(r is None for r in once)
    assert any(r is not None for r in once)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_update_unconditional(backend):
    """Internal state must evolve identically whether or not a load's
    prediction was looked up: a backend that skips the probe of every
    other load (a starved port) still returns the same results on the
    loads it does probe."""
    dispatched = create_predictor(_eg(backend))
    starved = create_predictor(_eg(backend))
    for i, (pc, ca, dh) in enumerate(_routed_loads()):
        pred = dispatched.probe(pc)
        dispatched.update(pc, ca, demand_hit=dh)
        if i % 2:
            assert starved.probe(pc) == pred
        starved.update(pc, ca, demand_hit=dh)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_timing_independence(backend):
    """The probe results are a pure function of the (pc, ca, demand)
    sequence: two fresh instances replay it identically, and a
    different demand-hit sequence changes only a demand-trained
    backend."""
    loads = _routed_loads()
    first = _probe_results(create_predictor(_eg(backend)), loads)
    assert _probe_results(create_predictor(_eg(backend)), loads) == first
    flipped = [(pc, ca, not dh) for pc, ca, dh in loads]
    other = _probe_results(create_predictor(_eg(backend)), flipped)
    trains_on_demand = create_predictor(_eg(backend)).trains_on_demand
    assert (other != first) == trains_on_demand


def test_backend_names_are_the_three_fixed_backends():
    assert BACKENDS == ("cache-level", "perceptron", "stride")
    for backend in BACKENDS:
        assert create_predictor(_eg(backend)).name == backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_predictor_key_names_backend_and_capacity(backend):
    assert predictor_key(_eg(backend)) == (backend, 16)
    assert predictor_key(_eg(backend, entries=32)) == (backend, 32)
    assert predictor_key(EarlyGenConfig(0, 1, predictor=backend)) == (
        "none",)
    assert create_predictor(EarlyGenConfig(0, 1, predictor=backend)) is None


def test_unknown_backend_is_rejected():
    with pytest.raises(ValueError, match="unknown predictor backend"):
        EarlyGenConfig(64, 0, predictor="nope")


@pytest.mark.parametrize("backend", BACKENDS)
def test_both_paths_identical_counters_per_backend(backend):
    """The stream path must reproduce the seed oracle's live outcomes
    byte-identically for every backend, not just stride."""
    rng = random.Random(0xBEEF)
    trace = execute(parse_asm(_random_asm(rng))).trace
    machine = MachineConfig(mem_ports=1).with_earlygen(_eg(backend))
    live = reference_run(TimingSimulator(trace, machine))
    fast = TimingSimulator(trace, machine).run()
    assert stats_to_record(fast) == stats_to_record(live)


# ---------------------------------------------------------------------------
# Stride-table index/tag split: probe and update must agree through the
# single split method, for any PC the front end can produce.
# ---------------------------------------------------------------------------

ADVERSARIAL_PCS = (
    0x0,                      # index 0, tag 0
    0x40,                     # ordinary text address
    0x7FFF_FFFC,              # high bits all set (31-bit text)
    0xFFFF_FFFC,              # 32-bit wraparound territory
    0x1_0000_0040,            # beyond 32 bits entirely
    0x40_0000_0000 + 0x40,    # tag far wider than the index
    0x42,                     # non-word-aligned (low bits dropped)
    0x7FFF_FFFE,              # non-word-aligned + high bits
    (16 << 2),                # pc whose word index == table size
    (16 << 2) | 3,            # same, with alignment garbage
)


@pytest.mark.parametrize("pc", ADVERSARIAL_PCS)
def test_probe_and_update_agree_on_index_and_tag(pc):
    table = AddressPredictionTable(16)
    table.update(pc, 9000)          # allocate via update's split
    assert table.probe(pc) == 9000  # found via probe's split: same entry
    index, entry = table.lookup(pc)
    assert index == (pc >> 2) & 15
    assert entry is not None and entry.tag == pc >> 2 >> 4
    # Word-aligned aliases of the same word map to the same entry;
    # a PC one full word away must not.
    assert table.lookup(pc | 3) == (index, entry)
    assert table.lookup(pc + 4)[1] is None


def test_update_then_probe_roundtrip_over_dense_pcs():
    """No (index, tag) drift anywhere across a dense PC range covering
    several wraps of the index space."""
    table = AddressPredictionTable(16)
    for word in range(0, 16 * 5):
        pc = word << 2
        table.update(pc, 1234)
        assert table.probe(pc) == 1234
