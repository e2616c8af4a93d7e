"""Counter-semantics contract of the cache and prediction-table models.

The stream-precompute fast path (:mod:`repro.sim.precompute`) does not
replay the tag arrays inside the timing loop — it reconstructs
``SimStats`` cache counters from precomputed totals.  That is only
sound under the documented counter semantics of
:mod:`repro.sim.cache` and :mod:`repro.sim.predictors.stride`:

* ``accesses == hits + misses`` at all times, with ``probe``
  non-counting and non-allocating;
* ``access`` counts one hit or miss and allocates on a miss;
* ``write_access`` counts one hit or miss and never fills;
* every table ``probe`` counts one probe and at most one of
  prediction/suppressed; ``update`` advances the state machine
  unconditionally per routed load, independent of dispatch timing.

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


def test_table_probe_counts_exactly_once():
    table = AddressPredictionTable(16)
    assert table.probe(0x40) is None           # cold: probe, no tag hit
    assert (table.probes, table.tag_hits) == (1, 0)
    table.update(0x40, 1000)                   # Replace arc: functioning
    assert table.probe(0x40) == 1000           # constant-address predict
    assert (table.probes, table.tag_hits, table.predictions) == (2, 1, 1)
    table.update(0x40, 1000, predicted=1000)
    assert table.correct == 1
    # New_Stride drops to learning: tag hit but no prediction.
    table.update(0x40, 1064, predicted=table.probe(0x40))
    assert table.probe(0x40) is None
    assert table.tag_hits == table.probes - 1  # only the cold probe missed
    assert table.predictions + table.suppressed < table.probes


def test_table_update_is_unconditional_per_routed_load():
    """The table evolves identically whether or not a prediction was
    dispatched — dispatch is a port question, not a table question."""
    dispatched = AddressPredictionTable(16)
    starved = AddressPredictionTable(16)
    addresses = [1000 + 8 * n for n in range(6)]
    for ca in addresses:
        pred = dispatched.probe(0x40)
        dispatched.update(0x40, ca, predicted=pred)
        starved.probe(0x40)
        starved.update(0x40, ca, predicted=None)  # probe result unused
    assert dispatched.probes == starved.probes
    assert dispatched.tag_hits == starved.tag_hits
    assert dispatched.predictions == starved.predictions
    entry_a = dispatched._table[dispatched._split(0x40)[0]]
    entry_b = starved._table[starved._split(0x40)[0]]
    assert (entry_a.pa, entry_a.st, entry_a.stc, entry_a.state) == (
        entry_b.pa, entry_b.st, entry_b.stc, entry_b.state
    )
    # Only the statistics-side `correct` counter may differ.
    assert starved.correct == 0


def test_suppressed_predictions_still_count_probes():
    table = AddressPredictionTable(16, confidence_bits=2)
    table.update(0x40, 1000)
    # Drive the counter below the midpoint with mispredictions.
    for ca in (2000, 3000, 5000, 7000, 11000):
        table.probe(0x40)
        table.update(0x40, ca)
    before = table.probes
    result = table.probe(0x40)
    assert table.probes == before + 1
    assert result is None
    assert table.predictions + table.suppressed + (
        table.probes - table.tag_hits
    ) <= table.probes


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
# Backend-generic contract suite: every predictor backend
# must satisfy the same probe/update semantics the precompute fast path
# assumes (one probe per routed load, at most one of
# prediction/suppressed, update unconditional, timing-independence).
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
    """
    loads = []
    for i in range(n):
        k = i % 4
        if k == 0:
            pc, ca = 0x40, 1000 + (i // 4) * 8      # clean stride
        elif k == 1:
            pc, ca = 0x80, 5000                      # constant address
        elif k == 2:
            pc, ca = 0xC0, (i * 2654435761) % 65536  # erratic
        else:
            pc, ca = 0x40 + 16 * 64 * 4, 2000 + i    # aliases 0x40's set
        loads.append((pc, ca, (i * 7) % 3 != 0))
    return loads


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_probe_counts_exactly_once(backend):
    p = create_predictor(_eg(backend))
    for pc, ca, dh in _routed_loads():
        before = (p.probes, p.predictions, p.suppressed)
        predicted = p.probe(pc)
        assert p.probes == before[0] + 1
        d_pred = p.predictions - before[1]
        d_supp = p.suppressed - before[2]
        assert d_pred >= 0 and d_supp >= 0
        assert d_pred + d_supp <= 1
        # A probe that returned an address counted it as a prediction.
        assert (d_pred == 1) == (predicted is not None)
        p.update(pc, ca, predicted, demand_hit=dh)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_update_unconditional(backend):
    """Internal state must evolve identically whether or not the
    prediction dispatched (``predicted=None`` models a starved port);
    only the statistics-side ``correct`` counter may differ."""
    dispatched = create_predictor(_eg(backend))
    starved = create_predictor(_eg(backend))
    outputs_d, outputs_s = [], []
    for pc, ca, dh in _routed_loads():
        pred_d = dispatched.probe(pc)
        outputs_d.append(pred_d)
        dispatched.update(pc, ca, pred_d, demand_hit=dh)
        outputs_s.append(starved.probe(pc))
        starved.update(pc, ca, None, demand_hit=dh)
    assert outputs_d == outputs_s
    assert dispatched.probes == starved.probes
    assert dispatched.predictions == starved.predictions
    assert dispatched.suppressed == starved.suppressed
    assert starved.correct == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_timing_independence_and_reset(backend):
    """The probe/update outcome stream is a pure function of the
    (pc, ca, demand) sequence: a fresh instance and a reset instance
    replay it identically."""
    loads = _routed_loads()

    def run(p):
        out = []
        for pc, ca, dh in loads:
            pred = p.probe(pc)
            out.append(pred)
            p.update(pc, ca, pred, demand_hit=dh)
        return out

    fresh = create_predictor(_eg(backend))
    first = run(fresh)
    reused = create_predictor(_eg(backend))
    run(reused)
    reused.reset()
    assert run(reused) == first
    assert (reused.probes, reused.predictions, reused.suppressed) == (
        fresh.probes, fresh.predictions, fresh.suppressed
    )


def test_backend_names_are_the_three_fixed_backends():
    assert BACKENDS == ("cache-level", "perceptron", "stride")
    for backend in BACKENDS:
        assert create_predictor(_eg(backend)).name == backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_predictor_key_names_backend_capacity_and_confidence(backend):
    assert predictor_key(_eg(backend)) == (backend, 16, 0)
    assert predictor_key(_eg(backend, entries=32)) == (backend, 32, 0)
    assert predictor_key(EarlyGenConfig(0, 1, predictor=backend)) == (
        "none",)
    assert create_predictor(EarlyGenConfig(0, 1, predictor=backend)) is None


def test_stride_key_carries_confidence_bits():
    eg = EarlyGenConfig(16, 0, table_confidence_bits=2)
    assert predictor_key(eg) == ("stride", 16, 2)
    assert create_predictor(eg).confidence_bits == 2


def test_unknown_backend_is_rejected():
    with pytest.raises(ValueError, match="unknown predictor backend"):
        EarlyGenConfig(64, 0, predictor="nope")


@pytest.mark.parametrize("backend", ["perceptron", "cache-level"])
def test_gated_backends_reject_confidence_bits(backend):
    with pytest.raises(ValueError, match="table_confidence_bits must be 0"):
        EarlyGenConfig(64, 0, predictor=backend, table_confidence_bits=2)


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
# single _split helper, for any PC the front end can produce.
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
    assert table.tag_hits == 1
    index, tag = table._split(pc)
    entry = table._table[index]
    assert entry is not None and entry.tag == tag
    # Word-aligned aliases of the same word map to the same entry;
    # a PC one full word away must not.
    assert table._split(pc | 3) == (index, tag)
    assert table._split(pc + 4) != (index, tag)


def test_update_then_probe_roundtrip_over_dense_pcs():
    """No (index, tag) drift anywhere across a dense PC range covering
    several wraps of the index space."""
    table = AddressPredictionTable(16)
    for word in range(0, 16 * 5):
        pc = word << 2
        table.update(pc, 1234)
        assert table.probe(pc) == 1234


# ---------------------------------------------------------------------------
# Confidence-counter boundary semantics at 1 and 8 bits (documented in
# AddressPredictionTable's docstring: init = midpoint + 1, suppression
# at or below the midpoint).
# ---------------------------------------------------------------------------

def test_confidence_boundary_one_bit():
    table = AddressPredictionTable(16, confidence_bits=1)
    assert table._conf_max == 1 and table._conf_init == 1
    table.update(0x40, 1000)             # fresh allocation: counter = 1
    # init == max at one bit: a fresh entry is trusted immediately.
    assert table.probe(0x40) == 1000
    assert table.suppressed == 0
    # One miss (functioning, PA != CA) decrements to 0 ...
    table.update(0x40, 2000)
    # ... the entry drops to learning; re-verify the stride first:
    table.update(0x40, 3000)             # Verified_Stride (st=1000)
    assert table._conf[table._split(0x40)[0]] == 0
    # ... and now the functioning entry is suppressed at counter 0.
    assert table.probe(0x40) is None
    assert table.suppressed == 1
    # One verified prediction re-arms it.
    table.update(0x40, 4000)             # PA == CA: counter back to 1
    assert table.probe(0x40) == 5000
    assert table.suppressed == 1


def test_confidence_boundary_eight_bits():
    table = AddressPredictionTable(16, confidence_bits=8)
    assert table._conf_max == 255 and table._conf_init == 128
    table.update(0x40, 1000)             # counter = 128: weakly trusted
    assert table.probe(0x40) == 1000
    assert table.suppressed == 0
    # A single miss crosses the boundary: 127 <= midpoint suppresses.
    table.update(0x40, 2000)
    table.update(0x40, 3000)             # re-verify (functioning again)
    assert table._conf[table._split(0x40)[0]] == 127
    assert table.probe(0x40) is None
    assert table.suppressed == 1
    # A single hit re-crosses it: 128 > midpoint predicts again.
    table.update(0x40, 4000)
    assert table.probe(0x40) == 5000
    # Saturation: long runs of hits never exceed _conf_max.
    for n in range(300):
        table.update(0x40, 5000 + n * 1000, predicted=table.probe(0x40))
    assert table._conf[table._split(0x40)[0]] <= 255
