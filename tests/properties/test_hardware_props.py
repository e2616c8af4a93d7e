"""Property tests for the hardware models: the Figure 3 state machine,
the caches, the BTB, the register caches, and the instruction encoding."""

from hypothesis import given, settings, strategies as st

from repro.isa import parse_asm
from repro.isa.encoding import decode, encode
from repro.isa.instruction import Imm, Instruction, Reg
from repro.isa.opcodes import LoadSpec, Opcode
from repro.sim.btb import BranchTargetBuffer
from repro.sim.cache import DirectMappedCache
from repro.sim.machine import CacheConfig
from repro.sim.addr_reg import RegisterCache
from repro.sim.predictors import (
    FUNCTIONING,
    LEARNING,
    TableEntry,
)
from repro.profiling import AddressProfile
from repro.sim.predictors.stride import unbounded_outcomes
from repro.sim.trace import Trace

_ONE_LOAD = parse_asm("main:\n    ld_n r1, r4(0)\n    halt\n")


# --- Figure 3 state machine ---------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=50))
def test_entry_invariants_hold_for_any_sequence(addresses):
    """STC mirrors the state bit, and a functioning entry always
    predicts PA."""
    entry = TableEntry(0, addresses[0])
    for addr in addresses[1:]:
        entry.update(addr)
        assert entry.state in (FUNCTIONING, LEARNING)
        assert (entry.stc == 1) == (entry.state == FUNCTIONING)
        if entry.state == FUNCTIONING:
            assert entry.predict() == entry.pa
        else:
            assert entry.predict() is None


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 1 << 16),
    st.integers(1, 512),
    st.integers(8, 40),
)
def test_constant_stride_converges(base, stride, length):
    """Any constant-stride stream is fully predicted after training."""
    entry = TableEntry(0, base)
    wrong = 0
    addr = base
    for _ in range(length):
        addr += stride
        if entry.predict() != addr:
            wrong += 1
        entry.update(addr)
    assert wrong <= 2  # New_Stride + one learning step


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 1 << 16),
    st.integers(1, 512),
    st.integers(1, 20),
    st.integers(8, 30),
)
def test_stride_change_relearns(base, stride_a, delta, length):
    """After a stride change the machine converges to the new stride."""
    stride_b = stride_a + delta
    entry = TableEntry(0, base)
    addr = base
    for _ in range(5):
        addr += stride_a
        entry.update(addr)
    wrong = 0
    for _ in range(length):
        addr += stride_b
        if entry.predict() != addr:
            wrong += 1
        entry.update(addr)
    assert wrong <= 3


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=2, max_size=60))
def test_unbounded_predictor_rate_bounds(addrs):
    trace = Trace(_ONE_LOAD, [0] * len(addrs), [a * 4 for a in addrs])
    u = AddressProfile(_ONE_LOAD, unbounded_outcomes(trace))
    assert 0.0 <= u.rate(0) <= 1.0
    counters = u.predictor.per_load[0]
    assert counters[0] == len(addrs)
    assert counters[1] <= counters[0]


# --- caches -------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=200))
def test_cache_counters_consistent(addresses):
    cache = DirectMappedCache(CacheConfig(size=1024, block_size=64))
    for addr in addresses:
        cache.access(addr)
    assert cache.hits + cache.misses == len(addresses)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=100))
def test_access_then_probe_hits(addresses):
    cache = DirectMappedCache(CacheConfig(size=1024, block_size=64))
    for addr in addresses:
        cache.access(addr)
        assert cache.probe(addr)  # just-filled block must be present


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1 << 14), min_size=1, max_size=100))
def test_bigger_cache_never_more_misses(addresses):
    small = DirectMappedCache(CacheConfig(size=512, block_size=64))
    big = DirectMappedCache(CacheConfig(size=4096, block_size=64))
    for addr in addresses:
        small.access(addr)
        big.access(addr)
    assert big.misses <= small.misses


# --- BTB ---------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 63), st.booleans()),
        min_size=1,
        max_size=200,
    )
)
def test_btb_matches_two_bit_counter_model(events):
    """Every prediction equals a per-branch 2-bit counter model: taken
    allocates at 2, each outcome moves the counter one step, and only
    a counter of 2 or 3 predicts taken (64 distinct PCs, no aliasing)."""
    btb = BranchTargetBuffer(64)
    model = {}
    for pc_index, taken in events:
        addr = 0x1000 + pc_index * 4
        counter = model.get(addr)
        expect = (True, 0x9000) if counter is not None and counter >= 2 \
            else (False, 0)
        assert btb.predict(addr) == expect
        btb.update(addr, taken, 0x9000 if taken else 0)
        if counter is not None:
            model[addr] = min(3, counter + 1) if taken else max(0, counter - 1)
        elif taken:
            model[addr] = 2


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6))
def test_btb_always_taken_converges(log_entries):
    btb = BranchTargetBuffer(1 << log_entries)
    addr = 0x4000
    wrong = 0
    for _ in range(50):
        ptaken, ptarget = btb.predict(addr)
        bad = not (ptaken and ptarget == 0x8000)
        wrong += bad
        btb.update(addr, True, 0x8000)
    assert wrong <= 1  # only the cold miss


# --- register cache -----------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 8),
    st.lists(st.integers(0, 15), min_size=1, max_size=100),
)
def test_register_cache_matches_lru_model(capacity, regs):
    cache = RegisterCache(capacity)
    model = []
    for reg in regs:
        hit = cache.probe(reg)
        assert hit == (reg in model)
        if reg in model:
            model.remove(reg)
            model.append(reg)  # refreshed by probe
        cache.insert(reg)
        if reg in model:
            model.remove(reg)
        model.append(reg)
        if len(model) > capacity:
            model.pop(0)
        assert len(cache) == len(model)


# --- encoding ------------------------------------------------------------------

_REG = st.builds(Reg, st.integers(0, 63), st.sampled_from(["int", "fp"]))
_IMM = st.builds(Imm, st.integers(-(1 << 31), (1 << 31) - 1))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(
        [Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.CMPLT]
    ),
    st.builds(Reg, st.integers(0, 63)),
    st.builds(Reg, st.integers(0, 63)),
    st.one_of(_REG, _IMM),
)
def test_alu_encoding_round_trip(op, dest, a, b):
    inst = Instruction(op, dest, [a, b])
    word, reloc = encode(inst)
    back = decode(word, reloc)
    assert back.opcode is op
    assert back.dest == dest
    assert back.srcs == (a, b)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([Opcode.LD, Opcode.LDB]),
    st.sampled_from(list(LoadSpec)),
    st.builds(Reg, st.integers(0, 63)),
    st.builds(Reg, st.integers(0, 63)),
    st.one_of(st.builds(Reg, st.integers(0, 63)), _IMM),
)
def test_load_encoding_round_trip(op, spec, dest, base, disp):
    inst = Instruction(op, dest, [base, disp], lspec=spec)
    word, reloc = encode(inst)
    back = decode(word, reloc)
    assert back.lspec is spec
    assert back.srcs == (base, disp)
