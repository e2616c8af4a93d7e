"""The prediction streams built from trace-fixed parts equal a plain walk.

:meth:`TracePrecompute.dstream` copies the codes of PCs that own their
table entry from the trace's unbounded Figure 3 pass, replays only the
other probed loads through the backend, and applies the wrong-address
fills to the demand stream as a sparse patch.  The reference below does
none of that: it drives the backend and a d-cache once per memory
operation, in trace order, as the seed oracle's pipeline does.  Every
field of the stream must match it under random routings, random 1/3
fill guesses, partly probed PCs, every table size of the harness, and
the non-stride backends.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.harness.experiments import ExperimentContext
from repro.isa import parse_asm
from repro.sim import predictors
from repro.sim.cache import DirectMappedCache
from repro.sim.executor import execute
from repro.sim.machine import (
    CacheConfig,
    EarlyGenConfig,
    MachineConfig,
    SelectionMode,
)
from repro.sim.precompute import dstream_counts, get_precompute
from repro.sim.trace import Trace

from test_pipeline_parity import _random_asm

SMALL_DCACHE = MachineConfig(dcache=CacheConfig(size=512, block_size=16))


def reference_dstream(trace, eg, route, dcache):
    """``(codes, demand, store, pollution misses)``, one memory op at a
    time: a probed load (route 1 or 3) probes the backend, fills a
    wrong predicted block under route 1, then makes its demand access
    and trains the backend; a store counts and never fills."""
    flat = trace.program.flat
    table = predictors.create(eg)
    cache = DirectMappedCache(dcache)
    codes = bytearray()
    dmiss = store_miss = poll_miss = 0
    for uid, ea in zip(trace.uids, trace.eas):
        if ea < 0:
            continue
        inst = flat[uid]
        if not inst.is_load:
            store_miss += not cache.write_access(ea)
            continue
        r = route[len(codes)]
        code = 0
        if r in (1, 3):
            predicted = table.probe(inst.addr)
            if predicted is not None:
                code = 6 if predicted == ea else 2
                if code == 2 and r == 1 and not cache.access(predicted):
                    poll_miss += 1
        if cache.access(ea):
            code |= 1
        else:
            dmiss += 1
        if r in (1, 3):
            table.update(inst.addr, ea,
                         bool(code & 1) if table.trains_on_demand else None)
        codes.append(code)
    return bytes(codes), dmiss, store_miss, poll_miss


def _assert_streams_match(trace, machine, eg, route):
    pre = get_precompute(trace, machine)
    got = pre.dstream(eg, route)
    want = reference_dstream(trace, eg, route, machine.dcache)
    assert got[0] == want[0], "codes"
    assert got[1] == want[1], "demand misses"
    assert got[2] == want[2], "store misses"
    assert got[3] == want[3], "pollution misses"


def _static_route(pre, rng):
    """A random route per static load (0, 1 or 2), as compiler
    selection makes them."""
    scheme = bytes(rng.choice((0, 1, 1, 2))
                   for _ in pre.static_load_uids)
    return pre._per_load(scheme)


def _guess(route, rng):
    """Each probed load's fill guess redrawn: route 1 or 3."""
    return bytes(rng.choice((1, 3)) if r in (1, 3) else r for r in route)


def _dual(pre, rng):
    """A hardware dual-path route: some PCs prediction-routed at only
    some of their instances."""
    mixed = {u for u in pre.static_load_uids if rng.random() < 0.5}
    return bytes(
        rng.choice((1, 2, 3)) if u in mixed else rng.choice((1, 2))
        for u in pre.dyn_load_uids
    )


@pytest.fixture(scope="module")
def traces():
    ctx = ExperimentContext(scale=0.02)
    found = [ctx.run(name).trace for name in ("022.li", "130.li", "085.cc1")]
    rng = random.Random(35)
    found += [execute(parse_asm(_random_asm(rng))).trace for _ in range(3)]
    return found


@pytest.mark.parametrize("machine", [MachineConfig(), SMALL_DCACHE],
                         ids=["64k", "512b"])
@pytest.mark.parametrize("entries", [4, 16, 64, 128, 256])
def test_stride_streams_under_random_routes_and_guesses(
        traces, machine, entries):
    rng = random.Random(entries)
    eg = EarlyGenConfig(entries, 0, SelectionMode.COMPILER)
    replayed = dstream_counts()[2]
    for trace in traces:
        pre = get_precompute(trace, machine)
        for _ in range(3):
            route = _static_route(pre, rng)
            _assert_streams_match(trace, machine, eg, route)
            # Same probed loads, other fills: reuses the prediction part.
            _assert_streams_match(trace, machine, eg, _guess(route, rng))
    if entries == 4:
        # PCs alias on 4 entries, so stride replays loads through the
        # backend as well as copying the unbounded pass.
        assert dstream_counts()[2] > replayed


@pytest.mark.parametrize("entries", [4, 16, 64, 256])
def test_partly_probed_pcs_replay(traces, entries):
    rng = random.Random(100 + entries)
    eg = EarlyGenConfig(entries, 4, SelectionMode.HARDWARE)
    for machine in (MachineConfig(), SMALL_DCACHE):
        for trace in traces:
            pre = get_precompute(trace, machine)
            _assert_streams_match(trace, machine, eg, _dual(pre, rng))


@pytest.mark.parametrize("backend", ["perceptron", "cache-level"])
@pytest.mark.parametrize("entries", [4, 64, 256])
def test_other_backends_replay_every_probed_load(traces, backend, entries):
    rng = random.Random(entries)
    eg = EarlyGenConfig(entries, 0, SelectionMode.COMPILER,
                        predictor=backend)
    for machine in (MachineConfig(), SMALL_DCACHE):
        for trace in traces:
            pre = get_precompute(trace, machine)
            route = _static_route(pre, rng)
            _assert_streams_match(trace, machine, eg, route)
            _assert_streams_match(trace, machine, eg, _guess(route, rng))
            _assert_streams_match(trace, machine, eg, _dual(pre, rng))


def _wide_trace():
    """300 static loads, more than a byte can number."""
    loads = "\n".join(
        f"    ld_p r{1 + i % 3}, r4({4 * (i % 64)})" for i in range(300)
    )
    return execute(parse_asm(f"""
.data arr 1024
main:
    lea r4, arr
    mov r6, 0
loop:
{loads}
    add r4, r4, 8
    add r6, r6, 1
    blt r6, 3, loop
    halt
""")).trace


def test_routes_spread_each_static_byte_over_its_loads(traces):
    rng = random.Random(7)
    for trace in [traces[0], _wide_trace()]:
        pre = get_precompute(trace, MachineConfig())
        scheme = bytes(rng.randrange(4) for _ in pre.static_load_uids)
        index = {u: j for j, u in enumerate(pre.static_load_uids)}
        assert pre._per_load(scheme) == bytes(
            scheme[index[u]] for u in pre.dyn_load_uids
        )


def test_more_static_loads_than_a_byte_holds():
    """Past 256 static loads the per-load spreading takes its general
    path; the streams still match."""
    trace = _wide_trace()
    rng = random.Random(300)
    pre = get_precompute(trace, SMALL_DCACHE)
    assert pre.lsidx is None
    for entries in (16, 256):
        eg = EarlyGenConfig(entries, 0, SelectionMode.COMPILER)
        route = _static_route(pre, rng)
        _assert_streams_match(trace, SMALL_DCACHE, eg, route)
        _assert_streams_match(trace, SMALL_DCACHE, eg, _dual(pre, rng))


# ---------------------------------------------------------------------------
# Hand cases of the fill patch.  A 16-set cache of 16-byte blocks: the
# set of an address is bits 4-7.  P and Q are prediction-routed; the
# second instance of each predicts its first address (stride 0), and
# here it is wrong.
# ---------------------------------------------------------------------------

_STRAIGHT_ASM = """
.data arr 4096
main:
    lea r4, arr
    ld_p r1, r4(0)
    ld_p r2, r4(4)
    ld_n r3, r4(8)
    st r1, r4(12)
    st r2, r4(16)
    halt
"""

#: Block addresses in set 0 and elsewhere.
SET0_A = 0x1000
SET0_B = 0x2000
SET0_C = 0x3000
SET5 = 0x1050
SET6 = 0x1060


def _hand_trace(steps):
    """A trace of the straight-line program's instructions in the given
    ``(uid, address)`` order (the d-stream reads only memory order)."""
    return Trace(parse_asm(_STRAIGHT_ASM), [uid for uid, _ in steps],
                 [ea for _, ea in steps])


def _hand_stream(steps, p_uids):
    trace = _hand_trace(steps)
    machine = MachineConfig(dcache=CacheConfig(size=256, block_size=16))
    pre = get_precompute(trace, machine)
    route = pre._per_load(bytes(
        1 if u in p_uids else 0 for u in pre.static_load_uids
    ))
    eg = EarlyGenConfig(16, 0, SelectionMode.COMPILER)
    got = pre.dstream(eg, route)
    assert got == reference_dstream(trace, eg, route, machine.dcache)
    return got


def test_fill_then_stores_then_the_next_load_to_its_set():
    P, Q, N, S1, S2 = 1, 2, 3, 4, 5
    codes, dmiss, store_miss, poll_miss = _hand_stream([
        (P, SET0_A),   # miss: set 0 holds A
        (N, SET0_B),   # miss: set 0 holds B
        (P, SET5),     # predicts A, wrong: fills A over B
        (S1, SET0_A),  # hits the filled A (missed B before)
        (S2, SET0_B),  # misses (hit B before)
        (N, SET0_B),   # misses: the fill evicted B
    ], {P, Q})
    assert poll_miss == 1
    assert codes == bytes([0, 0, 2, 0])
    assert dmiss == 4
    assert store_miss == 1


def test_two_fills_to_one_set_before_any_load():
    P, Q, N, S1, S2 = 1, 2, 3, 4, 5
    codes, dmiss, store_miss, poll_miss = _hand_stream([
        (Q, SET0_C),   # miss: set 0 holds C
        (P, SET0_A),   # miss: set 0 holds A
        (N, SET0_B),   # miss: set 0 holds B
        (P, SET5),     # predicts A, wrong: fills A over B
        (S1, SET0_A),  # hits A
        (Q, SET6),     # predicts C, wrong: fills C over A
        (S1, SET0_A),  # misses: C replaced A
        (S2, SET0_C),  # hits C
        (N, SET0_B),   # misses: C is there, not B
    ], {P, Q})
    assert poll_miss == 2
    assert codes == bytes([0, 0, 0, 2, 2, 0])
    assert store_miss == 1
    assert dmiss == 6
