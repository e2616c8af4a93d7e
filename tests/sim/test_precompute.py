"""The config-invariant precompute layer (:mod:`repro.sim.precompute`).

Covers what the parity suites do not:

* cache bounds — the Program-attached caches (trace precomputes,
  per-config streams) stay bounded no matter how many machines
  or configs a long service session replays;
* the layout — one record table per distinct segment that spells out
  the trace, and per-load facts spread from per-static-load bytes;
* the i-cache — at every block size, an i-cache that holds the whole
  program misses once per distinct block;
* one timing loop — ``run()`` and every ``simulate_many`` config,
  hardware dual-path included, go through the one scheduler on the
  shared precompute's streams and land byte-identical to the seed
  oracle;
* golden lock — every eligible golden case replayed through
  ``simulate_many`` reproduces its recorded snapshot exactly;
* divergence patching and the route fixed point — wrong-address
  pollution that cannot dispatch and dual-path routes the first replay
  guessed wrong are resolved by stream rebuilds, not by silently wrong
  stats, also on a segment memo other configs warmed, and an identical
  config replays from the segment memo;
* dependencies — a harness run through the stream path imports nothing
  beyond the standard library.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro import obs
from repro.isa import parse_asm
from repro.isa.instruction import Reg
from repro.isa.opcodes import COND_BRANCH_OPS, FP_ALU_OPS, LoadSpec, Opcode
from repro.sim import precompute
from repro.sim._pipeline_reference import reference_run
from repro.sim.executor import execute
from repro.sim.machine import (
    BASELINE,
    PROPOSED,
    CacheConfig,
    EarlyGenConfig,
    MachineConfig,
    SelectionMode,
)
from repro.sim.pipeline import TimingSimulator
from repro.sim.precompute import (
    _PRECOMPUTE_LIMIT,
    _K_ALU,
    _K_CALL,
    _K_CBRANCH,
    _K_FP,
    _K_FREE,
    _K_JUMP,
    _K_LOAD,
    _K_RET,
    _K_STORE,
    _NO_DEST,
    _NO_SRC,
    _STREAM_LIMIT,
    _decode_program,
    get_precompute,
    simulate_many,
)

from golden_cases import GOLDEN_PATH, iter_cases, stats_to_record
from test_pipeline_parity import _random_asm


@pytest.fixture
def trace():
    rng = random.Random(0xBEEF)
    return execute(parse_asm(_random_asm(rng))).trace


def _machine_variant(n: int) -> MachineConfig:
    """Distinct machine shapes (different icache => different keys)."""
    return MachineConfig(icache=CacheConfig(size=1024 << n))


def _starved_machine(eg: EarlyGenConfig) -> MachineConfig:
    """One memory port and a tiny D-cache: wrong-address pollution that
    cannot dispatch, so replays need divergence patching."""
    return MachineConfig(
        mem_ports=1, dcache=CacheConfig(size=1024)
    ).with_earlygen(eg)


# ---------------------------------------------------------------------------
# Cache bounds
# ---------------------------------------------------------------------------

def test_precompute_store_is_bounded(trace):
    program = trace.program
    for n in range(_PRECOMPUTE_LIMIT + 3):
        assert get_precompute(trace, _machine_variant(n)) is not None
    uids, store = program._sim_precompute
    assert uids is trace.uids
    assert len(store) <= _PRECOMPUTE_LIMIT
    # LRU: the most recent machine is still warm.
    latest = _machine_variant(_PRECOMPUTE_LIMIT + 2)
    assert get_precompute(trace, latest) is \
        store[latest.with_earlygen(BASELINE)]


#: A value other than the default for every machine field but
#: ``earlygen``; a new field must be added here.
_NON_DEFAULT = dict(
    issue_width=4, int_alus=3, mem_ports=1, fp_alus=1, branch_units=2,
    icache=CacheConfig(size=16 * 1024), dcache=CacheConfig(block_size=32),
    btb_entries=512, load_latency=3, mispredict_penalty=5, jump_bubble=2,
)


def test_with_earlygen_keeps_every_other_field():
    assert set(_NON_DEFAULT) == {
        f.name for f in dataclasses.fields(MachineConfig)
    } - {"earlygen"}
    machine = MachineConfig(**_NON_DEFAULT).with_earlygen(PROPOSED)
    assert machine == MachineConfig(**_NON_DEFAULT, earlygen=PROPOSED)


@pytest.mark.parametrize("field", sorted(_NON_DEFAULT))
def test_every_machine_field_keys_its_own_precompute(trace, field):
    base = get_precompute(trace, MachineConfig())
    variant = MachineConfig(**{field: _NON_DEFAULT[field]})
    pre = get_precompute(trace, variant)
    assert pre is not base
    # The early-gen config alone does not key a precompute.
    assert get_precompute(trace, variant.with_earlygen(PROPOSED)) is pre


def test_stream_caches_are_bounded(trace):
    pre = get_precompute(trace, MachineConfig())
    n_static = len(pre.static_load_uids)
    assert n_static > 0
    combos = [
        (entries, backend, guess)
        for entries in (2, 4, 8, 16, 32, 64, 128, 256)
        for backend in ("stride", "perceptron", "cache-level")
        for guess in (1, 3)
    ]
    keys = []
    for entries, backend, guess in combos[: _STREAM_LIMIT + 6]:
        eg = EarlyGenConfig(entries, 0, SelectionMode.HARDWARE,
                            predictor=backend)
        pre.dstream(eg, pre._per_load(bytes([guess] * n_static)))
        keys.extend(k for k in pre._dstreams if k not in keys)
    # More distinct streams than the bound were built, and the oldest
    # went first.
    assert len(keys) > _STREAM_LIMIT
    assert len(pre._dstreams) <= _STREAM_LIMIT
    assert keys[0] not in pre._dstreams


_RESTRIDE_ASM = """
.data arr 256
main:
    mov r6, 0
outer:
    lea r5, arr
    mov r7, 0
inner:
    ld_p r8, r5(0)
    add r5, r5, 64
    add r7, r7, 1
    blt r7, 8, inner
    add r6, r6, 1
    blt r6, 4, outer
    halt
"""


def test_route_three_predicts_without_polluting():
    """Route byte 3 is ``ld_p`` with the wrong-address fill withheld:
    its stream probes and trains the backend like route 1 but never
    fills the predicted block."""
    trace = execute(parse_asm(_RESTRIDE_ASM)).trace
    pre = get_precompute(trace, MachineConfig())
    eg = EarlyGenConfig(16, 0, SelectionMode.HARDWARE)
    n_static = len(pre.static_load_uids)
    filled = pre.dstream(eg, pre._per_load(b"\x01" * n_static))
    withheld = pre.dstream(eg, pre._per_load(b"\x03" * n_static))
    plain = pre.dstream(eg, bytes(pre.n_loads))
    # Each inner loop's restart is a wrong-address prediction one
    # block past the array; under route 1 it fills that block.
    assert filled[3] > 0
    assert withheld[3] == 0
    assert any(code & 2 for code in withheld[0])
    assert [c & 6 for c in withheld[0]] == [c & 6 for c in filled[0]]
    assert [c & 1 for c in withheld[0]] == [c & 1 for c in plain[0]]
    assert withheld[1:3] == plain[1:3]


@pytest.fixture(scope="module")
def li_trace():
    from repro.harness.experiments import ExperimentContext
    return ExperimentContext(scale=0.02).run("022.li").trace


@pytest.mark.parametrize("block", [16, 32, 64])
def test_icache_that_holds_the_program_misses_once_per_block(
        li_trace, block):
    """An i-cache large enough for every block misses exactly once per
    distinct block it fetches, at any block size."""
    machine = MachineConfig(icache=CacheConfig(size=1 << 20,
                                               block_size=block))
    flat = li_trace.program.flat
    blocks = {flat[uid].addr // block for uid in set(li_trace.uids)}
    assert get_precompute(li_trace, machine).imiss_total == len(blocks)
    oracle = reference_run(TimingSimulator(li_trace, machine))
    assert oracle.icache_misses == len(blocks)


def test_precompute_invalidated_when_program_recompiled(trace):
    pre = get_precompute(trace, MachineConfig())
    assert get_precompute(trace, MachineConfig()) is pre
    trace.program.flat = list(trace.program.flat)  # simulate re-lowering
    rebuilt = get_precompute(trace, MachineConfig())
    assert rebuilt is not pre
    assert rebuilt.flat is trace.program.flat


# ---------------------------------------------------------------------------
# Layout: segment records and per-load facts
# ---------------------------------------------------------------------------

def _slot(reg) -> int:
    return reg.index if reg.bank == "int" else 64 + reg.index


def _kind_sources_dest(inst) -> tuple:
    """An instruction's scheduler kind, three source slots and dest
    slot, decoded straight from the instruction."""
    srcs = [_slot(s) for s in inst.srcs if isinstance(s, Reg)]
    op = inst.opcode
    if inst.is_load:
        kind = _K_LOAD
    elif inst.is_store:
        kind = _K_STORE
    elif op in COND_BRANCH_OPS:
        kind = _K_CBRANCH
    elif op is Opcode.CALL:
        kind = _K_CALL
    elif op is Opcode.RET:
        kind = _K_RET
        srcs.append(63)
    elif inst.is_branch:
        kind = _K_JUMP
    elif op in FP_ALU_OPS:
        kind = _K_FP
    elif op is Opcode.HALT or op is Opcode.NOP:
        kind = _K_FREE
    else:
        kind = _K_ALU
    dest = _NO_DEST if inst.dest is None else _slot(inst.dest)
    return kind, tuple(srcs + [_NO_SRC] * (3 - len(srcs))), dest


@pytest.mark.parametrize("which", ["random", "022.li"])
def test_segment_records_spell_out_the_trace(trace, li_trace, which):
    """The records of the segment ids, in order, are one record per
    dynamic instruction, each the decode of that instruction."""
    trace = trace if which == "random" else li_trace
    pre = get_precompute(trace, MachineConfig())
    assert all(sid < len(pre.seg_records) for sid in pre.seg_ids)
    records = [rec for sid in pre.seg_ids for rec in pre.seg_records[sid]]
    assert len(records) == pre.n == len(trace.uids)
    flat = trace.program.flat
    for rec, uid in zip(records, trace.uids):
        assert (rec[0], rec[2:5], rec[5]) == _kind_sources_dest(flat[uid])


def _wide_program_trace():
    """300 static loads in both addressing modes, on three bases and
    two index registers: more than a byte can number."""
    loads = "\n".join(
        f"    ld_p r{1 + i % 3}, r4({4 * (i % 64)})" if i % 3 else
        f"    ld_e r{1 + i % 3}, r{5 + i % 2}(r{7 + i % 2})"
        for i in range(300)
    )
    return execute(parse_asm(f"""
.data arr 1024
main:
    lea r4, arr
    lea r5, arr
    lea r6, arr
    mov r7, 4
    mov r8, 8
    mov r9, 0
loop:
{loads}
    add r4, r4, 8
    add r9, r9, 1
    blt r9, 3, loop
    halt
""")).trace


def test_per_load_facts_match_each_dynamic_load():
    """Past 256 static loads, the base, addressing mode and
    displacement of every dynamic load still read its instruction."""
    trace = _wide_program_trace()
    pre = get_precompute(trace, MachineConfig())
    assert pre.lsidx is None
    flat = trace.program.flat
    loads = [flat[u] for u in trace.uids if flat[u].is_load]
    assert len(loads) == pre.n_loads == 900
    assert list(pre.lbase) == [_slot(inst.mem_base) for inst in loads]
    assert list(pre.lro) == [int(inst.is_reg_offset) for inst in loads]
    assert list(pre.ldisp) == [
        0 if inst.is_reg_offset else _slot(inst.mem_disp) for inst in loads
    ]
    assert set(pre.lro) == {0, 1} and len(set(pre.ldisp)) == 3


# ---------------------------------------------------------------------------
# One timing loop
# ---------------------------------------------------------------------------

def _reference(trace, machine, **kwargs) -> dict:
    return stats_to_record(
        reference_run(TimingSimulator(trace, machine, **kwargs))
    )


def test_one_shot_run_builds_the_shared_precompute(trace):
    machine = MachineConfig().with_earlygen(
        EarlyGenConfig(64, 0, SelectionMode.HARDWARE)
    )
    before = precompute.replay_path_counts()
    stats = TimingSimulator(trace, machine).run()
    uids, store = trace.program._sim_precompute
    assert uids is trace.uids
    pre = store[machine.with_earlygen(BASELINE)]
    assert get_precompute(trace, machine) is pre
    # run() streams: its outcome stream is cached for later sweeps.
    assert pre._dstreams
    after = precompute.replay_path_counts()
    assert after.get("scalar", 0) == before.get("scalar", 0) + 1
    assert stats_to_record(stats) == _reference(trace, machine)


def test_run_and_every_sweep_config_call_the_one_scheduler(
        trace, monkeypatch):
    calls = []
    real_replay = precompute._replay
    signature = inspect.signature(real_replay)

    def counting_replay(*args, **kwargs):
        # `flips` collects dual-path decisions, and only a hardware
        # dual-path config passes it.
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments["flips"] is not None)
        return real_replay(*args, **kwargs)

    monkeypatch.setattr(precompute, "_replay", counting_replay)
    hw_dual = EarlyGenConfig(256, 1, SelectionMode.HARDWARE)
    TimingSimulator(trace, MachineConfig().with_earlygen(hw_dual)).run()
    assert calls and all(calls)
    ran = len(calls)
    simulate_many(trace, [EarlyGenConfig(64, 1), hw_dual])
    # The compiler config's rounds come first, then the dual-path
    # config's fixed point again.
    swept = calls[ran:]
    assert swept[0] is False and swept[-1] is True
    assert swept == sorted(swept)
    assert swept.count(True) == ran


def test_warm_runs_and_sweeps_stream_and_match_the_reference(trace):
    machine = MachineConfig().with_earlygen(
        EarlyGenConfig(64, 0, SelectionMode.HARDWARE)
    )
    reference = _reference(trace, machine)
    before = precompute.replay_path_counts().get("scalar", 0)
    (batched,) = simulate_many(trace, [machine])
    assert stats_to_record(batched) == reference
    # The precompute is now warm: a second sweep and a plain run()
    # stream again and agree.
    assert getattr(trace.program, "_sim_precompute", None) is not None
    (again,) = simulate_many(trace, [machine])
    assert stats_to_record(again) == reference
    assert stats_to_record(TimingSimulator(trace, machine).run()) == \
        reference
    assert precompute.replay_path_counts()["scalar"] == before + 3


def test_run_emits_sim_counters_on_a_configured_tracer(trace, tmp_path):
    machine = MachineConfig().with_earlygen(
        EarlyGenConfig(64, 0, SelectionMode.HARDWARE)
    )
    try:
        obs.configure(tmp_path, command="test")
        stats = TimingSimulator(trace, machine).run()
    finally:
        obs.disable()
    records = [
        json.loads(line)
        for path in tmp_path.glob("*.jsonl")
        for line in path.read_text().splitlines()
    ]
    (event,) = [r for r in records if r["kind"] == "event"
                and r["name"] == "sim.counters"]
    assert event["counters"]["cycles"] == stats.cycles


def test_hw_dual_configs_stream_and_match_the_reference(trace):
    machine = MachineConfig().with_earlygen(
        EarlyGenConfig(16, 2, SelectionMode.HARDWARE)
    )
    before = precompute.replay_path_counts()
    (batched,) = simulate_many(trace, [machine])
    after = precompute.replay_path_counts()
    assert after.get("hw-fixed", 0) == before.get("hw-fixed", 0) + 1
    assert after.get("scalar", 0) == before.get("scalar", 0)
    assert stats_to_record(batched) == _reference(trace, machine)
    # The fixed point settled on a route that uses both paths.
    assert batched.scheme_counts["p"] and batched.scheme_counts["e"]


def test_simulate_many_accepts_earlygen_and_machine_items(trace):
    base = MachineConfig(mem_ports=1)
    eg = EarlyGenConfig(16, 0, SelectionMode.HARDWARE)
    mixed = simulate_many(
        trace, [eg, base.with_earlygen(eg)], machine=base
    )
    assert stats_to_record(mixed[0]) == stats_to_record(mixed[1])


# ---------------------------------------------------------------------------
# Divergence patching
# ---------------------------------------------------------------------------

def test_divergence_patching_converges_without_fallback():
    """Port-starved machines (mem_ports=1) produce wrong-address
    pollution that cannot dispatch; patching must resolve it exactly."""
    rng = random.Random(0xD1CE)
    diverged = False
    for _ in range(8):
        trace = execute(parse_asm(_random_asm(rng))).trace
        machine = _starved_machine(
            EarlyGenConfig(16, 0, SelectionMode.HARDWARE)
        )
        before = precompute.divergence_count()
        reference = _reference(trace, machine)
        fast = precompute.run_streams(TimingSimulator(trace, machine))
        assert stats_to_record(fast) == reference
        patched = precompute.divergence_count() - before
        if patched:
            diverged = True
            # Every run starts from its own route with every fill
            # assumed, so a rerun re-converges along the same path to
            # the same stats.
            again = precompute.divergence_count()
            rerun = precompute.run_streams(
                TimingSimulator(trace, machine)
            )
            assert stats_to_record(rerun) == reference
            assert precompute.divergence_count() - again == patched
    assert diverged, "seeds no longer produce divergence; rotate them"


def test_hw_dual_fixed_point_on_a_memo_warmed_by_compiler_configs():
    """Hardware dual-path on a port-starved machine, where route flips
    and wrong-address divergences interleave, replayed on a segment
    memo that compiler-mode configs of the same trace warmed first: the
    transitions those configs learned must carry the dual-path
    decisions too."""
    rng = random.Random(0xF1A7)
    cc = _starved_machine(EarlyGenConfig(16, 2, SelectionMode.COMPILER))
    hw = _starved_machine(EarlyGenConfig(16, 2, SelectionMode.HARDWARE))
    interleaved = 0
    for _ in range(8):
        trace = execute(parse_asm(_random_asm(rng))).trace
        _, load_uids = _decode_program(trace.program)
        # As compiled, then every load calculated (the inputs of the
        # fixed point's all-calc first round), then every load predicted.
        warm = [None] + [
            {uid: spec for uid in load_uids}
            for spec in (LoadSpec.E, LoadSpec.P)
        ]
        simulate_many(trace, [cc] * len(warm), overrides=warm)
        before = precompute.divergence_count()
        (stats,) = simulate_many(trace, [hw])
        reference = _reference(trace, hw, collect_timeline=True)
        record = stats_to_record(stats)
        record["timeline"] = reference["timeline"]
        assert record == reference
        timed = TimingSimulator(trace, hw, collect_timeline=True).run()
        assert stats_to_record(timed) == reference
        # Starting from all-calc, every predicted load is a route flip.
        if stats.scheme_counts["p"] and precompute.divergence_count() > before:
            interleaved += 1
    assert interleaved, "seeds no longer interleave flips and divergences"


def test_identical_configs_replay_from_the_segment_memo(
        trace, monkeypatch):
    """The second of two identical configs walks only segment-memo hits
    — equal records, but independent SimStats objects."""
    walks = []
    real_replay = precompute._replay

    def recording_replay(*args, **kwargs):
        result = real_replay(*args, **kwargs)
        walks.append(result[2])
        return result

    monkeypatch.setattr(precompute, "_replay", recording_replay)
    eg = EarlyGenConfig(16, 0, SelectionMode.HARDWARE)
    machine = MachineConfig().with_earlygen(eg)
    first, second = simulate_many(trace, [machine, machine])
    # Both configs take the same patch path, one replay per attempt.
    assert walks and len(walks) % 2 == 0
    for segments, hits in walks[len(walks) // 2:]:
        assert segments > 0 and hits == segments
    assert stats_to_record(first) == stats_to_record(second)
    assert first is not second
    first.scheme_counts["__mutated__"] = 1
    assert "__mutated__" not in second.scheme_counts


# ---------------------------------------------------------------------------
# Golden lock
# ---------------------------------------------------------------------------

def test_simulate_many_reproduces_golden_stats_exactly():
    with GOLDEN_PATH.open(encoding="utf-8") as fh:
        golden = json.load(fh)["cases"]
    groups: dict = {}
    for case_id, trace, machine, overrides, collect_timeline in iter_cases():
        if collect_timeline:
            continue  # simulate_many collects no timeline
        entry = groups.setdefault(id(trace), (trace, []))
        entry[1].append((case_id, machine, overrides))
    checked = 0
    for trace, cases in groups.values():
        stats_list = simulate_many(
            trace,
            [machine for _, machine, _ in cases],
            overrides=[ov for _, _, ov in cases],
        )
        for (case_id, _, _), stats in zip(cases, stats_list):
            assert stats_to_record(stats) == golden[case_id], case_id
            checked += 1
    assert checked >= 15


# ---------------------------------------------------------------------------
# Dependencies
# ---------------------------------------------------------------------------

_STDLIB_ONLY_SCRIPT = """
import sys
preloaded = set(sys.modules)  # interpreter start-up, site hooks included
from repro.harness.experiments import ExperimentContext
from repro.harness.runner import compute_rows
from repro.sim import precompute

ctx = ExperimentContext(scale=0.02)
for name in ("026.compress", "adpcm_decode"):
    ctx.prefetch_sims(name)
    compute_rows(ctx, name)
assert precompute.replay_path_counts().get("scalar"), "stream path unused"
imported = {m.partition(".")[0] for m in set(sys.modules) - preloaded}
foreign = imported - set(sys.stdlib_module_names) - {"repro", "__mp_main__"}
assert not foreign, sorted(foreign)
"""


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="sys.stdlib_module_names needs Python 3.10")
def test_tables_run_imports_only_the_standard_library():
    """Harness rows replayed through :func:`simulate_many` import no
    third-party package: no array library hides behind the sim layer."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _STDLIB_ONLY_SCRIPT],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
