"""The stream replay's segment memo (``precompute._SegmentMemo``).

The stream source of ``precompute._replay`` walks the trace segment by
segment and applies a memoized transition wherever ``(state, segment,
inputs)`` recurs.  These tests pin the parts of that state that cross a
segment boundary or bypass the per-record loop on a hit:

* the store queue — a store in one segment interlocking a speculative
  ``ld_p``/``ld_e`` in the next, and a store ``2 * mem_ports`` stores
  back interlocking an ``ld_p`` in its own segment, with the store's
  word alternating so only the store alias tells instances apart;
* wrong-address divergences — replayed from a hit, they must drive
  divergence patching exactly as the records would;
* cold and warm memos — every harness config of a SPEC workload gives
  the same stats from an empty memo and from a shared warm one;
* the whole-trace walk — on a machine whose latencies do not fit a
  snapshot byte the memo stays off, and every harness config still
  agrees with the seed oracle;
* engagement — on a loop workload the memo serves most segments, and
  the ``sim.replay`` events and ``obs_report`` show the count.
"""

from __future__ import annotations

import random
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro import obs
from repro.harness.experiments import ExperimentContext, sim_requests
from repro.harness.obs_report import read_trace, replay_paths
from repro.isa import parse_asm
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
from repro.sim.precompute import get_precompute, segment_counts, simulate_many

from golden_cases import stats_to_record
from test_pipeline_parity import _random_asm

#: Each iteration is one segment.  Its stores write the word the next
#: iteration's ld_p and ld_e read first (r7 alternates between that
#: word and another one), so the store queue carries across segments.
_CROSSING_ASM = """
.data arr 64
main:
    lea r5, arr
    lea r7, arr
    mov r6, 0
loop:
    ld_p r8, r5(0)
    ld_e r10, r5(4)
    and r11, r6, 1
    mul r11, r11, 8
    lea r7, arr
    add r7, r7, r11
    add r9, r8, r10
    add r6, r6, 1
    st r9, r5(4)
    st r9, r7(0)
    blt r6, 41, loop
    ld_p r8, r5(0)
    halt
"""

#: Within one segment, the ld_p issues in the cycle after the store it
#: may alias, with two ports' worth of stores in between; r7 alternates
#: so every other iteration interlocks, and the dependent tail erases
#: the difference from the state by the segment's end.
_WINDOW_ASM = """
.data arr 64
main:
    lea r5, arr
    lea r7, arr
    mov r6, 0
    mov r9, 1
loop:
    and r11, r6, 1
    mul r11, r11, 20
    lea r7, arr
    add r7, r7, r11
    add r6, r6, 1
    st r9, r7(0)
    st r9, r5(8)
    st r9, r5(12)
    st r9, r5(16)
    ld_p r8, r5(0)
    add r12, r8, 1
    mul r13, r12, 3
    add r14, r13, 1
    blt r6, 41, loop
    halt
"""


def _walked(before: tuple) -> tuple:
    segments, hits = segment_counts()
    return segments - before[0], hits - before[1]


@pytest.mark.parametrize("asm", [_CROSSING_ASM, _WINDOW_ASM],
                         ids=["across-segments", "alias-window"])
def test_store_interlocks_survive_memo_hits(asm):
    trace = execute(parse_asm(asm)).trace
    machine = MachineConfig().with_earlygen(PROPOSED)
    before = segment_counts()
    (fast,) = simulate_many(trace, [machine])
    segments, hits = _walked(before)
    assert hits > segments // 2
    assert asdict(reference_run(TimingSimulator(trace, machine))) == \
        asdict(fast)
    assert 0 < fast.spec_mem_interlock < fast.loads


def _diverging(rng: random.Random, eg: EarlyGenConfig):
    """A trace whose replay on a one-port machine needs patching."""
    for _ in range(12):
        trace = execute(parse_asm(_random_asm(rng))).trace
        machine = MachineConfig(
            mem_ports=1, dcache=CacheConfig(size=1024)
        ).with_earlygen(eg)
        before = precompute.divergence_count()
        precompute.run_streams(TimingSimulator(trace, machine))
        if precompute.divergence_count() > before:
            return trace, machine
    raise AssertionError("seeds no longer produce divergence; rotate them")


def test_wrong_address_dispatches_replay_from_memo_hits():
    """A warm replay takes every segment, wrong-address predictions
    included, from the memo; its divergence patching must retrace the
    cold replay's exactly."""
    eg = EarlyGenConfig(16, 0, SelectionMode.HARDWARE)
    trace, machine = _diverging(random.Random(0x5E6), eg)
    live = stats_to_record(reference_run(TimingSimulator(trace, machine)))
    pre = get_precompute(trace, machine)

    def replay() -> tuple:
        div = precompute.divergence_count()
        walked = segment_counts()
        stats = precompute.run_streams(TimingSimulator(trace, machine))
        return (stats_to_record(stats), precompute.divergence_count() - div,
                _walked(walked))

    pre.segment_memo.reset()
    cold, cold_div, (cold_segments, cold_hits) = replay()
    warm, warm_div, (warm_segments, warm_hits) = replay()
    assert cold == warm == live
    assert cold_div == warm_div > 0
    assert warm_segments == cold_segments
    assert warm_hits == warm_segments > cold_hits
    # The divergences a hit replays are the offsets its transition
    # stored.
    assert any(
        slips
        for _, _, _, slips, _ in pre.segment_memo.transitions.values()
    )


def _harness_sweep(name: str, scale: float):
    ctx = ExperimentContext(scale=scale)
    run = ctx.run(name)
    requests = sim_requests("spec")
    configs = [BASELINE] + [r.earlygen for r in requests]
    overrides = [None] + [
        run.get_overrides() if r.use_profile_override else None
        for r in requests
    ]
    return run.trace, ctx.machine, configs, overrides


def test_cold_and_warm_memo_agree_on_every_harness_config():
    trace, machine, configs, overrides = _harness_sweep("022.li", 0.05)
    pre = get_precompute(trace, machine)
    cold = []
    for eg, ov in zip(configs, overrides):
        pre.segment_memo.reset()
        (stats,) = simulate_many(trace, [eg], machine=machine,
                                 overrides=[ov])
        cold.append(stats_to_record(stats))
    warm = simulate_many(trace, configs, machine=machine,
                         overrides=overrides)
    assert [stats_to_record(s) for s in warm] == cold
    reference = [
        stats_to_record(reference_run(TimingSimulator(
            trace, machine.with_earlygen(eg), ov)))
        for eg, ov in zip(configs, overrides)
    ]
    assert cold == reference


def test_a_machine_past_the_snapshot_range_walks_the_whole_trace():
    """A 300-cycle miss does not fit a snapshot byte, so the stream
    source walks each trace as one segment, without the memo, and must
    still agree with the seed oracle on every config."""
    trace, _, configs, overrides = _harness_sweep("022.li", 0.05)
    machine = MachineConfig(dcache=CacheConfig(miss_penalty=300))
    before_segments = segment_counts()
    before_paths = precompute.replay_path_counts()
    swept = simulate_many(trace, configs, machine=machine,
                          overrides=overrides)
    assert segment_counts() == before_segments
    assert precompute.replay_path_counts().get("scalar", 0) > \
        before_paths.get("scalar", 0)
    for eg, ov, fast in zip(configs, overrides, swept):
        sim = TimingSimulator(trace, machine.with_earlygen(eg), ov)
        assert asdict(reference_run(sim)) == asdict(fast)


def test_memo_serves_most_segments_of_a_loop_workload(tmp_path):
    trace, machine, configs, overrides = _harness_sweep(
        "026.compress", 0.05)
    pre = get_precompute(trace, machine)
    pre.segment_memo.reset()
    before = segment_counts()
    try:
        obs.configure(tmp_path, command="test")
        simulate_many(trace, configs, machine=machine, overrides=overrides)
    finally:
        obs.disable()
    segments, hits = _walked(before)
    assert segments > 0 and hits > 0.9 * segments
    records = read_trace(tmp_path)
    events = [r["tags"] for r in records
              if r["kind"] == "event" and r["name"] == "sim.replay"]
    assert sum(e.get("segments", 0) for e in events) == segments
    assert sum(e.get("segment_hits", 0) for e in events) == hits
    rows = replay_paths(records)
    assert {row["path"] for row in rows} == {"scalar", "hw-fixed"}
    assert sum(row["segments"] for row in rows) == segments
    assert sum(row["segment_hits"] for row in rows) == hits
    for row in rows:
        assert row["hit_pct"] == \
            100.0 * row["segment_hits"] / row["segments"]


def test_a_full_memo_starts_over_and_stays_exact(monkeypatch):
    monkeypatch.setattr(precompute, "_SEGMENT_MEMO_LIMIT", 8)
    trace, machine, configs, overrides = _harness_sweep("022.li", 0.05)
    pre = get_precompute(trace, machine)
    pre.segment_memo.reset()
    swept = simulate_many(trace, configs, machine=machine,
                          overrides=overrides)
    assert len(pre.segment_memo.transitions) <= 8
    assert len(pre.segment_memo.snapshots) <= 2 * 8 + 1
    reference = [
        reference_run(TimingSimulator(trace, machine.with_earlygen(eg), ov))
        for eg, ov in zip(configs, overrides)
    ]
    assert [stats_to_record(s) for s in swept] == \
        [stats_to_record(s) for s in reference]
