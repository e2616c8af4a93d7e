"""The config-invariant precompute layer (:mod:`repro.sim.precompute`).

Covers what the parity suites do not:

* cache bounds — the Program-attached caches (front-end outcomes, trace
  precomputes, per-config streams/routes) stay bounded no matter how
  many machines or configs a long service session replays;
* fast-path gating — one-shot ``run()`` calls never pay a precompute
  build, hooks/timeline/override runs stay inline, and ``simulate_many``
  results land byte-identical to independent runs;
* golden lock — every eligible golden case replayed through
  ``simulate_many`` reproduces its recorded snapshot exactly;
* divergence patching — wrong-address pollution that cannot dispatch is
  resolved by stream rebuilds, not by silently wrong stats, and the
  stats memo dedupes identical stream tuples;
* dependencies — a harness run through the stream path imports nothing
  beyond the standard library.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.isa import parse_asm
from repro.sim import precompute
from repro.sim.executor import execute
from repro.sim.machine import (
    CacheConfig,
    EarlyGenConfig,
    MachineConfig,
    SelectionMode,
)
from repro.sim.pipeline import _FRONTEND_CACHE_LIMIT, TimingSimulator
from repro.sim.precompute import (
    _PRECOMPUTE_LIMIT,
    _ROUTE_LIMIT,
    _STREAM_LIMIT,
    get_precompute,
    simulate_many,
    warm_precompute,
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
    cannot dispatch, so replays need exclusion patching."""
    return MachineConfig(
        mem_ports=1, dcache=CacheConfig(size=1024)
    ).with_earlygen(eg)


# ---------------------------------------------------------------------------
# Cache bounds
# ---------------------------------------------------------------------------

def test_frontend_cache_is_bounded(trace):
    program = trace.program
    for n in range(_FRONTEND_CACHE_LIMIT + 4):
        TimingSimulator(trace, _machine_variant(n)).run()
    uids, inner = program._frontend_pre
    assert uids is trace.uids
    assert len(inner) <= _FRONTEND_CACHE_LIMIT


def test_precompute_store_is_bounded(trace):
    program = trace.program
    for n in range(_PRECOMPUTE_LIMIT + 3):
        assert get_precompute(trace, _machine_variant(n)) is not None
    uids, store = program._sim_precompute
    assert uids is trace.uids
    assert len(store) <= _PRECOMPUTE_LIMIT
    # LRU: the most recent machine is still warm.
    warm = get_precompute(trace, _machine_variant(_PRECOMPUTE_LIMIT + 2),
                          build=False)
    assert warm is not None


def test_stream_and_route_caches_are_bounded(trace):
    pre = get_precompute(trace, MachineConfig())
    n_static = len(pre.static_load_uids)
    assert n_static > 0
    for n in range(_ROUTE_LIMIT + 5):
        # Distinct synthetic routings: first n loads prediction-routed.
        scheme = bytes(1 if i < n % (n_static + 1) else 0
                       for i in range(n_static))
        pre.route_for(scheme)
    assert len(pre._routes) <= _ROUTE_LIMIT

    route = pre.route_for(bytes([1] * n_static))
    combos = [
        (entries, conf)
        for entries in (2, 4, 8, 16, 32, 64, 128, 256)
        for conf in (0, 1, 2, 3, 4)
    ]
    for entries, conf in combos[: _STREAM_LIMIT + 6]:
        eg = EarlyGenConfig(entries, 0, SelectionMode.HARDWARE,
                            table_confidence_bits=conf)
        pre.dstream(eg, route)
    assert len(pre._dstreams) <= _STREAM_LIMIT


def test_precompute_invalidated_when_program_recompiled(trace):
    pre = get_precompute(trace, MachineConfig())
    assert get_precompute(trace, MachineConfig(), build=False) is pre
    trace.program.flat = list(trace.program.flat)  # simulate re-lowering
    assert get_precompute(trace, MachineConfig(), build=False) is None


# ---------------------------------------------------------------------------
# Fast-path gating
# ---------------------------------------------------------------------------

def test_one_shot_run_never_builds_a_precompute(trace):
    machine = MachineConfig().with_earlygen(
        EarlyGenConfig(64, 0, SelectionMode.HARDWARE)
    )
    TimingSimulator(trace, machine).run()
    assert getattr(trace.program, "_sim_precompute", None) is None


def test_warm_run_uses_fast_path_and_matches_inline(trace):
    machine = MachineConfig().with_earlygen(
        EarlyGenConfig(64, 0, SelectionMode.HARDWARE)
    )
    inline = stats_to_record(TimingSimulator(trace, machine)._run_inline())
    (batched,) = simulate_many(trace, [machine])
    assert stats_to_record(batched) == inline
    # The precompute is now warm, so a plain run() takes the fast path
    # and must agree too.
    assert getattr(trace.program, "_sim_precompute", None) is not None
    assert stats_to_record(TimingSimulator(trace, machine).run()) == inline


def test_event_hook_runs_stay_inline(trace):
    machine = MachineConfig().with_earlygen(
        EarlyGenConfig(64, 0, SelectionMode.HARDWARE)
    )
    warm_precompute(trace, MachineConfig(), [machine.earlygen])
    payloads = []
    stats = TimingSimulator(
        trace, machine, event_hook=payloads.append
    ).run()
    assert payloads, "event hook did not fire"
    assert payloads[-1]["cycles"] == stats.cycles


def test_hw_dual_configs_fall_back_to_inline(trace):
    machine = MachineConfig().with_earlygen(
        EarlyGenConfig(16, 2, SelectionMode.HARDWARE)
    )
    assert precompute.try_fast(
        TimingSimulator(trace, machine), build=True
    ) is None
    inline = stats_to_record(TimingSimulator(trace, machine)._run_inline())
    (batched,) = simulate_many(trace, [machine])
    assert stats_to_record(batched) == inline


def test_short_trace_threshold_skips_precompute(trace, monkeypatch):
    """Below ``_PRECOMPUTE_MIN_N`` the stream path declines up front
    (the adpcm_encode regression fix) and the inline loop still
    produces the stats."""
    monkeypatch.setattr(precompute, "_PRECOMPUTE_MIN_N", 10**9)
    machine = MachineConfig().with_earlygen(
        EarlyGenConfig(16, 0, SelectionMode.HARDWARE)
    )
    assert warm_precompute(trace, machine, [machine.earlygen]) is None
    assert precompute.try_fast(
        TimingSimulator(trace, machine), build=True
    ) is None
    before = precompute.replay_path_counts()
    (batched,) = simulate_many(trace, [machine])
    after = precompute.replay_path_counts()
    assert after.get("inline:short-trace", 0) > before.get(
        "inline:short-trace", 0
    )
    inline = stats_to_record(TimingSimulator(trace, machine)._run_inline())
    assert stats_to_record(batched) == inline


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
    fallbacks_before = precompute.divergence_fallback_count()
    diverged = False
    for _ in range(8):
        trace = execute(parse_asm(_random_asm(rng))).trace
        machine = _starved_machine(
            EarlyGenConfig(16, 0, SelectionMode.HARDWARE)
        )
        before = precompute.divergence_count()
        inline = stats_to_record(
            TimingSimulator(trace, machine)._run_inline()
        )
        fast = precompute.try_fast(
            TimingSimulator(trace, machine), build=True
        )
        assert fast is not None
        assert stats_to_record(fast) == inline
        if precompute.divergence_count() > before:
            diverged = True
            # Convergence is remembered: a second fast run must not
            # rediscover the exclusions.
            again = precompute.divergence_count()
            rerun = precompute.try_fast(
                TimingSimulator(trace, machine), build=True
            )
            assert stats_to_record(rerun) == inline
            assert precompute.divergence_count() == again
    assert diverged, "seeds no longer produce divergence; rotate them"
    assert precompute.divergence_fallback_count() == fallbacks_before


def _first_diverging(rng, eg):
    """A (trace, machine) pair whose replay needs exclusion patching."""
    for _ in range(12):
        trace = execute(parse_asm(_random_asm(rng))).trace
        machine = _starved_machine(eg)
        before = precompute.divergence_count()
        fast = precompute.try_fast(
            TimingSimulator(trace, machine), build=True
        )
        assert fast is not None
        if precompute.divergence_count() > before:
            return trace, machine
    raise AssertionError("seeds no longer produce divergence; rotate them")


def test_exclusion_set_flips_twice_across_runs():
    """An ordinal excluded -> seeded un-excluded -> re-excluded must
    land on identical stats every time (the patch loop re-converges
    from any remembered starting point)."""
    eg = EarlyGenConfig(16, 0, SelectionMode.HARDWARE)
    trace, machine = _first_diverging(random.Random(0xF11B), eg)
    inline = stats_to_record(TimingSimulator(trace, machine)._run_inline())

    pre = precompute.get_precompute(trace, machine)
    sb = precompute._scheme_bytes(trace.program, eg, None)
    route = pre.route_for(sb)
    converged = pre.known_exclusions(eg, route)
    assert converged, "divergence should have recorded exclusions"

    # Flip 1: forget everything (seed the complement-of-knowledge).
    pre.remember_exclusions(eg, route, frozenset())
    pre._stats_memo.clear()
    rerun = precompute.try_fast(TimingSimulator(trace, machine), build=True)
    assert stats_to_record(rerun) == inline
    assert pre.known_exclusions(eg, route) == converged

    # Flip 2: seed garbage ordinals on top of the converged set.  Inert
    # ordinals (not wrong-address loads) cannot affect any stream, so
    # they may persist — the contract is exact stats and the genuine
    # exclusions kept.
    garbage = frozenset(range(min(8, pre.n_loads))) | converged
    pre.remember_exclusions(eg, route, garbage)
    pre._stats_memo.clear()
    rerun = precompute.try_fast(TimingSimulator(trace, machine), build=True)
    assert stats_to_record(rerun) == inline
    assert pre.known_exclusions(eg, route) >= converged


def test_patch_memo_collision_still_exact():
    """A colliding patch-memo entry (same ``(table, conf, route)`` key
    written by a different config's convergence) only seeds the first
    attempt; the replay must re-converge to exact stats."""
    eg = EarlyGenConfig(16, 0, SelectionMode.HARDWARE)
    rng = random.Random(0xC0111)
    trace = execute(parse_asm(_random_asm(rng))).trace
    machine = _starved_machine(eg)
    inline = stats_to_record(TimingSimulator(trace, machine)._run_inline())

    pre = precompute.get_precompute(trace, machine)
    sb = precompute._scheme_bytes(trace.program, eg, None)
    route = pre.route_for(sb)
    # Simulate another config's convergence landing under our key.
    pre.remember_exclusions(
        eg, route, frozenset(range(pre.n_loads))
    )
    fast = precompute.try_fast(TimingSimulator(trace, machine), build=True)
    assert fast is not None
    assert stats_to_record(fast) == inline
    # A second EarlyGenConfig sharing the patch key replays exactly too.
    eg2 = EarlyGenConfig(16, 2, SelectionMode.COMPILER)
    key = pre._patch_key(eg, route)
    machine2 = _starved_machine(eg2)
    sb2 = precompute._scheme_bytes(trace.program, eg2, None)
    route2 = pre.route_for(sb2)
    if pre._patch_key(eg2, route2) == key:
        inline2 = stats_to_record(
            TimingSimulator(trace, machine2)._run_inline()
        )
        fast2 = precompute.try_fast(
            TimingSimulator(trace, machine2), build=True
        )
        assert stats_to_record(fast2) == inline2


def test_stats_memo_dedupes_identical_streams(trace):
    """The same stream tuple listed twice resolves from the stats memo
    — equal records, but independent SimStats objects."""
    eg = EarlyGenConfig(16, 0, SelectionMode.HARDWARE)
    machine = MachineConfig().with_earlygen(eg)
    before = precompute.replay_path_counts()
    first, second = simulate_many(trace, [machine, machine])
    after = precompute.replay_path_counts()
    assert after.get("memo", 0) > before.get("memo", 0)
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
            continue  # timeline collection is inline-only by design
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

precompute._PRECOMPUTE_MIN_N = 0
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
