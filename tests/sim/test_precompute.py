"""The config-invariant precompute layer (:mod:`repro.sim.precompute`).

Covers what the parity suites do not:

* cache bounds — the Program-attached caches (trace precomputes,
  per-config streams/routes) stay bounded no matter how many machines
  or configs a long service session replays;
* one timing loop — ``run()`` and every ``simulate_many`` config,
  streamed or declined, go through the one scheduler on the shared
  precompute, and ``simulate_many`` results land byte-identical to
  independent runs;
* golden lock — every eligible golden case replayed through
  ``simulate_many`` reproduces its recorded snapshot exactly;
* divergence patching — wrong-address pollution that cannot dispatch is
  resolved by stream rebuilds, not by silently wrong stats, and an
  identical config replays from the segment memo;
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

from repro import obs
from repro.isa import parse_asm
from repro.sim import precompute
from repro.sim.executor import execute
from repro.sim.machine import (
    CacheConfig,
    EarlyGenConfig,
    MachineConfig,
    SelectionMode,
)
from repro.sim.pipeline import TimingSimulator
from repro.sim.precompute import (
    _PRECOMPUTE_LIMIT,
    _ROUTE_LIMIT,
    _STREAM_LIMIT,
    _machine_key,
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
    cannot dispatch, so replays need exclusion patching."""
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
    assert get_precompute(trace, latest) is store[_machine_key(latest)]


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
    assert get_precompute(trace, MachineConfig()) is pre
    trace.program.flat = list(trace.program.flat)  # simulate re-lowering
    rebuilt = get_precompute(trace, MachineConfig())
    assert rebuilt is not pre
    assert rebuilt.flat is trace.program.flat


# ---------------------------------------------------------------------------
# One timing loop
# ---------------------------------------------------------------------------

def test_one_shot_run_builds_the_shared_precompute(trace):
    machine = MachineConfig().with_earlygen(
        EarlyGenConfig(64, 0, SelectionMode.HARDWARE)
    )
    before = precompute.replay_path_counts()
    TimingSimulator(trace, machine).run()
    uids, store = trace.program._sim_precompute
    assert uids is trace.uids
    pre = store[_machine_key(machine)]
    assert get_precompute(trace, machine) is pre
    # Live outcomes only: no stream was derived and no path counted.
    assert pre._live_records is not None
    assert not pre._dstreams and not pre._estreams
    assert precompute.replay_path_counts() == before


def test_run_and_every_sweep_config_call_the_one_scheduler(
        trace, monkeypatch):
    calls = []
    real_replay = precompute._replay

    def counting_replay(*args, **kwargs):
        calls.append(kwargs.get("sim") is not None)
        return real_replay(*args, **kwargs)

    monkeypatch.setattr(precompute, "_replay", counting_replay)
    hw_dual = EarlyGenConfig(256, 1, SelectionMode.HARDWARE)
    TimingSimulator(trace, MachineConfig().with_earlygen(hw_dual)).run()
    assert calls == [True]
    simulate_many(trace, [EarlyGenConfig(64, 1), hw_dual])
    # One streamed config, one declined to live outcomes.
    assert calls == [True, False, True]


def test_warm_run_uses_fast_path_and_matches_inline(trace):
    machine = MachineConfig().with_earlygen(
        EarlyGenConfig(64, 0, SelectionMode.HARDWARE)
    )
    live = stats_to_record(TimingSimulator(trace, machine).run())
    (batched,) = simulate_many(trace, [machine])
    assert stats_to_record(batched) == live
    # The precompute is now warm: a second sweep streams again and
    # agrees, while a plain run() takes no stream path.
    assert getattr(trace.program, "_sim_precompute", None) is not None
    before = precompute.replay_path_counts()
    (again,) = simulate_many(trace, [machine])
    assert stats_to_record(again) == live
    streamed = precompute.replay_path_counts()
    assert streamed.get("scalar", 0) == before.get("scalar", 0) + 1
    assert stats_to_record(TimingSimulator(trace, machine).run()) == live
    assert precompute.replay_path_counts() == streamed


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


def test_hw_dual_configs_fall_back_to_inline(trace):
    machine = MachineConfig().with_earlygen(
        EarlyGenConfig(16, 2, SelectionMode.HARDWARE)
    )
    assert precompute.try_fast(
        TimingSimulator(trace, machine)
    ) is None
    live = stats_to_record(TimingSimulator(trace, machine).run())
    (batched,) = simulate_many(trace, [machine])
    assert stats_to_record(batched) == live


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
        live = stats_to_record(
            TimingSimulator(trace, machine).run()
        )
        fast = precompute.try_fast(
            TimingSimulator(trace, machine)
        )
        assert fast is not None
        assert stats_to_record(fast) == live
        patched = precompute.divergence_count() - before
        if patched:
            diverged = True
            # Every run starts from an empty exclusion set, so a rerun
            # re-converges along the same path to the same stats.
            again = precompute.divergence_count()
            rerun = precompute.try_fast(
                TimingSimulator(trace, machine)
            )
            assert stats_to_record(rerun) == live
            assert precompute.divergence_count() - again == patched
    assert diverged, "seeds no longer produce divergence; rotate them"
    assert precompute.divergence_fallback_count() == fallbacks_before


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
            continue  # timelines run on live outcomes only
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
