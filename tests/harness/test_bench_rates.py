"""Zero-duration guards in the bench harness (regression tests).

``perf_counter`` differences legitimately reach 0.0 on coarse clocks or
trivially small workloads; every derived rate must degrade to 0.0
instead of raising ``ZeroDivisionError`` halfway through a snapshot.
"""

import time

from repro.harness.bench import (
    _rate,
    bench_workload,
    compare_snapshots,
    run_bench,
)


def test_rate_guards_zero_and_negative_denominators():
    assert _rate(5, 0, 2) == 0.0
    assert _rate(5, 0.0, 2) == 0.0
    assert _rate(5, -1.0, 2) == 0.0
    assert _rate(5, 2.0, 2) == 2.5
    assert _rate(1, 3.0, 2) == 0.33


def test_bench_workload_survives_frozen_clock(monkeypatch):
    """All stage durations 0.0 → rates 0.0, no ZeroDivisionError."""
    monkeypatch.setattr(time, "perf_counter", lambda: 42.0)
    entry = bench_workload("026.compress", 0.02)
    assert entry["sim_s"] == 0.0
    assert entry["precompute_s"] == 0.0
    assert entry["wall_s"] == 0.0
    assert entry["sims_per_sec"] == 0.0
    assert entry["sim_instructions_per_sec"] == 0.0
    assert entry["sim_runs"] > 0  # the sims themselves still ran


def test_run_bench_totals_survive_zero_sim_time(monkeypatch):
    from repro.harness import bench

    entry = {
        "suite": "spec", "wall_s": 0.0, "compile_s": 0.0,
        "emulate_s": 0.0, "profile_s": 0.0, "precompute_s": 0.0,
        "sim_s": 0.0, "sim_runs": 3, "trace_instructions": 10,
        "sim_instructions": 30, "sims_per_sec": 0.0,
        "sim_instructions_per_sec": 0.0,
    }
    monkeypatch.setattr(bench, "workload_names", lambda suite: ["fake"])
    monkeypatch.setattr(
        bench, "bench_workload", lambda name, scale: dict(entry)
    )
    snapshot = bench.run_bench(1.0, ("spec",))
    totals = snapshot["totals"]
    assert totals["sim_s"] == 0.0
    assert totals["sims_per_sec"] == 0.0
    assert totals["sim_instructions_per_sec"] == 0.0


def test_compare_snapshots_survives_zero_wall():
    zeroed = {
        "scale": 1.0, "suites": ["spec"],
        "totals": {"wall_s": 0.0, "sim_instructions_per_sec": 0.0},
        "workloads": {"a": {"wall_s": 0.0}},
    }
    healthy = {
        "scale": 1.0, "suites": ["spec"],
        "totals": {"wall_s": 2.0, "sim_instructions_per_sec": 100.0},
        "workloads": {"a": {"wall_s": 2.0}},
    }
    comparison = compare_snapshots(zeroed, healthy)
    assert "wall_speedup" not in comparison
    assert comparison["workload_wall_speedups"] == {}
    comparison = compare_snapshots(healthy, zeroed)
    assert "sim_throughput_ratio" not in comparison
