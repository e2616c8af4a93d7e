"""Ablations of the design choices DESIGN.md calls out.

These are not artifacts of the paper; they isolate the knobs the paper's
result depends on: the classical optimizations feeding classification,
the load latency being hidden, the dual-path combination, and the
profiling threshold.
"""

from benchmarks.conftest import SCALE, emit
from repro.compiler.driver import compile_source
from repro.compiler.profile_feedback import profile_overrides
from repro.harness.experiments import _geomean
from repro.harness.reporting import format_table
from repro.sim.executor import Executor
from repro.sim.machine import BASELINE, EarlyGenConfig, MachineConfig, SelectionMode
from repro.sim.pipeline import TimingSimulator
from repro.workloads import get_workload

SUBSET = ["023.eqntott", "147.vortex", "134.perl", "072.sc"]

PROPOSED = EarlyGenConfig(256, 1, SelectionMode.COMPILER)


def _speedup(trace, machine, earlygen, overrides=None):
    base = TimingSimulator(trace, machine.with_earlygen(BASELINE)).run()
    stats = TimingSimulator(
        trace, machine.with_earlygen(earlygen), overrides
    ).run()
    return base.cycles / stats.cycles


def _compile_run(name, **compile_kwargs):
    workload = get_workload(name)
    result = compile_source(workload.source(workload.scaled(SCALE)),
                            **compile_kwargs)
    trace = Executor(result.program).run().trace
    return result, trace


def test_ablation_optimization_prerequisites(benchmark):
    """Section 4: "Our heuristics are dependent on these optimizations".

    Compiling without the classical passes floods the program with
    stack-slot loads and misclassifies the hot indirections; the
    early-generation gain survives only partially.
    """

    def run():
        rows = []
        machine = MachineConfig()
        for name in SUBSET:
            row = {"benchmark": name}
            for label, level in (("opt2", 2), ("opt0", 0)):
                result, trace = _compile_run(name, opt_level=level)
                row[f"{label}_speedup"] = _speedup(
                    trace, machine, PROPOSED
                )
                counts = result.class_counts()
                row[f"{label}_loads"] = sum(counts.values())
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(rows, title="Ablation — classical opts off"))
    for row in rows:
        # naive code has far more static loads to get right
        assert row["opt0_loads"] > row["opt2_loads"]
        assert row["opt0_speedup"] > 0.95
        assert row["opt2_speedup"] > 1.0


def test_ablation_load_latency(benchmark):
    """The longer the load pipe, the more the scheme recovers."""

    def run():
        rows = []
        for name in SUBSET:
            _, trace = _compile_run(name)
            row = {"benchmark": name}
            for latency in (1, 2, 4):
                machine = MachineConfig(load_latency=latency)
                row[f"lat{latency}"] = _speedup(trace, machine, PROPOSED)
            rows.append(row)
        geo = {"benchmark": "geomean"}
        for latency in (1, 2, 4):
            geo[f"lat{latency}"] = _geomean(
                [r[f"lat{latency}"] for r in rows]
            )
        rows.append(geo)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(rows, title="Ablation — load latency sweep"))
    geo = rows[-1]
    assert geo["lat2"] >= geo["lat1"] - 0.01
    assert geo["lat4"] >= geo["lat2"] - 0.01


def test_ablation_single_vs_dual_path(benchmark):
    """The paper's core architectural claim: the dual-path combination
    beats either compiler-directed path alone on the same programs."""

    def run():
        machine = MachineConfig()
        rows = []
        for name in SUBSET:
            _, trace = _compile_run(name)
            rows.append(
                {
                    "benchmark": name,
                    "table_only": _speedup(
                        trace, machine,
                        EarlyGenConfig(256, 0, SelectionMode.COMPILER),
                    ),
                    "raddr_only": _speedup(
                        trace, machine,
                        EarlyGenConfig(0, 1, SelectionMode.COMPILER),
                    ),
                    "dual": _speedup(trace, machine, PROPOSED),
                }
            )
        geo = {
            "benchmark": "geomean",
            "table_only": _geomean([r["table_only"] for r in rows]),
            "raddr_only": _geomean([r["raddr_only"] for r in rows]),
            "dual": _geomean([r["dual"] for r in rows]),
        }
        rows.append(geo)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(rows, title="Ablation — single vs dual path"))
    geo = rows[-1]
    assert geo["dual"] >= geo["table_only"] - 0.005
    assert geo["dual"] >= geo["raddr_only"] - 0.005


def test_ablation_profile_threshold(benchmark):
    """Section 4.3's 60% threshold: lower thresholds flip more loads;
    the flipped set shrinks monotonically as the threshold rises."""

    def run():
        rows = []
        machine = MachineConfig()
        for name in SUBSET:
            result, trace = _compile_run(name)
            row = {"benchmark": name}
            for threshold in (0.3, 0.6, 0.9):
                overrides = profile_overrides(
                    result.program, trace, threshold
                )
                row[f"flips_{int(threshold * 100)}"] = len(overrides)
                row[f"spd_{int(threshold * 100)}"] = _speedup(
                    trace, machine, PROPOSED, overrides
                )
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(rows, title="Ablation — profiling threshold"))
    for row in rows:
        assert row["flips_30"] >= row["flips_60"] >= row["flips_90"]
        for threshold in (30, 60, 90):
            assert row[f"spd_{threshold}"] > 0.95


def test_ablation_1024_entry_hardware_table(benchmark):
    """The paper: "the 1024-entry hardware-only approach was required to
    consistently surpass the performance of the 256-entry
    compiler-directed approach"."""

    def run():
        machine = MachineConfig()
        rows = []
        for name in SUBSET:
            _, trace = _compile_run(name)
            rows.append(
                {
                    "benchmark": name,
                    "hw_256": _speedup(
                        trace, machine,
                        EarlyGenConfig(256, 0, SelectionMode.HARDWARE),
                    ),
                    "hw_1024": _speedup(
                        trace, machine,
                        EarlyGenConfig(1024, 0, SelectionMode.HARDWARE),
                    ),
                    "cc_256": _speedup(
                        trace, machine,
                        EarlyGenConfig(256, 0, SelectionMode.COMPILER),
                    ),
                }
            )
        geo = {
            "benchmark": "geomean",
            "hw_256": _geomean([r["hw_256"] for r in rows]),
            "hw_1024": _geomean([r["hw_1024"] for r in rows]),
            "cc_256": _geomean([r["cc_256"] for r in rows]),
        }
        rows.append(geo)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(rows, title="Ablation — 1024-entry hardware table"))
    geo = rows[-1]
    assert geo["hw_1024"] >= geo["hw_256"] - 0.005
    # at our (smaller) static footprints 256 entries already hold every
    # load, so the 1024-entry step is flat; the compiler-directed 256
    # stays within noise of both.
    assert geo["cc_256"] >= geo["hw_1024"] - 0.03
