"""Figure 5c — the paper's headline comparison: best single-path
hardware vs dual-path hardware-only vs compiler-directed (with and
without address profiling)."""

from benchmarks.conftest import emit
from repro.harness.experiments import experiment_table
from repro.harness.reporting import FIG5C_HEADERS, format_table


def test_fig5c(benchmark, ctx):
    rows = benchmark.pedantic(experiment_table, args=(ctx, "fig5c"),
                              rounds=1, iterations=1)
    emit(format_table(rows, headers=FIG5C_HEADERS,
                      title="Figure 5c — dual-path comparison"))

    geo = rows[-1]
    # The paper's central claims, as orderings:
    # 1. compiler-directed dual-path beats run-time (hardware) selection
    #    on the same 256-entry + 1-register hardware;
    assert geo["cc_dual"] >= geo["hw_dual"]
    # 2. address profiling adds on top of the heuristics;
    assert geo["cc_prof"] >= geo["cc_dual"]
    # 3. the dual-path compiler scheme at 1 cached register is
    #    competitive with the much larger single-path configurations;
    assert geo["cc_dual"] >= geo["hw_table"] - 0.02
    assert geo["cc_prof"] >= geo["hw_calc"] - 0.05
    # 4. everything yields a real speedup over the no-early-gen baseline.
    for key in ("hw_table", "hw_calc", "hw_dual", "cc_dual", "cc_prof"):
        assert geo[key] > 1.0
