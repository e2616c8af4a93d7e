"""Figure 5a — prediction-table-only speedups (4..256 entries),
hardware-only allocation vs compiler-directed allocation."""

from benchmarks.conftest import emit
from repro.harness.experiments import experiment_table
from repro.harness.reporting import FIG5A_HEADERS, format_table


def test_fig5a(benchmark, ctx):
    rows = benchmark.pedantic(experiment_table, args=(ctx, "fig5a"),
                              rounds=1, iterations=1)
    emit(format_table(rows, headers=FIG5A_HEADERS,
                      title="Figure 5a — table-only speedup"))

    geo = rows[-1]
    assert geo["benchmark"] == "geomean"
    # Larger tables help (or at least never hurt) both schemes.
    assert geo["hw_256"] >= geo["hw_4"] - 0.01
    assert geo["cc_256"] >= geo["cc_4"] - 0.01
    # Early generation never slows the machine down materially.
    for row in rows:
        for key, value in row.items():
            if key != "benchmark":
                assert value > 0.9
    # The paper's contention claim, at our conflict-pressure scale: with
    # compiler support only the PD loads compete for entries, so the
    # smallest table loses less of its large-table speedup than the
    # hardware-only scheme does.
    cc_gap = geo["cc_256"] - geo["cc_4"]
    hw_gap = geo["hw_256"] - geo["hw_4"]
    assert cc_gap <= hw_gap + 0.01
