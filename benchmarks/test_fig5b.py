"""Figure 5b — early-calculation-only speedups (4/8/16 cached registers,
hardware-only BRIC-style cache)."""

from benchmarks.conftest import emit
from repro.harness.experiments import experiment_table
from repro.harness.reporting import FIG5B_HEADERS, format_table


def test_fig5b(benchmark, ctx):
    rows = benchmark.pedantic(experiment_table, args=(ctx, "fig5b"),
                              rounds=1, iterations=1)
    emit(format_table(rows, headers=FIG5B_HEADERS,
                      title="Figure 5b — early-calculation-only speedup"))

    geo = rows[-1]
    # More cached registers help...
    assert geo["regs_8"] >= geo["regs_4"] - 0.01
    assert geo["regs_16"] >= geo["regs_8"] - 0.01
    # ...but the paper's saturation: the 8->16 step gains less than 4->8.
    gain_48 = geo["regs_8"] - geo["regs_4"]
    gain_816 = geo["regs_16"] - geo["regs_8"]
    assert gain_816 <= gain_48 + 0.01
