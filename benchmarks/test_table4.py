"""Table 4 — MediaBench load mix, prediction rates, and speedup under
the proposed configuration (256-entry table + one R_addr)."""

from benchmarks.conftest import emit
from repro.harness.experiments import experiment_table
from repro.harness.reporting import TABLE4_HEADERS, format_table


def test_table4(benchmark, ctx):
    rows = benchmark.pedantic(experiment_table, args=(ctx, "table4"),
                              rounds=1, iterations=1)
    emit(format_table(rows, headers=TABLE4_HEADERS,
                      title="Table 4 — MediaBench suite"))

    body = rows[:-1]
    average = rows[-1]
    assert len(body) == 13
    for row in body:
        assert row["speedup"] > 0.99

    # The paper's embedded-suite signature: MediaBench is markedly more
    # PD-dominated than SPEC (79.3% vs 58.1% dynamic PD in the paper).
    spec_rows = experiment_table(ctx, "table2")
    spec_dyn_pd = sum(r["dyn_pd"] for r in spec_rows) / len(spec_rows)
    assert average["dyn_pd"] > spec_dyn_pd
    # ...and its PD loads predict well.
    assert average["rate_pd"] > 60
