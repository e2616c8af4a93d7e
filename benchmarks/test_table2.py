"""Table 2 — SPEC load-class mix and NT/PD prediction rates."""

from benchmarks.conftest import emit
from repro.harness.experiments import experiment_table
from repro.harness.reporting import TABLE2_HEADERS, format_table


def test_table2(benchmark, ctx):
    rows = benchmark.pedantic(
        experiment_table, args=(ctx, "table2"), rounds=1, iterations=1
    )
    emit(format_table(rows, headers=TABLE2_HEADERS,
                      title="Table 2 — SPEC suite"))

    assert len(rows) == 12
    avg_pd = sum(r["rate_pd"] for r in rows) / len(rows)
    avg_nt = sum(r["rate_nt"] for r in rows) / len(rows)
    # The paper's headline classification result: PD loads predict far
    # better than NT loads (93.0% vs 70.8% in the paper).
    assert avg_pd > 60
    assert avg_pd > avg_nt + 20
    # Every class is populated somewhere in the suite.
    assert any(r["dyn_ec"] > 30 for r in rows)  # li/vortex-style
    assert any(r["dyn_pd"] > 60 for r in rows)  # eqntott-style
