"""Table 3 — profile-guided load classification (60% threshold)."""

from benchmarks.conftest import emit
from repro.harness.experiments import experiment_table
from repro.harness.reporting import TABLE3_HEADERS, format_table


def test_table3(benchmark, ctx):
    rows = benchmark.pedantic(experiment_table, args=(ctx, "table3"),
                              rounds=1, iterations=1)
    emit(format_table(rows, headers=TABLE3_HEADERS,
                      title="Table 3 — with address profiling"))

    base_rows = {r["benchmark"]: r for r in experiment_table(ctx, "table2")}
    body = rows[:-1]
    assert len(body) == 12
    for row in body:
        base = base_rows[row["benchmark"]]
        # Profiling only flips NT -> PD: PD shares can only grow.
        assert row["static_pd"] >= base["static_pd"] - 1e-9
        assert row["dyn_pd"] >= base["dyn_pd"] - 1e-9
        assert row["speedup"] > 1.0

    # The paper's Table 3 signature: moving the predictable NT loads
    # into PD *drops* the residual NT prediction rate.
    avg_nt_before = sum(base_rows[r["benchmark"]]["rate_nt"] for r in body)
    avg_nt_after = sum(r["rate_nt"] for r in body)
    assert avg_nt_after <= avg_nt_before + 1e-6
