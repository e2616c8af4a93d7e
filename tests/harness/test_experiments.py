"""Experiment-harness tests at tiny scales.

These check the *shape* invariants the paper's evaluation rests on; the
full-scale numbers live in benchmarks/ and EXPERIMENTS.md.
"""

import math

import pytest

from repro.harness.experiments import (
    ExperimentContext,
    _geomean,
    fig5a,
    fig5b,
    fig5c,
    table2,
    table3,
    table4,
)
from repro.harness.reporting import TABLE2_HEADERS, format_table

#: Small but non-trivial subsets keep this module quick.
SPEC_SUBSET = ["023.eqntott", "147.vortex", "134.perl"]
MEDIA_SUBSET = ["adpcm_decode", "gsm_encode"]


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(scale=0.12)


def test_context_caches_runs(ctx):
    first = ctx.run(SPEC_SUBSET[0])
    second = ctx.run(SPEC_SUBSET[0])
    assert first is second


def test_context_verifies_against_reference():
    bad = ExperimentContext(scale=0.12, verify=True)
    run = bad.run("023.eqntott")  # must not raise
    assert run.steps > 0


def test_table2_shape(ctx):
    rows = table2(ctx, SPEC_SUBSET)
    assert len(rows) == len(SPEC_SUBSET)
    for row in rows:
        assert row["static_nt"] + row["static_pd"] + row["static_ec"] == (
            pytest.approx(100.0)
        )
        assert row["dyn_nt"] + row["dyn_pd"] + row["dyn_ec"] == (
            pytest.approx(100.0)
        )
        assert 0 <= row["rate_nt"] <= 100
        assert 0 <= row["rate_pd"] <= 100
        assert row["dyn_loads"] > 0


def test_table2_pd_rate_exceeds_nt_rate_on_average(ctx):
    """The central classification claim: PD loads predict far better
    than NT loads."""
    rows = table2(ctx, SPEC_SUBSET)
    avg_pd = sum(r["rate_pd"] for r in rows) / len(rows)
    avg_nt = sum(r["rate_nt"] for r in rows) / len(rows)
    assert avg_pd > avg_nt


def test_fig5a_bigger_tables_never_hurt(ctx):
    rows = fig5a(ctx, SPEC_SUBSET, table_sizes=(64, 256))
    geo = rows[-1]
    assert geo["benchmark"] == "geomean"
    assert geo["hw_256"] >= geo["hw_64"] - 0.01
    assert geo["cc_256"] >= geo["cc_64"] - 0.01
    for row in rows:
        for key, value in row.items():
            if key != "benchmark":
                assert value > 0.85  # early generation never tanks


def test_fig5b_more_registers_never_hurt(ctx):
    rows = fig5b(ctx, SPEC_SUBSET, reg_counts=(4, 16))
    geo = rows[-1]
    assert geo["regs_16"] >= geo["regs_4"] - 0.01


def test_fig5c_compiler_beats_hardware_dual(ctx):
    rows = fig5c(ctx, SPEC_SUBSET)
    geo = rows[-1]
    assert geo["cc_dual"] >= geo["hw_dual"] - 0.005
    assert geo["cc_prof"] >= geo["cc_dual"] - 0.005
    for key in ("hw_table", "hw_calc", "hw_dual", "cc_dual", "cc_prof"):
        assert geo[key] >= 0.95


def test_table3_profile_changes_classes(ctx):
    t2 = table2(ctx, SPEC_SUBSET)
    t3 = table3(ctx, SPEC_SUBSET)
    by_name2 = {r["benchmark"]: r for r in t2}
    for row in t3[:-1]:
        base = by_name2[row["benchmark"]]
        # profiling can only grow the PD share
        assert row["static_pd"] >= base["static_pd"] - 1e-9
        assert row["dyn_pd"] >= base["dyn_pd"] - 1e-9
        assert row["speedup"] > 0.9


def test_table4_shape(ctx):
    rows = table4(ctx, MEDIA_SUBSET)
    assert rows[-1]["benchmark"] == "average"
    for row in rows[:-1]:
        assert row["speedup"] > 0.9
        assert row["dyn_pd"] >= 0


def test_format_table_renders(ctx):
    rows = table2(ctx, SPEC_SUBSET[:1])
    text = format_table(rows, headers=TABLE2_HEADERS, title="T")
    assert "Benchmark" in text
    assert SPEC_SUBSET[0] in text
    assert text.startswith("T\n")


def test_format_table_empty():
    assert format_table([]) == "(no rows)"


def test_geomean_positive_values():
    assert _geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert _geomean([1.0]) == pytest.approx(1.0)


def test_geomean_empty_is_nan_with_warning():
    with pytest.warns(RuntimeWarning, match="empty sequence"):
        assert math.isnan(_geomean([]))


def test_geomean_non_positive_is_nan_with_warning():
    for bad in ([1.0, 0.0], [1.0, -2.0], [1.0, float("nan")]):
        with pytest.warns(RuntimeWarning, match="undefined"):
            assert math.isnan(_geomean(bad))
