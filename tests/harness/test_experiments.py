"""Experiment-harness tests at tiny scales.

These check the *shape* invariants the paper's evaluation rests on and
that every table is computed from its one :data:`TABLES` declaration;
the full-scale numbers live in benchmarks/ and EXPERIMENTS.md.
"""

import math
import sys
from pathlib import Path

import pytest

from repro.harness import experiments
from repro.harness.experiments import (
    FIG5A_TABLE_SIZES,
    FIG5B_REG_COUNTS,
    TABLES,
    ExperimentContext,
    _geomean,
    experiment_table,
    sim_requests,
    table_spec,
)
from repro.harness.reporting import TABLE2_HEADERS, format_table
from repro.harness.runner import compute_rows
from repro.sim import precompute
from repro.sim.machine import PROPOSED
from repro.sim.pipeline import TimingSimulator

#: Small but non-trivial subsets keep this module quick.
SPEC_SUBSET = ["023.eqntott", "147.vortex", "134.perl"]
MEDIA_SUBSET = ["adpcm_decode", "gsm_encode"]

REFERENCE = (Path(__file__).resolve().parents[2]
             / "bench" / "reference" / "tables-small.txt")


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
    rows = experiment_table(ctx, "table2", SPEC_SUBSET)
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
    rows = experiment_table(ctx, "table2", SPEC_SUBSET)
    avg_pd = sum(r["rate_pd"] for r in rows) / len(rows)
    avg_nt = sum(r["rate_nt"] for r in rows) / len(rows)
    assert avg_pd > avg_nt


def test_fig5a_bigger_tables_never_hurt(ctx):
    rows = experiment_table(ctx, "fig5a", SPEC_SUBSET)
    geo = rows[-1]
    assert geo["benchmark"] == "geomean"
    for small, big in zip(FIG5A_TABLE_SIZES, FIG5A_TABLE_SIZES[1:]):
        assert geo[f"hw_{big}"] >= geo[f"hw_{small}"] - 0.01
        assert geo[f"cc_{big}"] >= geo[f"cc_{small}"] - 0.01
    for row in rows:
        for key, value in row.items():
            if key != "benchmark":
                assert value > 0.85  # early generation never tanks


def test_fig5b_more_registers_never_hurt(ctx):
    rows = experiment_table(ctx, "fig5b", SPEC_SUBSET)
    geo = rows[-1]
    for few, more in zip(FIG5B_REG_COUNTS, FIG5B_REG_COUNTS[1:]):
        assert geo[f"regs_{more}"] >= geo[f"regs_{few}"] - 0.01


def test_fig5c_compiler_beats_hardware_dual(ctx):
    rows = experiment_table(ctx, "fig5c", SPEC_SUBSET)
    geo = rows[-1]
    assert geo["cc_dual"] >= geo["hw_dual"] - 0.005
    assert geo["cc_prof"] >= geo["cc_dual"] - 0.005
    for key in ("hw_table", "hw_calc", "hw_dual", "cc_dual", "cc_prof"):
        assert geo[key] >= 0.95


def test_table3_profile_changes_classes(ctx):
    t2 = experiment_table(ctx, "table2", SPEC_SUBSET)
    t3 = experiment_table(ctx, "table3", SPEC_SUBSET)
    by_name2 = {r["benchmark"]: r for r in t2}
    assert t3[-1]["benchmark"] == "average"
    for row in t3[:-1]:
        base = by_name2[row["benchmark"]]
        # profiling can only grow the PD share
        assert row["static_pd"] >= base["static_pd"] - 1e-9
        assert row["dyn_pd"] >= base["dyn_pd"] - 1e-9
        assert row["speedup"] > 0.9
    # ...and does grow it somewhere: Table 3 is reclassified.
    assert any(row["static_pd"] > by_name2[row["benchmark"]]["static_pd"]
               for row in t3[:-1])


def test_table4_shape(ctx):
    rows = experiment_table(ctx, "table4", MEDIA_SUBSET)
    assert rows[-1]["benchmark"] == "average"
    for row in rows[:-1]:
        assert row["speedup"] > 0.9
        assert row["dyn_pd"] >= 0


def test_format_table_renders(ctx):
    rows = experiment_table(ctx, "table2", SPEC_SUBSET[:1])
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


# ---------------------------------------------------------------------------
# One declaration per table
# ---------------------------------------------------------------------------

def test_speedup_columns_are_headers():
    for spec in TABLES:
        assert set(spec.speedups) <= set(spec.headers), spec.key
        assert "benchmark" in spec.headers


def test_sim_requests_are_the_tables_speedup_columns():
    for suite in ("spec", "mediabench", "gen"):
        declared = {
            (eg, profiled)
            for spec in TABLES if spec.suite == suite
            for eg, profiled in spec.speedups.values()
        }
        requests = sim_requests(suite)
        assert len(requests) == len(declared)
        assert {(r.earlygen, r.use_profile_override)
                for r in requests} == declared
        for r in requests:
            assert r.cache_key == ("profile" if r.use_profile_override
                                   else None)
    assert len(sim_requests("spec")) == 2 * len(FIG5A_TABLE_SIZES) + 6
    assert [r.earlygen for r in sim_requests("mediabench")] == [PROPOSED]
    with pytest.raises(ValueError):
        sim_requests("nope")
    with pytest.raises(KeyError):
        table_spec("nope")


def test_compute_rows_runs_one_sweep_per_workload(monkeypatch):
    """Every sim of a workload's rows, ablation included, is one
    ``simulate_many`` call; the harness itself never drives the
    timing simulator."""
    sweeps = []
    real_sweep = precompute.simulate_many

    def counting_sweep(trace, configs, *args, **kwargs):
        sweeps.append(len(configs))
        return real_sweep(trace, configs, *args, **kwargs)

    monkeypatch.setattr(precompute, "simulate_many", counting_sweep)
    monkeypatch.setattr(experiments, "simulate_many", counting_sweep,
                        raising=False)
    harness_calls = []
    for method in ("run", "_run_inline"):
        real = getattr(TimingSimulator, method)

        def wrapper(self, _real=real, _method=method):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("repro.harness"):
                harness_calls.append((_method, caller))
            return _real(self)

        monkeypatch.setattr(TimingSimulator, method, wrapper)

    ctx = ExperimentContext(scale=0.05)
    for name in ("023.eqntott", "adpcm_decode"):
        before = len(sweeps)
        rows = compute_rows(ctx, name, backends=("stride", "perceptron"))
        assert len(sweeps) == before + 1, name
        assert rows["ablation"]["perceptron"] > 0
    assert harness_calls == []


def _reference_cells(title: str, name: str):
    lines = REFERENCE.read_text(encoding="utf-8").splitlines()
    start = lines.index(title)
    for line in lines[start + 3:]:
        if not line.strip():
            break
        if line.split()[0] == name:
            return line.split()
    raise AssertionError(f"{name} not in reference table {title!r}")


@pytest.mark.parametrize("name", ["023.eqntott", "adpcm_decode"])
def test_compute_rows_match_reference_tables(name):
    """The rows of the CI-scale benchmark, cell for cell."""
    rows = compute_rows(ExperimentContext(scale=0.05), name)
    suite = "spec" if name.startswith("0") else "mediabench"
    specs = [spec for spec in TABLES if spec.suite == suite]
    assert set(rows) == {spec.key for spec in specs}
    for spec in specs:
        text = format_table([rows[spec.key]], columns=list(spec.headers),
                            headers=spec.headers)
        assert text.splitlines()[-1].split() == _reference_cells(
            spec.title, name), spec.key
