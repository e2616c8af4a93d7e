"""End-to-end observability: --trace-out through main/bench/obs_report.

One spec-suite run at a tiny scale produces JSONL trace files plus a
manifest; these tests assert the trace validates, that the per-stage
summary covers every pipeline layer (compiler passes, simulator
replays, harness tasks), and that ``obs_report``'s load-class table —
computed purely from ``profile.classes`` trace events — matches the
rows ``experiment_table(ctx, "table2")`` computes directly.
"""

import json

import pytest

from repro import obs
from repro.harness import obs_report
from repro.harness.experiments import ExperimentContext, experiment_table
from repro.harness.main import main
from repro.harness.obs_report import (
    class_rows,
    read_trace,
    sim_totals,
    stage_summary,
    validate,
    worker_summary,
)

SCALE = 0.02


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    code = main([
        "--scale", str(SCALE), "--suite", "spec",
        "--trace-out", str(out),
    ])
    assert code == 0
    # main() must uninstall its tracer even when called in process.
    assert obs.current() is obs.NULL_TRACER
    return out


def test_trace_validates(trace_dir):
    assert validate(trace_dir) == []


def test_manifest_contents(trace_dir):
    manifest = json.loads((trace_dir / "manifest.json").read_text())
    assert manifest["command"] == "repro.harness.main"
    assert manifest["scale"] == SCALE
    assert manifest["degraded"] == []
    assert manifest["trace_files"]
    names = {w["name"] for w in manifest["workloads"]}
    assert "022.li" in names
    for entry in manifest["workloads"]:
        assert entry["status"] == "ok"
        assert len(entry["artifact_key"]) == 32


def test_stage_summary_covers_every_layer(trace_dir):
    stages = {row["stage"] for row in stage_summary(read_trace(trace_dir))}
    # Harness, compiler, and simulator layers all appear in one trace.
    assert {"run", "workload", "prepare", "compile", "frontend",
            "regalloc", "emulate", "profile", "sim"} <= stages
    assert any(s.startswith("pass:") for s in stages)


def _workload_spans(records):
    return sorted(
        (r["tags"]["workload"], r["tags"]["status"])
        for r in records
        if r.get("kind") == "span" and r["name"] == "workload"
    )


def test_trace_shape_same_at_1_and_n_jobs(trace_dir, tmp_path):
    """--jobs 1 and the default (one job per core) trace the same
    stages and the same tagged ``workload`` spans."""
    out = tmp_path / "trace"
    assert main([
        "--scale", str(SCALE), "--suite", "spec", "--jobs", "1",
        "--trace-out", str(out),
    ]) == 0
    many, one = read_trace(trace_dir), read_trace(out)
    assert ({row["stage"] for row in stage_summary(one)}
            == {row["stage"] for row in stage_summary(many)})
    assert _workload_spans(one) == _workload_spans(many)
    assert {status for _, status in _workload_spans(many)} == {"ok"}


def test_class_rows_match_table2(trace_dir):
    rows = {r["benchmark"]: r for r in class_rows(read_trace(trace_dir))}
    expected = experiment_table(ExperimentContext(scale=SCALE), "table2")
    assert set(rows) == {r["benchmark"] for r in expected}
    for exp in expected:
        got = rows[exp["benchmark"]]
        for key, value in exp.items():
            if isinstance(value, float):
                assert got[key] == pytest.approx(value)
            else:
                assert got[key] == value


def test_sim_totals_has_baseline_and_configs(trace_dir):
    totals = {r["config"]: r for r in sim_totals(read_trace(trace_dir))}
    assert "baseline" in totals
    assert len(totals) > 1  # the early-gen sweep configs
    base = totals["baseline"]
    assert base["cycles"] > 0
    assert base["instructions"] > 0


def test_report_cli_renders_and_validates(trace_dir, capsys):
    assert obs_report.main([str(trace_dir), "--validate"]) == 0
    assert obs_report.main([str(trace_dir)]) == 0
    out = capsys.readouterr().out
    assert "Per-stage wall time" in out
    assert "Table 2 projection" in out
    assert "022.li" in out


def test_report_cli_flags_corruption(tmp_path, capsys):
    assert obs_report.main([str(tmp_path / "nope"), "--validate"]) == 2
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "trace-1.jsonl").write_text(
        '{"schema":99,"kind":"mystery"}\nnot json\n', encoding="utf-8"
    )
    assert obs_report.main([str(bad), "--validate"]) == 1
    err = capsys.readouterr().err
    assert "missing manifest.json" in err
    assert "not valid JSON" in err
    assert "schema" in err


@pytest.fixture(scope="module")
def pooled_trace_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pooled-trace")
    code = main([
        "--scale", str(SCALE), "--suite", "media",
        "--jobs", "2", "--trace-out", str(out),
    ])
    assert code == 0
    return out


def test_parallel_run_tags_workers(pooled_trace_dir):
    out = pooled_trace_dir
    assert validate(out) == []
    workers = {row["worker"] for row in worker_summary(read_trace(out))}
    assert "main" in workers
    assert any(w.startswith("w") and w != "main" for w in workers)
    # Pool workers wrote their own per-pid files.
    assert len(list(out.glob("*.jsonl"))) >= 2


def test_pool_workers_report_busy_time(pooled_trace_dir):
    """A forked worker keeps the parent's tags but not its open ``run``
    span as a parent: its ``workload`` spans are top-level in its own
    file, so the per-worker table counts them as busy time."""
    records = read_trace(pooled_trace_dir)
    spans = [r for r in records
             if r.get("kind") == "span" and r["name"] == "workload"]
    assert len(spans) == 13
    assert all(r["parent_id"] is None for r in spans)
    assert all(r["tags"]["suite"] == "media" for r in spans)
    pool = [row for row in worker_summary(records)
            if row["worker"].startswith("w")]
    assert {row["worker"] for row in pool} == {"w0", "w1"}
    assert all(row["busy_s"] > 0 for row in pool)
