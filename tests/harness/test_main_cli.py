"""CLI smoke tests for ``python -m repro.harness.main``."""

import os

import pytest

from repro.harness import runner
from repro.harness.main import main


def test_cli_media_suite(capsys):
    assert main(["--scale", "0.05", "--suite", "media"]) == 0
    out = capsys.readouterr().out
    assert "Table 4" in out
    assert "adpcm_decode" in out
    assert "Table 2" not in out


def test_cli_spec_suite_subset(capsys):
    # spec suite includes all five SPEC artifacts
    assert main(["--scale", "0.03", "--suite", "spec"]) == 0
    out = capsys.readouterr().out
    for artifact in ("Table 2", "Figure 5a", "Figure 5b", "Figure 5c",
                     "Table 3"):
        assert artifact in out
    assert "Table 4" not in out


def test_cli_rejects_bad_suite():
    with pytest.raises(SystemExit):
        main(["--suite", "nope"])


def test_ablation_run_compiles_each_program_once(tmp_path, capsys):
    """The ablation row is a fragment of the workload's own task, so
    neither the parent nor a second task recompiles the program."""
    from repro.harness.obs_report import read_trace
    from repro.workloads import workload_names

    out = tmp_path / "trace"
    assert main([
        "--scale", "0.02", "--suite", "media", "--predictor", "all",
        "--jobs", "2", "--trace-out", str(out),
    ]) == 0
    assert "Predictor backend ablation" in capsys.readouterr().out
    compiles = [r["tags"]["workload"] for r in read_trace(out)
                if r.get("kind") == "span" and r["name"] == "compile"]
    assert sorted(compiles) == sorted(workload_names("mediabench"))


def _capture_runner(monkeypatch):
    from repro.harness.runner import WorkloadRunner

    seen = {}

    def run_suite(self, names):
        seen["jobs"] = self.jobs
        return []

    monkeypatch.setattr(WorkloadRunner, "run_suite", run_suite)
    return seen


def test_default_jobs_is_the_usable_core_count(monkeypatch, capsys):
    from repro.harness.main import usable_cores

    seen = _capture_runner(monkeypatch)
    assert main(["--scale", "0.02", "--suite", "media"]) == 0
    assert seen == {"jobs": usable_cores()}


def test_inject_resolves_names_like_workloads(capsys):
    """``--inject`` takes the names ``--workloads`` takes: a ``gen:``
    name is canonicalized, so the fault lands on the workload run."""
    code = main(["--scale", "0.05", "--jobs", "1",
                 "--workloads", "gen:mixed:0",
                 "--inject", "gen:mixed:0=crash"])
    assert code == 1
    out = capsys.readouterr().out
    assert "Degraded workloads (1/1)" in out
    assert "InjectedFault" in out
    with pytest.raises(SystemExit):
        main(["--workloads", "gen:mixed:0", "--inject", "gen:bogus=crash"])


def test_jobs_1_computes_rows_in_a_worker(tmp_path, monkeypatch, capsys):
    """``--jobs 1`` is a one-worker pool, not an in-process run."""
    pids = tmp_path / "pids"
    compute_rows = runner.compute_rows

    def recording(ctx, name, backends=()):
        with open(pids, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return compute_rows(ctx, name, backends)

    monkeypatch.setattr(runner, "compute_rows", recording)
    assert main(["--scale", "0.02", "--workloads", "adpcm_decode",
                 "--jobs", "1"]) == 0
    recorded = pids.read_text(encoding="utf-8").split()
    assert recorded and str(os.getpid()) not in recorded


def test_profile_includes_the_predictor_ablation(
        tmp_path, monkeypatch, capsys):
    """``--profile`` re-runs what was timed: with ``--predictor``, the
    ablation backends are part of the profiled rows."""
    from repro.sim.predictors import backend_names

    parent = os.getpid()
    profiled = []
    compute_rows = runner.compute_rows

    def recording(ctx, name, backends=()):
        if os.getpid() == parent:
            profiled.append(tuple(backends))
        return compute_rows(ctx, name, backends)

    monkeypatch.setattr(runner, "compute_rows", recording)
    monkeypatch.chdir(tmp_path)
    assert main(["--scale", "0.02", "--workloads", "adpcm_decode",
                 "--jobs", "1", "--predictor", "all", "--profile"]) == 0
    assert profiled == [tuple(backend_names())]
    assert (tmp_path / "PROFILE_adpcm_decode.txt").exists()
