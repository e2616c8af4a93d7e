"""--result-cache: warm runs skip compile+simulate with identical tables.

The store is the harness's resume mechanism, so every input that changes
a row — scale, predictor backends, injected faults, machine
configuration, code — must change its key: a resumed run never serves
rows computed for another configuration.
"""

import pytest

from repro.harness.experiments import ExperimentContext
from repro.harness.main import main
from repro.harness.runner import WorkloadRunner
from repro.harness import store as store_module
from repro.harness.store import ResultStore
from repro.sim.machine import MachineConfig

ARGS = ["--scale", "0.05", "--suite", "media"]


def _run(capsys, *extra):
    assert main(ARGS + list(extra)) == 0
    captured = capsys.readouterr()
    tables = "\n".join(
        line for line in captured.out.splitlines()
        if not line.startswith("total wall time:")
    )
    return tables, captured.err


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "cache"


def test_warm_run_is_identical_and_all_hits(capsys, cache_dir):
    cold_out, cold_err = _run(capsys, "--result-cache", str(cache_dir))
    store = ResultStore(cache_dir)
    n_entries = len(store.entries())
    assert n_entries > 0
    assert "result cache: 0 hits" in cold_err

    warm_out, warm_err = _run(capsys, "--result-cache", str(cache_dir))
    assert warm_out == cold_out  # byte-identical tables
    assert f"result cache: {n_entries} hits, 0 misses" in warm_err
    assert warm_err.count("(result-cache)") == n_entries


def test_warm_parallel_run_is_identical(capsys, cache_dir):
    cold_out, _ = _run(capsys, "--result-cache", str(cache_dir))
    warm_out, warm_err = _run(
        capsys, "--result-cache", str(cache_dir), "--jobs", "2"
    )
    assert warm_out == cold_out
    assert ", 0 misses" in warm_err


def test_key_is_sensitive_to_scale(capsys, cache_dir):
    _run(capsys, "--result-cache", str(cache_dir))
    _, err = _run(
        capsys, "--result-cache", str(cache_dir), "--scale", "0.06"
    )
    assert "result cache: 0 hits" in err  # different scale, different keys


def test_key_is_sensitive_to_predictor_backends(capsys, cache_dir):
    _run(capsys, "--result-cache", str(cache_dir))
    out, err = _run(capsys, "--result-cache", str(cache_dir),
                    "--predictor", "stride")
    assert "result cache: 0 hits" in err  # rows now carry the ablation
    assert "Predictor backend ablation" in out
    _, err = _run(capsys, "--result-cache", str(cache_dir),
                  "--predictor", "stride")
    assert ", 0 misses" in err


def test_key_is_sensitive_to_inject_mode(capsys, cache_dir):
    """A fault injected after a clean run recomputes instead of serving
    the clean rows: the workload degrades and the run exits 1."""
    _run(capsys, "--result-cache", str(cache_dir))
    code = main(ARGS + ["--result-cache", str(cache_dir),
                        "--inject", "adpcm_decode=corrupt-output"])
    captured = capsys.readouterr()
    assert code == 1
    assert "adpcm_decode: ERROR" in captured.err
    assert "OutputMismatchError" in captured.out


def test_key_is_sensitive_to_machine_config(tmp_path):
    store = ResultStore(tmp_path)

    def run(machine):
        ctx = ExperimentContext(scale=0.05, machine=machine)
        runner = WorkloadRunner(ctx, result_store=store)
        return runner.run_workload("adpcm_decode")

    default = run(MachineConfig())
    slow = run(MachineConfig(load_latency=4))
    assert not slow.cached
    assert default.rows["table4"]["speedup"] == pytest.approx(1.0161,
                                                              abs=1e-4)
    assert slow.rows["table4"]["speedup"] == pytest.approx(1.0453,
                                                           abs=1e-4)
    assert run(MachineConfig(load_latency=4)).cached


def test_key_is_sensitive_to_code_version(capsys, cache_dir, monkeypatch):
    _run(capsys, "--result-cache", str(cache_dir))
    monkeypatch.setattr(store_module, "code_version", lambda: "edited")
    _, err = _run(capsys, "--result-cache", str(cache_dir))
    assert "result cache: 0 hits" in err  # new code, new keys
