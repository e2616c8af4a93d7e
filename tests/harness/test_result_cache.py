"""--result-cache: warm runs skip compile+simulate with identical tables."""

import pytest

from repro.harness.main import main
from repro.service.store import ResultStore

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


def test_checkpoint_takes_precedence(capsys, cache_dir, tmp_path):
    """A checkpointed workload resumes from JSON, not the result store."""
    ckpt = tmp_path / "ckpt"
    _run(capsys, "--result-cache", str(cache_dir),
         "--checkpoint-dir", str(ckpt))
    _, err = _run(capsys, "--result-cache", str(cache_dir),
                  "--checkpoint-dir", str(ckpt))
    assert "(checkpointed)" in err
    assert "(result-cache)" not in err


def test_key_is_sensitive_to_predictor_backends(capsys, cache_dir):
    _run(capsys, "--result-cache", str(cache_dir))
    out, err = _run(capsys, "--result-cache", str(cache_dir),
                    "--predictor", "stride")
    assert "result cache: 0 hits" in err  # rows now carry the ablation
    assert "Predictor backend ablation" in out
    _, err = _run(capsys, "--result-cache", str(cache_dir),
                  "--predictor", "stride")
    assert ", 0 misses" in err
