"""CLI acceptance tests for the fault-isolated runner path.

These exercise the ISSUE's end-to-end scenario at a small scale: with
injected crashing and hanging workloads, the run completes every other
row, marks the victims ERROR/TIMEOUT, exits non-zero — and a second
invocation against the same ``--result-cache`` directory re-runs only
the previously failed workloads.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.main import main

MEDIA_ARGS = ["--scale", "0.05", "--suite", "media"]
_SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_injected_crash_degrades_and_exits_nonzero(capsys):
    code = main(MEDIA_ARGS + ["--inject", "adpcm_decode=crash"])
    assert code == 1
    out = capsys.readouterr().out
    assert "ERROR" in out
    assert "Degraded workloads (1/13)" in out
    assert "InjectedFault" in out
    # Every other workload still produced a real row.
    assert "gsm_decode" in out
    assert "average" in out


def test_injected_hang_times_out(capsys):
    code = main(
        MEDIA_ARGS
        + ["--timeout", "3", "--inject", "adpcm_decode=hang"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "TIMEOUT" in out
    assert "Degraded workloads (1/13)" in out


def test_hang_without_timeout_is_a_usage_error():
    """Without --timeout nothing ends a ``hang``, so it is refused at
    parse time.  Run in its own process group under a deadline, so a
    CLI that accepts it cannot wedge the suite."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.harness.main", "--scale", "0.02",
         "--workloads", "adpcm_decode", "--inject", "adpcm_decode=hang"],
        env=dict(os.environ, PYTHONPATH=_SRC),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("--inject hang without --timeout never finished")
    assert proc.returncode == 2
    assert "--timeout" in err


def test_resume_reruns_only_failures(tmp_path, capsys):
    store = str(tmp_path)
    assert main(
        MEDIA_ARGS
        + ["--result-cache", store, "--inject", "adpcm_decode=crash"]
    ) == 1
    capsys.readouterr()

    # Without the injected fault, the resume run recovers and exits 0.
    assert main(MEDIA_ARGS + ["--result-cache", store]) == 0
    err = capsys.readouterr().err
    assert err.count("(result-cache)") == 12
    assert "[1/13] adpcm_decode: OK in" in err
    assert "result cache: 12 hits, 1 misses" in err


def test_corrupt_ir_is_pinned_on_the_pass(capsys):
    code = main(MEDIA_ARGS + ["--inject", "adpcm_decode=corrupt-ir"])
    assert code == 1
    out = capsys.readouterr().out
    assert "IRVerificationError" in out
    assert "constant_propagation" in out


def test_bad_inject_spec_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(MEDIA_ARGS + ["--inject", "bogus"])
    with pytest.raises(SystemExit):
        main(MEDIA_ARGS + ["--inject", "adpcm_decode=explode"])


def test_resume_with_predictor_recomputes(tmp_path, capsys):
    """Rows stored without --predictor lack the ablation fragment and
    are keyed without backends, so resuming with it recomputes every
    workload."""
    args = ["--scale", "0.02", "--suite", "media",
            "--result-cache", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()

    assert main(args + ["--predictor", "all"]) == 0
    captured = capsys.readouterr()
    assert "(result-cache)" not in captured.err
    assert captured.err.count(": OK in") == 13
    assert "Predictor backend ablation" in captured.out
    assert "geomean" in captured.out

    # Now every stored row carries the fragment: a second resume skips all.
    assert main(args + ["--predictor", "all"]) == 0
    assert capsys.readouterr().err.count("(result-cache)") == 13
