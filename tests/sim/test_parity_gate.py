"""The three-way parity gate runs as its own entry module.

``python -m repro.sim.parity`` must load :mod:`repro.sim.precompute`
once: run as ``__main__`` from inside that module, ``runpy`` warned
and left two copies with separate caches and counters.
"""

import os
import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_parity_gate_runs_without_a_second_module_copy():
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.sim.parity", "--scale", "0.02", "--suite", "spec",
         "--workloads", "026.compress"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=_SRC),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "ok 026.compress (17 configs)" in proc.stdout
    assert "0 mismatches, 0 reference mismatches" in proc.stdout
