"""A generated program is compiled, emulated and profiled once.

The planner's accepted probe compiles the program's default-scale
source with the harness's options, so ``ExperimentContext.run`` at
scale 1.0 serves those artifacts instead of building them again.  These
tests pin that the served run equals an independent one, that every
check still bites on it, and that planning alone holds at most one
prepared run.  Fresh planning needs a fresh process (plans are cached
per process), hence the subprocesses.
"""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.compiler.driver import compile_source
from repro.workloads.gen import materialize, provenance
from repro.workloads.registry import take_prepared

_SRC = str(Path(__file__).resolve().parents[2] / "src")
_ENV = dict(os.environ, PYTHONPATH=_SRC)

#: A seed-0 simplex program whose plan accepts its first probe.
_NAME = "gen:n40p20e40:0"

_EQUIVALENCE = """
import json, sys
from dataclasses import asdict
from repro import obs
from repro.compiler.driver import CompileOptions, compile_source
from repro.harness.experiments import ExperimentContext
from repro.sim.executor import Executor
from repro.sim.machine import BASELINE, PROPOSED, MachineConfig
from repro.sim.precompute import simulate_many
from repro.workloads import get_workload

name, trace_dir = sys.argv[1:]
obs.configure(trace_dir, worker="main")
ctx = ExperimentContext(scale=1.0)
served = {
    "listing": ctx.run(name).compile_result.listing(),
    "stats": [asdict(ctx.baseline_stats(name)),
              asdict(ctx.sim(name, PROPOSED))],
}
obs.disable()
result = compile_source(get_workload(name).source(),
                        CompileOptions(verify=True))
trace = Executor(result.program).run().trace
independent = {
    "listing": result.listing(),
    "stats": [asdict(s) for s in simulate_many(
        trace, [BASELINE, PROPOSED], machine=MachineConfig())],
}
print(json.dumps({"served": served, "independent": independent}))
"""


def test_gen_run_equals_an_independent_run_and_compiles_once(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _EQUIVALENCE, _NAME, str(tmp_path)],
        capture_output=True, text=True, env=_ENV, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["served"] == got["independent"]
    compiles = [
        record
        for path in tmp_path.glob("*.jsonl")
        for record in map(json.loads, path.read_text().splitlines())
        if record["kind"] == "span" and record["name"] == "compile"
    ]
    assert len(compiles) == 1


@pytest.mark.parametrize("mode, needle", [
    ("corrupt-ir", "constant_propagation"),
    ("corrupt-output", "OutputMismatchError"),
])
def test_fault_injection_bites_where_the_probe_is_served(mode, needle):
    """At scale 1.0 the harness would serve the probe; an injected
    fault must still degrade the row."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.harness.main",
         "--workloads", "gen:mixed:0", "--scale", "1.0", "--jobs", "1",
         "--inject", f"gen:mixed:0={mode}"],
        capture_output=True, text=True, env=_ENV, timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    assert "ERROR" in proc.stdout
    assert needle in proc.stdout


def test_planning_without_running_keeps_at_most_one_pending_set(
    monkeypatch,
):
    """``gen diff`` and ``provenance()`` plan without running: only the
    latest plan's probe stays alive, and taking it releases it."""
    from repro.workloads.gen import planner

    compiled = []

    def tracking(source, options=None):
        result = compile_source(source, options)
        compiled.append(weakref.ref(result))
        return result

    monkeypatch.setattr(planner, "compile_source", tracking)
    names = [f"gen:n20p40e40-a10:{seed}" for seed in range(5)]
    for name in names:
        provenance(name)
    gc.collect()
    alive = [ref() for ref in compiled if ref() is not None]
    assert len(compiled) >= len(names)
    assert len(alive) == 1
    prepared = take_prepared(materialize(names[-1]).source())
    assert prepared is not None and prepared[0] is alive[0]
    del alive, prepared
    gc.collect()
    assert all(ref() is None for ref in compiled)


def test_served_programs_keep_their_emulate_and_profile_spans(tmp_path):
    """A served program's emulation and profile ran in the planner's
    probe; the trace still shows both stages under its name."""
    names = ["gen:n40p20e40:0", "gen:n34p33e33:0", "gen:n20p70e10:1"]
    proc = subprocess.run(
        [sys.executable, "-m", "repro.harness.main",
         "--workloads", ",".join(names), "--scale", "1.0", "--jobs", "1",
         "--trace-out", str(tmp_path)],
        capture_output=True, text=True, env=_ENV, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    spans: dict = {}
    for path in tmp_path.glob("*.jsonl"):
        for record in map(json.loads, path.read_text().splitlines()):
            if record["kind"] == "span":
                workload = record.get("tags", {}).get("workload")
                spans.setdefault(record["name"], set()).add(workload)
    for stage in ("emulate", "profile"):
        assert spans.get(stage, set()) >= set(names), stage
