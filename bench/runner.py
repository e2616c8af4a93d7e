"""Spawn, time and check the workloads; assemble runs and result sets.

Every timed repeat runs the workload's harness command(s) as fresh
child processes in a fresh working directory under ``bench/.work`` and
reaps each one with ``os.wait4``, so CPU time and peak RSS belong to
that run's process tree alone.  Repeats are closed-loop: one client
starts the next command only after the previous one exited.
"""

from __future__ import annotations

import json
import os
import platform
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from bench import metrics
from bench.check import degraded_rows, failed_rows, parse_rows

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY = "repro.harness.main"
ENTRY_FILE = SRC / "repro" / "harness" / "main.py"
CHILD = ROOT / "bench" / "child.py"
REFERENCE = ROOT / "bench" / "reference"
WORK = ROOT / "bench" / ".work"

#: Cores the benchmark may use; no workload runs more jobs than this.
CORES = 2
#: Set-up-only spawns per driver run, so ``setup_s`` is a median of
#: several samples even when one repeat fills the whole run.
SETUP_PROBES = 9
#: A driver run must end within 180 s; children are killed after this.
RUN_DEADLINE_S = 170.0
#: Without a run deadline (result sets), a child is killed after this.
CHILD_TIMEOUT_S = 900.0

_CACHE_LINE = re.compile(r"result cache: (\d+) hits, (\d+) misses")


def simplex_tokens(step: int = 20) -> List[str]:
    """The class-mix grid of ``repro.workloads.gen.sweep.simplex_tokens``.

    Spelled out here so that the parent process never imports the
    program it measures; a self-test keeps the two equal.
    """
    return [f"n{nt}p{pd}e{100 - nt - pd}"
            for nt in range(0, 101, step)
            for pd in range(0, 101 - nt, step)]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the harness argv of each invocation."""

    name: str
    args: Tuple[str, ...]
    #: The seeded generated-program sweep: a cold invocation, then a
    #: warm one against the same fresh result store.
    gen: bool = False

    def invocations(self, seed: int, store: Path) -> List[List[str]]:
        if not self.gen:
            return [list(self.args)]
        names = ",".join(f"gen:{t}:{seed}" for t in simplex_tokens())
        argv = ["--workloads", names, *self.args,
                "--result-cache", str(store)]
        return [argv, argv]

    def reference(self, seed: int) -> Optional[str]:
        """Committed expected stdout; seeds other than 0 of the gen
        sweep have none (their warm output must equal the cold one)."""
        if self.gen and seed != 0:
            return None
        return (REFERENCE / f"{self.name}.txt").read_text(encoding="utf-8")


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("tables-small", ("--scale", "0.05")),
    Workload("tables-full", ("--scale", "1.0")),
    Workload("ablation", ("--scale", "0.25", "--predictor", "all")),
    Workload("gen-sweep", ("--scale", "1.0", "--jobs", str(CORES)), gen=True),
)}


class SourceMissing(RuntimeError):
    """The checkout holds no program to measure."""


def require_source() -> None:
    if not ENTRY_FILE.is_file():
        raise SourceMissing(f"no program to measure: {ENTRY_FILE} is missing")


# ---------------------------------------------------------------------------
# One child process
# ---------------------------------------------------------------------------

@dataclass
class Exit:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: Optional[float]
    stdout: str
    stderr: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(mode: str, module: str, args: Sequence[str], cwd: Path,
          label: str, deadline: float) -> Exit:
    """Run ``child.py MODE STAMP MODULE ARGS`` in *cwd* and reap it.

    The child leads its own process group, so a child that outlives
    *deadline* is killed together with any workers it forked.
    """
    stamp = cwd / f"{label}.stamp"
    out_path, err_path = cwd / f"{label}.stdout", cwd / f"{label}.stderr"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               TMPDIR=str(cwd))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), mode, str(stamp), module, *args],
            cwd=cwd, stdout=out, stderr=err, env=env,
            start_new_session=True,
        )
        killer = threading.Timer(max(0.0, deadline - t0), _kill_group,
                                 (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = float(stamp.read_text()) - t0 if stamp.exists() else None
    return Exit(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=setup,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


@contextmanager
def _scratch(prefix: str) -> Iterator[Path]:
    """A fresh working directory under ``bench/.work``, removed after."""
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=prefix + "-", dir=WORK) as path:
        yield Path(path)


def probe(deadline: float) -> float:
    """Set-up time of one spawn that only imports the entry module."""
    with _scratch("probe") as cwd:
        done = spawn("import", ENTRY, [], cwd, "probe", deadline)
    if done.returncode != 0 or done.setup_s is None:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr[-2000:]}")
    return done.setup_s


def warm_up(deadline: float) -> None:
    """Untimed: byte-compile the program and import its entry module."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, stdout=subprocess.DEVNULL)
    probe(deadline)


# ---------------------------------------------------------------------------
# Row accounting
# ---------------------------------------------------------------------------

def account(reference: Optional[str], outputs: Sequence[str],
            codes: Sequence[int]) -> Tuple[int, List[tuple]]:
    """``(rows attempted, failed row keys)`` over one repeat's outputs.

    Without a reference the first output is checked for ERROR/TIMEOUT
    rows and every later output must equal it.  A non-zero exit fails
    every row of that invocation; an output without rows is one failure.
    """
    ref = parse_rows(reference) if reference is not None else None
    first = None
    attempted, failures = 0, []
    for text, code in zip(outputs, codes):
        rows = parse_rows(text)
        base = ref if ref is not None else first
        if base is None:
            keys, bad = list(rows), degraded_rows(rows)
            first = rows
        else:
            keys = list(dict.fromkeys([*base, *rows]))
            bad = failed_rows(base, rows)
        if code != 0 or not keys:
            bad = keys or [("", f"exit status {code}, no rows")]
        attempted += max(len(keys), len(bad))
        failures += bad
    return attempted, failures


# ---------------------------------------------------------------------------
# Repeats, traced pass, summaries
# ---------------------------------------------------------------------------

def run_repeat(workload: Workload, seed: int, deadline: float) -> dict:
    """One timed repeat: every invocation of the workload, in order."""
    with _scratch(workload.name) as cwd:
        exits = [
            spawn("run", ENTRY, argv, cwd, f"run{i}", deadline)
            for i, argv in enumerate(
                workload.invocations(seed, cwd / "result-cache"))
        ]
    attempted, failures = account(
        workload.reference(seed), [e.stdout for e in exits],
        [e.returncode for e in exits])
    hits = misses = 0
    for e in exits:
        found = _CACHE_LINE.findall(e.stderr)
        if found:
            hits += int(found[-1][0])
            misses += int(found[-1][1])
    return {
        "wall_s": sum(e.wall_s for e in exits),
        "cpu_s": sum(e.cpu_s for e in exits),
        "peak_rss_mb": max(e.rss_mb for e in exits),
        "setup_s": [e.setup_s for e in exits if e.setup_s is not None],
        "cold_wall_s": exits[0].wall_s,
        "cold_cpu_s": exits[0].cpu_s,
        "warm_wall_s": sum(e.wall_s for e in exits[1:]),
        "hits": hits,
        "misses": misses,
        "attempted": attempted,
        "failures": failures,
        "stdout": exits[0].stdout,
        "errors": [e.stderr[-2000:] for e in exits if e.returncode],
    }


def summarize_repeats(repeats: List[dict], setup: List[float]) -> dict:
    """End-to-end summaries and row accounting of a workload's repeats."""
    e2e = {
        name: metrics.summarize([r[name] for r in repeats])
        for name in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    e2e["setup_s"] = metrics.summarize(
        setup + [s for r in repeats for s in r["setup_s"]])
    attempted = sum(r["attempted"] for r in repeats)
    failures = [f for r in repeats for f in r["failures"]]
    return {
        "end_to_end": {m.name: e2e[m.name] for m in metrics.END_TO_END},
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": [list(f) for f in dict.fromkeys(map(tuple, failures))][:20],
        "errors": [e for r in repeats for e in r["errors"]][:3],
    }


def traced(workload: Workload, seed: int, repeats: List[dict],
           deadline: float) -> dict:
    """The traced pass plus the layer metrics the timed repeats give."""
    with _scratch(workload.name + "-trace") as cwd:
        argv = workload.invocations(seed, cwd / "result-cache")[0]
        done = spawn("run", "bench.traced",
                     ["--out", "layers.json", "--", *argv],
                     cwd, "trace", deadline)
        layers = (json.loads((cwd / "layers.json").read_text())
                  if done.returncode == 0 else
                  {"metrics": {}, "programs": {}})
    reference = workload.reference(seed)
    if reference is None:
        reference = repeats[0]["stdout"]
    attempted, failures = account(reference, [done.stdout],
                                  [done.returncode])
    values = layers["metrics"]
    med = metrics.median
    values.update({
        "harness.parallel.busy_frac": med(
            [r["cold_cpu_s"] / (CORES * r["cold_wall_s"]) for r in repeats]),
        "service.store.cold_wall_s": med([r["cold_wall_s"] for r in repeats]),
        "service.store.warm_frac": med(
            [r["warm_wall_s"] / r["cold_wall_s"] for r in repeats]),
        "service.store.hits": repeats[0]["hits"],
        "service.store.misses": repeats[0]["misses"],
        "obs.trace_overhead_frac": (
            done.wall_s / med([r["wall_s"] for r in repeats]) - 1.0),
    })
    return {
        "per_layer": {
            m.name: int(values[m.name]) if m.unit == "count"
            else values[m.name]
            for m in metrics.PER_LAYER if m.name in values
        },
        "programs": layers["programs"],
        "traced_wall_s": done.wall_s,
        "attempted": attempted,
        "failures": [list(f) for f in failures],
        "errors": [done.stderr[-2000:]] if done.returncode else [],
    }


def _with_traced(summary: dict, layers: dict) -> dict:
    """Fold the traced pass into a workload summary; its rows count."""
    summary.update(
        per_layer=layers["per_layer"],
        programs=layers["programs"],
        traced_wall_s=layers["traced_wall_s"],
        attempted=summary["attempted"] + layers["attempted"],
        failed=summary["failed"] + len(layers["failures"]),
        failures=(summary["failures"] + layers["failures"])[:20],
        errors=summary["errors"] + layers["errors"],
    )
    summary["failed_frac"] = summary["failed"] / summary["attempted"]
    return summary


# ---------------------------------------------------------------------------
# The two ways to run: one workload for a fixed time, or a result set
# ---------------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: repeats until *seconds* are used."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[name]
    warm_up(deadline)
    setup = [probe(deadline) for _ in range(SETUP_PROBES)]
    repeats: List[dict] = []
    started = time.monotonic()
    while True:
        repeats.append(run_repeat(workload, seed, deadline))
        # Start another repeat only if it should end within the budget.
        if (time.monotonic() - started + repeats[-1]["wall_s"]
                > seconds):
            break
    result = summarize_repeats(repeats, setup)
    if trace:
        result = _with_traced(
            result, traced(workload, seed, repeats, deadline))
    return result


def driver_line(result: dict, trace: bool) -> str:
    """The one-line JSON result of a driver run."""
    if trace:
        values = {name: (metrics.BY_NAME[name].unit, value)
                  for name, value in result["per_layer"].items()}
    else:
        values = {name: (metrics.BY_NAME[name].unit, summary["median"])
                  for name, summary in result["end_to_end"].items()}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (unit, value) in values.items()},
    })


def host_info() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {
        "rev": rev,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_set(names: Sequence[str], seed: int, repeats: int,
            progress=None) -> dict:
    """A result set: warm-up, *repeats* interleaved rounds, traced passes.

    Rounds go round-robin over the workloads (A1 B1 C1 A2 ...) so that
    a slow spell of the host spreads over every workload.
    """
    def deadline() -> float:
        return time.monotonic() + CHILD_TIMEOUT_S

    warm_up(deadline())
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    setup: Dict[str, List[float]] = {name: [] for name in names}
    for round_no in range(1, repeats + 1):
        for name in names:
            setup[name] += [probe(deadline()) for _ in range(2)]
            rep = run_repeat(WORKLOADS[name], seed, deadline())
            runs[name].append(rep)
            if progress is not None:
                progress(f"round {round_no}/{repeats} {name}: "
                         f"{rep['wall_s']:.2f} s")
    out = {"schema": 1, "host": host_info(), "seed": seed,
           "repeats": repeats, "workloads": {}}
    for name in names:
        layers = traced(WORKLOADS[name], seed, runs[name], deadline())
        out["workloads"][name] = _with_traced(
            summarize_repeats(runs[name], setup[name]), layers)
        if progress is not None:
            progress(f"traced {name}: {layers['traced_wall_s']:.2f} s")
    return out
