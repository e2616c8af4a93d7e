"""Differential testing of generated programs.

Every generated program carries its own oracle (the pure-Python recipe
mirrors), which turns the generator into a randomized cross-check of the
whole stack.  For each program the driver asserts three invariants:

* **emulator == reference** — the compiled program's OUT stream equals
  the mirror's, at every requested optimization level;
* **opt-level invariance** — ``-O0``, ``-O1`` and ``-O2`` all produce
  that same stream (a miscompiling pass shows up as a diff between
  levels even if both are internally consistent);
* **sim-path parity** — the timing stats of the proposed configuration
  are byte-identical between ``simulate_many`` (precomputed streams)
  and the seed oracle :func:`~repro.sim._pipeline_reference.reference_run`.

Any violated invariant becomes a :class:`Mismatch` in the report rather
than an exception, so one bad seed doesn't hide the rest of the batch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Sequence

from repro import obs
from repro.compiler.driver import compile_source
from repro.sim._pipeline_reference import reference_run
from repro.sim.executor import execute
from repro.sim.machine import MachineConfig, PROPOSED
from repro.sim.pipeline import TimingSimulator
from repro.sim.precompute import simulate_many
from repro.workloads.gen import materialize

#: Optimization levels every program is compiled and run at.
OPT_LEVELS = (0, 1, 2)

#: The canonical × seed grid of the acceptance gate: 4 fingerprints,
#: 50 seeds each = 200 distinct programs.
DEFAULT_FINGERPRINTS = ("strided", "pointer", "irregular", "mixed")


@dataclass
class Mismatch:
    """One violated invariant of one generated program."""

    name: str
    check: str  # "reference" | "opt-invariance" | "sim-parity"
    detail: str


@dataclass
class DifferentialReport:
    """Outcome of one differential batch."""

    programs: int = 0
    checks: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_program(
    name: str,
    scale: float = 1.0,
    opt_levels: Sequence[int] = OPT_LEVELS,
) -> DifferentialReport:
    """Run every differential invariant for one generated workload."""
    report = DifferentialReport(programs=1)
    workload = materialize(name)
    scaled = workload.scaled(scale)
    expected = workload.expected_output(scaled)
    source = workload.source(scaled)

    outputs = {}
    for level in opt_levels:
        result = compile_source(source, opt_level=level)
        exec_result = execute(result.program)
        outputs[level] = (list(exec_result.output), exec_result.trace)
        report.checks += 1
        if outputs[level][0] != expected:
            report.mismatches.append(Mismatch(
                name, "reference",
                f"opt_level={level}: emulator {outputs[level][0]!r} != "
                f"reference {expected!r}",
            ))

    levels = [lvl for lvl in opt_levels if lvl in outputs]
    if len(levels) > 1:
        report.checks += 1
        base = outputs[levels[0]][0]
        for level in levels[1:]:
            if outputs[level][0] != base:
                report.mismatches.append(Mismatch(
                    name, "opt-invariance",
                    f"opt_level={level} output differs from "
                    f"opt_level={levels[0]}",
                ))

    if 2 in outputs:
        trace = outputs[2][1]
        machine = MachineConfig().with_earlygen(PROPOSED)
        reference = asdict(reference_run(TimingSimulator(trace, machine)))
        fast = asdict(simulate_many(trace, [PROPOSED])[0])
        report.checks += 1
        if reference != fast:
            diffs = [key for key in reference
                     if reference[key] != fast[key]]
            report.mismatches.append(Mismatch(
                name, "sim-parity",
                f"reference != simulate_many SimStats (fields: {diffs})",
            ))
    return report


def run_differential(
    names: Sequence[str],
    scale: float = 1.0,
    opt_levels: Sequence[int] = OPT_LEVELS,
    progress: Optional[Callable[[str], None]] = None,
) -> DifferentialReport:
    """Differentially test every workload in *names*; aggregate report."""
    tracer = obs.current()
    total = DifferentialReport()
    with tracer.span("gen.differential", programs=len(names)):
        for i, name in enumerate(names, 1):
            report = check_program(name, scale=scale, opt_levels=opt_levels)
            total.programs += report.programs
            total.checks += report.checks
            total.mismatches.extend(report.mismatches)
            if progress is not None:
                status = "ok" if report.ok else "MISMATCH"
                progress(f"[{i}/{len(names)}] {name}: {status}")
    return total


def batch_names(
    fingerprints: Sequence[str] = DEFAULT_FINGERPRINTS,
    seeds: int = 50,
    seed_base: int = 0,
) -> List[str]:
    """The ``gen:`` names of a fingerprints × seeds differential batch."""
    return [
        f"gen:{fp}:{seed_base + seed}"
        for fp in fingerprints
        for seed in range(seeds)
    ]
