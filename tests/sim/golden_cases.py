"""Shared construction of the golden-SimStats cases.

The golden-stats test locks the timing simulator cycle-for-cycle against
a recorded snapshot: every program from ``examples/`` is replayed under a
spread of early-generation configs and machine variants, and the full
:class:`~repro.sim.stats.SimStats` counter set must match the JSON
recorded by ``gen_golden_stats.py`` exactly.

The snapshot (``golden_stats.json``) was generated with the seed
simulator *before* the fast-path restructuring of
``TimingSimulator.run``, so any cycle-accounting drift introduced by a
later rewrite fails the test.  Regenerate only when the simulated
*architecture* intentionally changes:

    PYTHONPATH=src python tests/sim/gen_golden_stats.py
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from repro.compiler.driver import compile_source
from repro.compiler.profile_feedback import profile_overrides
from repro.isa import parse_asm
from repro.sim.executor import Executor, execute
from repro.sim.machine import (
    CacheConfig,
    EarlyGenConfig,
    MachineConfig,
    SelectionMode,
)
from repro.sim.pipeline import TimingSimulator
from repro.workloads import get_workload

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_stats.json"

_CC = SelectionMode.COMPILER
_HW = SelectionMode.HARDWARE

#: The standard early-generation sweep (small traces get all of it).
FULL_CONFIGS = (
    ("base", EarlyGenConfig(0, 0)),
    ("t256_r1_cc", EarlyGenConfig(256, 1, _CC)),
    ("t1024_hw", EarlyGenConfig(1024, 0, _HW)),
    ("t64_cc", EarlyGenConfig(64, 0, _CC)),
    ("r1_cc", EarlyGenConfig(0, 1, _CC)),
    ("t16_r2_hw", EarlyGenConfig(16, 2, _HW)),
)


def _example_module(name: str):
    """Import an ``examples/`` script without needing it on sys.path."""
    key = f"_golden_example_{name}"
    if key in sys.modules:
        return sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        key, EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[key] = module
    spec.loader.exec_module(module)
    return module


def iter_cases() -> Iterator[
    Tuple[str, object, MachineConfig, Optional[Dict], bool]
]:
    """Yield ``(case_id, trace, machine, overrides, collect_timeline)``.

    Deterministic: same order and contents every run.
    """
    default = MachineConfig()

    # quickstart.py — all three load classes in one small program.
    trace = _compiled_trace(_example_module("quickstart").SOURCE)
    for name, cfg in FULL_CONFIGS:
        yield (f"quickstart/{name}", trace,
               default.with_earlygen(cfg), None, False)

    # pointer_chasing.py — the Figure 1d/4d linked-list scenario.
    trace = _compiled_trace(_example_module("pointer_chasing").SOURCE)
    for name, cfg in (
        ("base", EarlyGenConfig(0, 0)),
        ("t1024_hw", EarlyGenConfig(1024, 0, _HW)),
        ("t256_r1_cc", EarlyGenConfig(256, 1, _CC)),
        ("r1_cc", EarlyGenConfig(0, 1, _CC)),
    ):
        yield (f"pointer_chasing/{name}", trace,
               default.with_earlygen(cfg), None, False)

    # strided_prediction.py — tiny tables under stream contention.
    trace = _compiled_trace(_example_module("strided_prediction").SOURCE)
    for name, cfg in (
        ("t4_hw", EarlyGenConfig(4, 0, _HW)),
        ("t4_cc", EarlyGenConfig(4, 0, _CC)),
        ("t256_r1_cc", EarlyGenConfig(256, 1, _CC)),
        ("t256_r1_cc_perceptron",
         EarlyGenConfig(256, 1, _CC, predictor="perceptron")),
        ("t256_r1_cc_cache-level",
         EarlyGenConfig(256, 1, _CC, predictor="cache-level")),
    ):
        yield (f"strided_prediction/{name}", trace,
               default.with_earlygen(cfg), None, False)

    # profile_guided.py — the spec_override path.  687k dynamic
    # instructions, so exactly one config rides in the golden set.
    program, trace = _compiled_program_trace(
        _example_module("profile_guided").SOURCE
    )
    overrides = profile_overrides(program, trace)
    yield ("profile_guided/t256_r1_cc+overrides", trace,
           default.with_earlygen(EarlyGenConfig(256, 1, _CC)),
           overrides, False)

    # embedded_design.py's workload (ghostscript) at a reduced scale,
    # under machine variants: a narrow core with small caches (forces
    # dcache/icache miss accounting).  The scale is truncated here, not
    # ``Workload.scaled``: it fixes the frozen golden traces.
    workload = get_workload("ghostscript")
    trace = _compiled_trace(
        workload.source(max(1, workload.default_scale // 10))
    )
    proposed = EarlyGenConfig(256, 1, _CC)
    narrow_small = MachineConfig(
        issue_width=2, int_alus=2, mem_ports=1, fp_alus=1,
        dcache=CacheConfig(size=4 * 1024),
        icache=CacheConfig(size=4 * 1024))
    variants = (
        ("default", default),
        ("narrow_small$", narrow_small),
    )
    for name, machine in variants:
        yield (f"ghostscript/{name}", trace,
               machine.with_earlygen(proposed), None, False)
    # The two gated backends of the --predictor ablation, on the same
    # trace: their gates (perceptron sign, demand-trained level counter)
    # are locked here as the stride table is above.  The 16-entry table
    # on the small-cache machine is the case that moves when the
    # perceptron threshold or the level-counter width is off by one.
    for backend in ("perceptron", "cache-level"):
        yield (f"ghostscript/default_{backend}", trace,
               default.with_earlygen(
                   EarlyGenConfig(256, 1, _CC, predictor=backend)),
               None, False)
        yield (f"ghostscript/narrow_small_t16_hw_{backend}", trace,
               narrow_small.with_earlygen(
                   EarlyGenConfig(16, 0, _HW, predictor=backend)),
               None, False)

    # assembly_debug.py — hand-written kernels, with the timeline
    # recorder on so per-instruction issue cycles are locked too.
    asm = _example_module("assembly_debug")
    for prog_name, source in (("asm_strided", asm.STRIDED),
                              ("asm_chase", asm.CHASE)):
        trace = execute(parse_asm(source)).trace
        for name, cfg in (
            ("base", EarlyGenConfig(0, 0)),
            ("t64_cc", EarlyGenConfig(64, 0, _CC)),
            ("r1_cc", EarlyGenConfig(0, 1, _CC)),
        ):
            yield (f"{prog_name}/{name}", trace,
                   default.with_earlygen(cfg), None, True)


def _compiled_trace(source: str):
    return _compiled_program_trace(source)[1]


def _compiled_program_trace(source: str):
    result = compile_source(source)
    return result.program, Executor(result.program).run().trace


def stats_to_record(stats) -> Dict:
    """A JSON-stable dict of every SimStats counter."""
    record = asdict(stats)
    record["scheme_counts"] = dict(sorted(stats.scheme_counts.items()))
    if stats.timeline is not None:
        record["timeline"] = [list(entry) for entry in stats.timeline]
    return record


def run_case(trace, machine, overrides, collect_timeline) -> Dict:
    stats = TimingSimulator(
        trace, machine, spec_override=overrides,
        collect_timeline=collect_timeline,
    ).run()
    return stats_to_record(stats)
