"""Parity: the one timing loop matches the seed implementation.

``TimingSimulator.run`` and every ``simulate_many`` config replay the
trace's precomputed outcome streams through the one scheduler of
:mod:`repro.sim.precompute` (a window scoreboard over decode-once
records).  The original dict-scoreboard implementation is kept
verbatim in :mod:`repro.sim._pipeline_reference` as an executable
specification; these tests replay programs under machine and
early-generation configs through both and require bit-identical
:class:`~repro.sim.stats.SimStats` — every counter, every scheme count,
and (when enabled) every timeline entry.

Programs come three ways:

* random assembly kernels: a store loop that seeds a data array, then a
  walk loop mixing strided ``ld_n``/``ld_p``/``ld_e`` loads, stores, and
  ALU traffic over a small register pool — this exercises the
  prediction-table state machine, R_addr binding, and the d-cache
  under every selection mode;
* randomized mini-C sources built from the quickstart template with
  random array sizes, strides, and trip counts — this routes through the
  full compiler (classification included) and adds FP-free but
  branch-heavy traces with compiler-chosen load specs;
* two real workloads at a small scale, under every config the harness
  tables and the backend ablation replay: the reference against the
  stream replay, entered through a plain ``run()`` and through one
  ``simulate_many`` sweep, with and without a timeline.

Seeds are fixed, so failures reproduce deterministically.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.compiler.driver import compile_source
from repro.harness.experiments import (
    ExperimentContext,
    ablation_config,
    sim_requests,
)
from repro.isa import parse_asm
from repro.sim._pipeline_reference import reference_run
from repro.sim.executor import Executor, execute
from repro.sim.machine import (
    BASELINE,
    CacheConfig,
    EarlyGenConfig,
    MachineConfig,
    SelectionMode,
)
from repro.sim.pipeline import TimingSimulator
from repro.sim.precompute import simulate_many
from repro.sim.predictors import backend_names

from golden_cases import stats_to_record

_VALUE_REGS = (5, 7, 8, 9, 10, 11)
_ALU_OPS = ("add", "sub", "mul", "and", "or", "xor")


def _random_asm(rng: random.Random) -> str:
    """A random but well-defined strided kernel over one data array."""
    iters = rng.randint(6, 24)
    stride = rng.choice((4, 8, 12))
    # The walk loop advances the base `iters` times and loads at
    # offsets up to 12 bytes past it; size the array to keep every
    # access in bounds.
    size = stride * iters + 16
    body = []
    for _ in range(rng.randint(3, 8)):
        kind = rng.random()
        if kind < 0.45:
            spec = rng.choice(("_n", "_p", "_e"))
            dest = rng.choice(_VALUE_REGS)
            off = 4 * rng.randint(0, 3)
            body.append(f"    ld{spec} r{dest}, r4({off})")
        elif kind < 0.6:
            value = rng.choice(_VALUE_REGS)
            off = 4 * rng.randint(0, 3)
            body.append(f"    st r{value}, r4({off})")
        else:
            op = rng.choice(_ALU_OPS)
            dest = rng.choice(_VALUE_REGS)
            a = rng.choice(_VALUE_REGS)
            if rng.random() < 0.5:
                body.append(f"    {op} r{dest}, r{a}, {rng.randint(1, 7)}")
            else:
                b = rng.choice(_VALUE_REGS)
                body.append(f"    {op} r{dest}, r{a}, r{b}")
    lines = [
        f".data arr {size}",
        "main:",
        "    lea r4, arr",
        "    mov r6, 0",
        "init:",
        "    st r6, r4(0)",
        f"    add r4, r4, {stride}",
        "    add r6, r6, 1",
        f"    blt r6, {iters}, init",
        "    lea r4, arr",
        "    mov r6, 0",
    ]
    for reg in _VALUE_REGS:
        lines.append(f"    mov r{reg}, {rng.randint(0, 5)}")
    lines.append("loop:")
    lines.extend(body)
    lines.append(f"    add r4, r4, {stride}")
    lines.append("    add r6, r6, 1")
    lines.append(f"    blt r6, {iters}, loop")
    lines.append("    halt")
    return "\n".join(lines)


_C_TEMPLATE = """
int table[{size}];
int keys[{size}];

int walk(int n) {{
    if (n <= 0) return 0;
    return keys[n & {mask}] + walk(n - 1);
}}

int main() {{
    int i; int total = 0;
    for (i = 0; i < {size}; i++) {{
        keys[i] = (i * {mult}) & {mask};
        table[i] = i * {scale};
    }}
    for (i = 0; i < {size}; i += {step}) {{
        total += table[keys[i]];
    }}
    total += walk({depth});
    print_int(total);
    return 0;
}}
"""


def _random_c_source(rng: random.Random) -> str:
    size = rng.choice((64, 128, 256))
    return _C_TEMPLATE.format(
        size=size,
        mask=size - 1,
        mult=rng.choice((3, 7, 13)),
        scale=rng.randint(1, 9),
        step=rng.choice((1, 2, 4)),
        # Recursion depth: returns to many call sites through the BTB.
        depth=rng.choice((3, 12)),
    )


def _random_machine(rng: random.Random) -> MachineConfig:
    if rng.random() < 0.4:
        machine = MachineConfig()
    else:
        machine = MachineConfig(
            issue_width=rng.choice((2, 4, 6)),
            int_alus=rng.choice((2, 4)),
            mem_ports=rng.choice((1, 2)),
            dcache=CacheConfig(size=rng.choice((1024, 4096, 16384)),
                               block_size=rng.choice((16, 32, 64, 128))),
            icache=CacheConfig(size=rng.choice((4096, 16384)),
                               block_size=rng.choice((16, 32, 64, 128)),
                               miss_penalty=rng.choice((0, 12, 40))),
            # The front end: BTB and redirects.
            btb_entries=rng.choice((16, 1024)),
            mispredict_penalty=rng.choice((0, 3, 7)),
            jump_bubble=rng.choice((0, 1, 3)),
        )
    earlygen = EarlyGenConfig(
        rng.choice((0, 4, 16, 64, 256)),
        rng.choice((0, 1, 2)),
        rng.choice((SelectionMode.COMPILER, SelectionMode.HARDWARE)),
    )
    return machine.with_earlygen(earlygen)


def _assert_parity(trace, machine, collect_timeline: bool) -> None:
    reference = stats_to_record(
        reference_run(
            TimingSimulator(trace, machine, collect_timeline=collect_timeline)
        )
    )
    fast = stats_to_record(
        TimingSimulator(
            trace, machine, collect_timeline=collect_timeline
        ).run()
    )
    assert fast == reference


@pytest.mark.parametrize("seed", range(10))
def test_random_asm_kernels_match_reference(seed):
    rng = random.Random(0xA5E0 + seed)
    trace = execute(parse_asm(_random_asm(rng))).trace
    for _ in range(3):
        _assert_parity(trace, _random_machine(rng), rng.random() < 0.3)


@pytest.mark.parametrize("seed", range(3))
def test_random_compiled_programs_match_reference(seed):
    rng = random.Random(0xC0DE + seed)
    result = compile_source(_random_c_source(rng))
    trace = Executor(result.program).run().trace
    for _ in range(2):
        _assert_parity(trace, _random_machine(rng), rng.random() < 0.3)


#: The real workloads of the reference check, with their table suite.
_REAL_WORKLOADS = {"023.eqntott": "spec", "adpcm_decode": "mediabench"}


@pytest.fixture(scope="module")
def real_ctx():
    return ExperimentContext(scale=0.02)


def _real_configs(ctx, name):
    """The workload's run plus the baseline, every table config (with
    its profile overrides) and every backend's ablation config."""
    run = ctx.run(name)
    requests = sim_requests(_REAL_WORKLOADS[name])
    ablation = [ablation_config(b) for b in backend_names()]
    configs = ([BASELINE] + [r.earlygen for r in requests] + ablation)
    overrides = (
        [None]
        + [run.get_overrides() if r.use_profile_override else None
           for r in requests]
        + [None] * len(ablation)
    )
    return run, configs, overrides


@pytest.mark.parametrize("name", sorted(_REAL_WORKLOADS))
def test_real_workloads_match_reference(real_ctx, name):
    """Every table config and every backend's ablation config: the
    reference, a plain ``run()`` and one ``simulate_many`` sweep give
    identical stats."""
    run, configs, overrides = _real_configs(real_ctx, name)
    sims = [
        TimingSimulator(run.trace, real_ctx.machine.with_earlygen(eg), ov)
        for eg, ov in zip(configs, overrides)
    ]
    reference = [stats_to_record(reference_run(sim)) for sim in sims]
    ran = [stats_to_record(sim.run()) for sim in sims]
    swept = simulate_many(
        run.trace, configs, machine=real_ctx.machine, overrides=overrides
    )
    assert ran == reference
    assert [stats_to_record(s) for s in swept] == reference


@pytest.mark.parametrize("name", sorted(_REAL_WORKLOADS))
def test_real_workload_timelines_match_reference(real_ctx, name):
    """Every config of :func:`test_real_workloads_match_reference`
    with a timeline: the per-instruction issue cycles and notes (each
    load's route, early-access outcome and latency) and the stats must
    match the reference.  Hardware dual-path selection reads the
    decode-stage clock, so its config checks that clock too."""
    run, configs, overrides = _real_configs(real_ctx, name)
    for eg, ov in zip(configs, overrides):
        machine = real_ctx.machine.with_earlygen(eg)
        reference = reference_run(
            TimingSimulator(run.trace, machine, ov, collect_timeline=True)
        )
        ran = TimingSimulator(
            run.trace, machine, ov, collect_timeline=True
        ).run()
        assert len(ran.timeline) == len(run.trace.uids), eg
        assert ran.timeline == reference.timeline, eg
        assert stats_to_record(ran) == stats_to_record(reference), eg
