"""Property test: ``simulate_many`` equals the seed oracle.

For random programs, machine shapes, table sizes, selection modes
(including hardware dual-path run-time selection, whose route the
stream replay finds by fixed point) and random ``spec_override`` maps,
a batched ``simulate_many`` sweep must produce
:class:`~repro.sim.stats.SimStats` bit-identical to running each config
through :func:`~repro.sim._pipeline_reference.reference_run` — the
batched path shares one precompute and its segment memo across the
sweep, so this pins that sharing (and the divergence patching behind
it) never leaks between configs.

Runs under the deterministic ``repro`` hypothesis profile (see
``tests/conftest.py``).
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.isa import parse_asm
from repro.isa.opcodes import LoadSpec
from repro.sim._pipeline_reference import reference_run
from repro.sim.executor import execute
from repro.sim.machine import EarlyGenConfig, SelectionMode
from repro.sim.pipeline import TimingSimulator
from repro.sim.precompute import _decode_program, simulate_many

from golden_cases import stats_to_record
from test_pipeline_parity import _random_asm, _random_machine

#: Guarantees hardware dual-path (run-time selection) coverage in every
#: sweep, on top of whatever _random_machine draws.
_HW_DUAL = EarlyGenConfig(16, 2, SelectionMode.HARDWARE)


def _random_override(rng: random.Random, program) -> dict:
    """A random reclassification map over the program's static loads."""
    _, load_uids = _decode_program(program)
    chosen = rng.sample(load_uids, k=min(len(load_uids),
                                         rng.randint(1, 4)))
    specs = (LoadSpec.N, LoadSpec.P, LoadSpec.E)
    return {uid: rng.choice(specs) for uid in chosen}


@settings(max_examples=15)
@given(st.integers(min_value=0, max_value=2**30))
def test_simulate_many_equals_independent_runs(seed):
    rng = random.Random(seed)
    trace = execute(parse_asm(_random_asm(rng))).trace

    machines = [_random_machine(rng) for _ in range(4)]
    machines.append(machines[0].with_earlygen(_HW_DUAL))
    overrides = [
        _random_override(rng, trace.program) if rng.random() < 0.4 else None
        for _ in machines
    ]

    expected = [
        stats_to_record(
            reference_run(TimingSimulator(trace, machine, override))
        )
        for machine, override in zip(machines, overrides)
    ]
    batched = simulate_many(trace, machines, overrides=overrides)
    assert [stats_to_record(s) for s in batched] == expected
