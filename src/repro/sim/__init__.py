"""Hardware substrate: functional emulation and cycle-level timing.

The split mirrors the paper's emulation-driven methodology: the
:mod:`~repro.sim.executor` runs the program functionally and produces a
dynamic trace; :class:`~repro.sim.pipeline.TimingSimulator` and
:func:`~repro.sim.precompute.simulate_many` replay that trace through
one in-order scoreboard timing loop of the 6-stage pipeline, including
both early-address-generation paths.
"""

from repro.sim.executor import (
    EmulationError,
    ExecResult,
    Executor,
    StepLimitExceeded,
)
from repro.sim.machine import EarlyGenConfig, MachineConfig, SelectionMode
from repro.sim.pipeline import TimingSimulator, simulate
from repro.sim.precompute import simulate_many, warm_precompute
from repro.sim.stats import SimStats
from repro.sim.trace import Trace

__all__ = [
    "EarlyGenConfig",
    "EmulationError",
    "ExecResult",
    "Executor",
    "MachineConfig",
    "SelectionMode",
    "SimStats",
    "StepLimitExceeded",
    "TimingSimulator",
    "Trace",
    "simulate",
    "simulate_many",
    "warm_precompute",
]
