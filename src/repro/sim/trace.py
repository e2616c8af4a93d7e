"""Compact dynamic-trace records shared by the emulator and timing model.

A trace is two parallel lists indexed by dynamic instruction number:

* ``uids[i]`` — the static uid (flat index) of the i-th executed
  instruction, and
* ``eas[i]`` — its effective address for loads and stores, else ``-1``.

Branch outcomes are implicit: the dynamic successor of a branch is the
next entry, so "taken" is simply ``uids[i + 1] != uids[i] + 1``.  The
timing simulator and the address profiler both consume this format, which
lets a single emulation drive every machine configuration (the load
scheme specifiers change timing, never function).

``unbounded`` holds the trace's unbounded Figure 3 pass once
:func:`~repro.sim.predictors.stride.unbounded_outcomes` has run it; it
lives as long as the trace.  A trace stays in the process that emulated
it: the harness runs each workload whole in one worker, and only table
rows cross processes.
"""

from __future__ import annotations

from typing import List

from repro.isa.program import Program


class Trace:
    """Dynamic execution trace of one program run."""

    __slots__ = ("program", "uids", "eas", "unbounded")

    def __init__(self, program: Program, uids: List[int], eas: List[int]):
        self.program = program
        self.uids = uids
        self.eas = eas
        self.unbounded = None

    def __len__(self) -> int:
        return len(self.uids)
