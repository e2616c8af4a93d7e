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
lives as long as the trace and is not pickled.
"""

from __future__ import annotations

from array import array
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

    # Traces cross process boundaries when the harness fans timing
    # replays across workers.  Pickling the two parallel int lists
    # element by element dominates the transfer cost; packing them into
    # typed arrays makes the payload a pair of memcpy-speed blobs.
    def __getstate__(self):
        return self.program, array("q", self.uids), array("q", self.eas)

    def __setstate__(self, state) -> None:
        program, uids, eas = state
        self.program = program
        self.uids = uids.tolist()
        self.eas = eas.tolist()
        self.unbounded = None
