"""Cache-level prediction gating speculative dispatch (Jalili & Erez).

Jalili & Erez (PAPERS.md) predict *which level of the hierarchy serves
a load* and act on the predicted level before the access resolves.  In
this machine the interesting boundary is L1: a speculative early access
for a load whose demand access will miss the d-cache buys little (the
miss dominates) while still occupying a memory port that a neighbouring
load could have used.  This backend therefore:

* generates candidate addresses with unchanged Fig. 3 stride hardware
  (an internal
  :class:`~repro.sim.predictors.stride.AddressPredictionTable`, whose
  :meth:`~repro.sim.predictors.stride.AddressPredictionTable.lookup`
  gives the entry index and whether an update takes the Replace arc);
* keeps one n-bit saturating *level counter* per table entry that
  predicts "the d-cache serves this load".  A probe dispatches the
  candidate only when the counter is above its midpoint; otherwise the
  prediction is withheld and the port is saved for demand traffic;
* trains the counter on the *demand* outcome of every routed load
  (``trains_on_demand``): increment when the demand access hit the
  d-cache, decrement when it missed.  A reallocated entry resets its
  counter to the optimistic midpoint + 1, so cold entries dispatch
  until proven miss-prone.

Because training consumes the demand-hit stream, the backend's state
depends on the d-cache contents — which the precompute layer already
models per config, including pollution from wrong-address speculative
fills; the divergence-patching loop (route byte 1 assumes a
wrong-address fill, 3 withholds it) makes the stream exact before any
timing replay is accepted.

The level counters are 2 bits wide (:data:`COUNTER_BITS`).
"""

from __future__ import annotations

from typing import Optional

from repro.sim.predictors.base import Predictor
from repro.sim.predictors.stride import AddressPredictionTable

__all__ = ["CacheLevelPredictor"]

#: Width of each saturating level counter.
COUNTER_BITS = 2

_LEVEL_MAX = (1 << COUNTER_BITS) - 1
_LEVEL_MID = _LEVEL_MAX // 2
#: A (re)allocated entry starts weakly trusted, one above the midpoint.
_LEVEL_INIT = _LEVEL_MID + 1


class CacheLevelPredictor(Predictor):
    """Stride address generation gated by a predicted serving level."""

    name = "cache-level"
    trains_on_demand = True

    __slots__ = ("_table", "_level")

    def __init__(self, entries: int):
        self._table = AddressPredictionTable(entries)
        self._level = [_LEVEL_INIT] * entries

    # -- protocol ----------------------------------------------------------

    def probe(self, pc: int) -> Optional[int]:
        """The stride candidate, unless the load is predicted to miss."""
        index, entry = self._table.lookup(pc)
        if entry is None or self._level[index] <= _LEVEL_MID:
            return None
        return entry.predict()

    def update(self, pc: int, ca: int,
               demand_hit: Optional[bool] = None) -> None:
        """Advance the stride engine and train the level counter.

        ``demand_hit`` is the demand d-cache outcome of this load; when
        the caller cannot supply it (``None``) the counter is left
        untouched, which keeps update unconditional and deterministic.
        """
        index, entry = self._table.lookup(pc)
        self._table.update(pc, ca)
        if entry is None:
            self._level[index] = _LEVEL_INIT
        elif demand_hit is not None:
            if demand_hit:
                if self._level[index] < _LEVEL_MAX:
                    self._level[index] += 1
            elif self._level[index] > 0:
                self._level[index] -= 1
