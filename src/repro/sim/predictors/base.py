"""The ``Predictor`` protocol every speculation backend implements.

Every speculation backend — the paper's Fig. 3 stride table, the
Hermes-style perceptron, the Jalili–Erez cache-level predictor — sits
behind the same two-method surface so the timing pipeline and the
stream-precompute fast path never special-case a backend beyond its
name:

* :meth:`Predictor.probe` — ID1-stage lookup: the predicted effective
  address to dispatch speculatively, or ``None`` (table miss, learning
  entry, or a gate that withholds the prediction).
* :meth:`Predictor.update` — MEM-stage training with the computed
  address; unconditional per routed load.  Backends with
  :attr:`Predictor.trains_on_demand` set additionally receive
  ``demand_hit`` — whether the load's *demand* access hits the d-cache —
  as a training signal.

A backend holds only the state its transitions need; the statistics
come from the caller's own counters.  The contract, pinned per backend
by ``tests/sim/test_counter_semantics.py`` and relied on by
:mod:`repro.sim.precompute`, is that the sequence of probe results
depends only on the (PC, address[, demand-hit]) sequence of routed
loads, each probed then updated: :meth:`Predictor.update` takes nothing
else, so whether a prediction was dispatched, and when, cannot reach
the backend's state.

The backends are fixed: :mod:`repro.sim.predictors` maps each name to
its class in one table.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

__all__ = ["Predictor"]


class Predictor(ABC):
    """Abstract speculation backend (see module docstring contract)."""

    __slots__ = ()

    #: Backend name (``EarlyGenConfig.predictor``); set by each class.
    name: str = ""
    #: True if :meth:`update` wants the demand d-cache outcome.
    trains_on_demand: bool = False

    @abstractmethod
    def probe(self, pc: int) -> Optional[int]:
        """The predicted effective address for *pc*, or ``None``."""

    @abstractmethod
    def update(self, pc: int, ca: int,
               demand_hit: Optional[bool] = None) -> None:
        """Train with the computed address *ca* (and demand outcome)."""
