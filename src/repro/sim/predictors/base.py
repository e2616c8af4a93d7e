"""The ``Predictor`` protocol every speculation backend implements.

Every speculation backend — the paper's Fig. 3 stride table, the
Hermes-style perceptron, the Jalili–Erez cache-level predictor — sits
behind the same three-method surface so the timing pipeline and the
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
* :meth:`Predictor.reset` — back to the power-on state.

Contract (pinned per backend by ``tests/sim/test_counter_semantics.py``
and relied on by :mod:`repro.sim.precompute`):

* every probe counts exactly one probe and at most one of
  prediction/suppressed;
* update is unconditional per routed load and evolves internal state
  identically whether or not the prediction was dispatched;
* the probe/update pair depends only on the (PC, address[, demand-hit])
  sequence of routed loads, never on cycle timing.

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
    def update(self, pc: int, ca: int, predicted: Optional[int] = None,
               demand_hit: Optional[bool] = None) -> None:
        """Train with the computed address *ca* (and demand outcome)."""

    @abstractmethod
    def reset(self) -> None:
        """Return to the power-on state (counters included)."""
