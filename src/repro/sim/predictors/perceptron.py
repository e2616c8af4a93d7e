"""Hermes-style perceptron gate over the stride address generator.

Hermes (Bera et al., PAPERS.md) predicts whether a load goes off-chip
with a multi-feature hashed perceptron and uses the prediction to start
the slow path early.  Transplanted to this machine's question — *should
the speculative access for this load dispatch at all?* — the perceptron
becomes a learned dispatch gate in front of the stride table:

* address generation is unchanged Fig. 3 stride hardware (an internal
  :class:`~repro.sim.predictors.stride.AddressPredictionTable` supplies
  the candidate address);
* a hashed-PC weight row dotted with a global history register of
  recent *prediction outcomes* decides whether the candidate is
  trusted.  ``sum >= 0`` dispatches; ``sum < 0`` withholds it;
* training follows the standard perceptron rule (Jiménez & Lin): on
  every routed load whose entry produced a candidate, if the sign
  disagrees with the observed outcome or ``|sum| <= THETA``, each
  weight moves toward the outcome along its history bit, saturating at
  :data:`WEIGHT_BITS` signed bits.

The outcome fed to both training and the history register is "the
stride candidate matched the computed address", which depends only on
the PC/address sequence of routed loads — never on whether the dispatch
actually happened — so the backend keeps the timing-independence
contract the precompute fast path relies on.

The sizes are fixed at the classic configuration: an 8-outcome history
register, 64 weight rows, 6-bit signed weights and the training
threshold ``floor(1.93 * 8 + 14) = 29``.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.predictors.base import Predictor
from repro.sim.predictors.stride import AddressPredictionTable

__all__ = ["PerceptronPredictor"]

#: Global history register length (prediction outcomes).
HISTORY = 8
#: Rows in the hashed-PC weight table (a power of two).
WEIGHT_ROWS = 64
#: Training threshold: the classic ``floor(1.93 * HISTORY + 14)``.
THETA = 29
#: Signed weight width.
WEIGHT_BITS = 6

_HIST_MASK = (1 << HISTORY) - 1
_ROW_MASK = WEIGHT_ROWS - 1
_ROW_BITS = WEIGHT_ROWS.bit_length() - 1
_W_MAX = (1 << (WEIGHT_BITS - 1)) - 1


class PerceptronPredictor(Predictor):
    """Stride address generation gated by a hashed perceptron."""

    name = "perceptron"
    trains_on_demand = False

    __slots__ = ("_table", "_weights", "_history")

    def __init__(self, entries: int):
        self._table = AddressPredictionTable(entries)
        self._weights = [[0] * (HISTORY + 1) for _ in range(WEIGHT_ROWS)]
        self._history = 0

    # -- internals ---------------------------------------------------------

    def _dot(self, pc: int):
        """(row index, perceptron sum) for *pc* and the current history."""
        word = pc >> 2
        row = (word ^ (word >> _ROW_BITS)) & _ROW_MASK
        weights = self._weights[row]
        total = weights[0]
        hist = self._history
        for i in range(1, HISTORY + 1):
            if hist & 1:
                total += weights[i]
            else:
                total -= weights[i]
            hist >>= 1
        return row, total

    # -- protocol ----------------------------------------------------------

    def probe(self, pc: int) -> Optional[int]:
        """The stride candidate, gated by the perceptron sign."""
        candidate = self._table.probe(pc)
        if candidate is None or self._dot(pc)[1] < 0:
            return None
        return candidate

    def update(self, pc: int, ca: int,
               demand_hit: Optional[bool] = None) -> None:
        """Train the perceptron and advance the stride engine.

        Re-derives the would-be candidate before touching the engine, so
        the method is self-contained (no stashed probe state) and the
        pair stays well-defined even under adversarial call orders.
        ``demand_hit`` is accepted for uniformity and ignored.
        """
        candidate = self._table.probe(pc)
        if candidate is not None:
            taken = candidate == ca
            row, total = self._dot(pc)
            if (total >= 0) != taken or abs(total) <= THETA:
                weights = self._weights[row]
                w_max = _W_MAX
                step = 1 if taken else -1
                value = weights[0] + step
                weights[0] = max(-w_max, min(w_max, value))
                hist = self._history
                for i in range(1, HISTORY + 1):
                    agree = bool(hist & 1) == taken
                    value = weights[i] + (1 if agree else -1)
                    weights[i] = max(-w_max, min(w_max, value))
                    hist >>= 1
            self._history = (((self._history << 1) | int(taken))
                             & _HIST_MASK)
        self._table.update(pc, ca)
