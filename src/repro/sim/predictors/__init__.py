"""The three speculation backends behind the ``ld_p`` prediction path.

The paper's Fig. 3 stride table is the design; the other two exist for
the ``--predictor`` ablation.  Each implements the
:class:`~repro.sim.predictors.base.Predictor` protocol (see ``base.py``
for the contract) and is named in :data:`BACKENDS`:

* ``stride`` — the paper's PC-indexed stride table (reference backend),
* ``perceptron`` — Hermes-style hashed-perceptron dispatch gate,
* ``cache-level`` — Jalili–Erez serving-level gate trained on demand
  d-cache outcomes.

:func:`create` is the one construction point for the timing pipeline,
the reference pipeline and the precompute stream builders, so all three
replay identical backend state machines; :func:`predictor_key` is the
key their outcome streams are cached under.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

from repro.sim.predictors.base import Predictor
from repro.sim.predictors.stride import (
    FUNCTIONING,
    LEARNING,
    AddressPredictionTable,
    TableEntry,
)
from repro.sim.predictors.cache_level import CacheLevelPredictor
from repro.sim.predictors.perceptron import PerceptronPredictor

__all__ = [
    "AddressPredictionTable",
    "BACKENDS",
    "CacheLevelPredictor",
    "FUNCTIONING",
    "LEARNING",
    "PerceptronPredictor",
    "Predictor",
    "TableEntry",
    "backend_names",
    "create",
    "predictor_key",
]

#: Backend name -> class.  The other two carry their own dispatch gate
#: over a ``stride`` table.
BACKENDS: Dict[str, Type[Predictor]] = {
    cls.name: cls
    for cls in (AddressPredictionTable, PerceptronPredictor,
                CacheLevelPredictor)
}


def backend_names() -> Tuple[str, ...]:
    """Every backend name, sorted."""
    return tuple(sorted(BACKENDS))


def create(eg) -> Optional[Predictor]:
    """A fresh backend instance for an ``EarlyGenConfig``-shaped *eg*.

    Returns ``None`` when the prediction path is disabled
    (``table_entries == 0``).  ``EarlyGenConfig`` has already rejected
    unknown names.
    """
    if not eg.table_entries:
        return None
    return BACKENDS[eg.predictor](eg.table_entries)


def predictor_key(eg) -> tuple:
    """Canonical cache key of *eg*'s prediction configuration.

    Outcome streams are keyed by this tuple;
    two configs with equal keys drive byte-identical backend state
    machines.
    """
    if not eg.table_entries:
        return ("none",)
    return (eg.predictor, eg.table_entries)
