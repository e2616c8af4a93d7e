"""The ``Predictor`` protocol and backend registry.

Every speculation backend — the paper's Fig. 3 stride table, the
Hermes-style perceptron, the Jalili–Erez cache-level predictor — sits
behind the same three-method surface so the timing pipeline, the
and the stream-precompute fast path never special-case a backend beyond
its name:

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

The registry doubles as the *outcome-stream factory* for the precompute
layer: :func:`create` builds a fresh backend from an
``EarlyGenConfig``-shaped object, and :func:`predictor_key` produces the
canonical hashable key that outcome streams and patch memos are cached
under.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Tuple, Type

__all__ = [
    "Predictor",
    "backend_names",
    "create",
    "get_backend",
    "normalize_params",
    "predictor_key",
    "register",
    "validate_backend",
]


class Predictor(ABC):
    """Abstract speculation backend (see module docstring contract)."""

    __slots__ = ()

    #: Registry name; class attribute set by each backend.
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

    def params_key(self) -> tuple:
        """Canonical hashable key of this instance's configuration."""
        raise NotImplementedError

    # -- registry hooks (overridden per backend) --------------------------

    #: name -> default value for every accepted tuning parameter.
    PARAM_DEFAULTS: Dict[str, int] = {}

    @classmethod
    def validate_config(cls, table_entries: int, confidence_bits: int,
                        params: Tuple[Tuple[str, int], ...]) -> None:
        """Raise ``ValueError`` if the configuration is invalid."""
        for key, _ in params:
            if key not in cls.PARAM_DEFAULTS:
                raise ValueError(
                    f"predictor {cls.name!r} does not accept parameter "
                    f"{key!r} (accepted: {sorted(cls.PARAM_DEFAULTS)})")

    @classmethod
    def from_config(cls, table_entries: int, confidence_bits: int,
                    params: Tuple[Tuple[str, int], ...]) -> "Predictor":
        """Build a fresh instance (the outcome-stream factory)."""
        raise NotImplementedError

    @classmethod
    def resolved_params(
            cls, params: Tuple[Tuple[str, int], ...]) -> Dict[str, int]:
        """Defaults overlaid with *params* (unknown keys rejected)."""
        resolved = dict(cls.PARAM_DEFAULTS)
        for key, value in params:
            if key not in resolved:
                raise ValueError(
                    f"predictor {cls.name!r} does not accept parameter "
                    f"{key!r} (accepted: {sorted(cls.PARAM_DEFAULTS)})")
            resolved[key] = value
        return resolved


_REGISTRY: Dict[str, Type[Predictor]] = {}


def register(cls: Type[Predictor]) -> Type[Predictor]:
    """Class decorator: add a backend to the registry by its name."""
    if not cls.name:
        raise ValueError("predictor class needs a non-empty name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate predictor backend {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def backend_names() -> Tuple[str, ...]:
    """All registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> Type[Predictor]:
    """The backend class for *name* (``ValueError`` if unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown predictor backend {name!r} "
            f"(registered: {', '.join(backend_names())})") from None


def normalize_params(params) -> Tuple[Tuple[str, int], ...]:
    """Canonicalize a params mapping/pair-sequence to sorted pairs."""
    if params is None:
        return ()
    if isinstance(params, dict):
        items = params.items()
    else:
        items = tuple(params)
    pairs = []
    for item in items:
        key, value = item
        if not isinstance(key, str):
            raise ValueError("predictor parameter names must be strings")
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(
                f"predictor parameter {key!r} must be an int, "
                f"got {value!r}")
        pairs.append((key, value))
    pairs.sort()
    for (a, _), (b, _) in zip(pairs, pairs[1:]):
        if a == b:
            raise ValueError(f"duplicate predictor parameter {a!r}")
    return tuple(pairs)


def validate_backend(name: str, table_entries: int, confidence_bits: int,
                     params) -> None:
    """Validate a (backend, capacity, confidence, params) combination."""
    get_backend(name).validate_config(
        table_entries, confidence_bits, normalize_params(params))


def create(eg) -> Optional[Predictor]:
    """A fresh backend instance for an ``EarlyGenConfig``-shaped *eg*.

    Returns ``None`` when the prediction path is disabled
    (``table_entries == 0``).  This is the single construction point for
    the timing pipeline, the reference pipeline, and the precompute
    stream builders, so all three replay identical backend state
    machines.
    """
    if not eg.table_entries:
        return None
    cls = get_backend(getattr(eg, "predictor", "stride"))
    return cls.from_config(
        eg.table_entries, eg.table_confidence_bits,
        normalize_params(getattr(eg, "predictor_params", ())))


def predictor_key(eg) -> tuple:
    """Canonical cache key of *eg*'s prediction configuration.

    Outcome streams and divergence-patch memos are keyed by this tuple;
    two configs with equal keys drive byte-identical backend state
    machines.
    """
    if not eg.table_entries:
        return ("none",)
    name = getattr(eg, "predictor", "stride")
    cls = get_backend(name)
    resolved = cls.resolved_params(
        normalize_params(getattr(eg, "predictor_params", ())))
    return (name, eg.table_entries, eg.table_confidence_bits,
            tuple(sorted(resolved.items())))
