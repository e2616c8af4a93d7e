"""Workload registry: name → source, scale, and reference output."""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    """One benchmark program.

    ``source_template`` may contain the token ``__SCALE__``, replaced by
    the integer scale factor; ``reference`` computes the expected OUT
    stream for a given scale in pure Python.
    """

    name: str
    suite: str  # "spec" | "mediabench" | "gen"
    description: str
    source_template: str
    reference: Callable[[int], List[int]]
    default_scale: int = 1

    def _check_scale(self, n: int) -> int:
        if n <= 0:
            raise ValueError(
                f"workload {self.name!r} scale must be a positive "
                f"integer, got {n!r}"
            )
        return n

    def scaled(self, factor: float) -> int:
        """The integer scale at *factor* times the default (at least 1)."""
        return max(1, int(round(self.default_scale * factor)))

    def source(self, scale: Optional[int] = None) -> str:
        n = self._check_scale(
            self.default_scale if scale is None else scale
        )
        return self.source_template.replace("__SCALE__", str(n))

    def expected_output(self, scale: Optional[int] = None) -> List[int]:
        n = self._check_scale(
            self.default_scale if scale is None else scale
        )
        return self.reference(n)


REGISTRY: Dict[str, Workload] = {}

#: The one run prepared while a workload was built (a generated
#: program's accepted planner probe): ``(source, artifacts)``, or None.
_PREPARED: Optional[Tuple[str, tuple]] = None


def offer_prepared(source: str, artifacts: tuple) -> None:
    """Hand over *artifacts* already built from *source*, replacing any
    earlier offer, so a process holds at most one."""
    global _PREPARED
    _PREPARED = (source, artifacts)


def take_prepared(source: str) -> Optional[tuple]:
    """The artifacts offered for exactly *source*, or None.

    The first call consumes the offer whether or not *source* matches.
    """
    global _PREPARED
    offer, _PREPARED = _PREPARED, None
    if offer is not None and offer[0] == source:
        return offer[1]
    return None


def register(workload: Workload) -> Workload:
    if workload.name in REGISTRY:
        raise ValueError(f"duplicate workload {workload.name}")
    REGISTRY[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    _ensure_loaded()
    try:
        return REGISTRY[name]
    except KeyError:
        pass
    if name.startswith("gen:"):
        # Generated workloads materialize lazily and deterministically
        # from their name (fingerprint + seed); a malformed name raises
        # ValueError with the grammar.
        from repro.workloads.gen import materialize

        return materialize(name)
    suggestion = ""
    close = difflib.get_close_matches(name, sorted(REGISTRY), n=1)
    if close:
        suggestion = f"; did you mean {close[0]!r}?"
    raise KeyError(
        f"unknown workload {name!r}{suggestion} "
        f"(known: {sorted(REGISTRY)}; generated workloads are named "
        "'gen:<fingerprint>:<seed>')"
    ) from None


def workload_suite(name: str) -> str:
    """The suite of workload *name*, without materializing it.

    A ``gen:`` name is suite ``"gen"`` by its prefix, so routing or
    labelling a generated workload never plans it; planning happens
    where its rows are computed.  Other names must be registered
    (:class:`KeyError` as from :func:`get_workload`).
    """
    if name.startswith("gen:"):
        return "gen"
    return get_workload(name).suite


def workload_names(suite: Optional[str] = None) -> List[str]:
    _ensure_loaded()
    return sorted(
        name
        for name, w in REGISTRY.items()
        if suite is None or w.suite == suite
    )


def spec_workloads() -> List[Workload]:
    _ensure_loaded()
    return [REGISTRY[name] for name in workload_names("spec")]


def mediabench_workloads() -> List[Workload]:
    _ensure_loaded()
    return [REGISTRY[name] for name in workload_names("mediabench")]


_loaded = False


def _ensure_loaded() -> None:
    global _loaded
    if not _loaded:
        _loaded = True
        from repro.workloads import mediabench, spec  # noqa: F401
