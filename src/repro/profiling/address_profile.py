"""Per-static-load stride-predictability profiling.

Feeds every dynamic load address through an unbounded per-load copy of
the Figure 3 state machine and aggregates per-class statistics — the
"individual operation prediction" methodology behind Table 2's
prediction-rate columns, and the input to Section 4.3's profile-guided
reclassification.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.isa.opcodes import LoadSpec
from repro.isa.program import Program
from repro.sim.predictors import UnboundedPredictor
from repro.sim.predictors.stride import unbounded_outcomes
from repro.sim.trace import Trace


class AddressProfile:
    """Prediction statistics of one program run."""

    def __init__(self, program: Program, predictor: UnboundedPredictor):
        self.program = program
        self.predictor = predictor

    # -- per-load ------------------------------------------------------------

    def rate(self, uid: int) -> float:
        """Prediction rate of one static load."""
        return self.predictor.rate(uid)

    def dynamic_count(self, uid: int) -> int:
        counters = self.predictor.per_load.get(uid)
        return counters[0] if counters else 0

    # -- per-class aggregates ----------------------------------------------

    def class_rates(
        self, overrides: Optional[Dict[int, LoadSpec]] = None
    ) -> Dict[str, float]:
        """Aggregate prediction rate per scheme class (``n``/``p``/``e``).

        The rate of a class is total correct predictions over total
        dynamic executions of the loads in that class, mirroring the
        paper's NT / PD "Prediction Rate" columns.
        """
        counts = self.per_class_counts(overrides)
        correct = counts["correct"]
        return {
            cls: (correct[cls] / total if total else 0.0)
            for cls, total in counts["dynamic"].items()
        }

    def dynamic_class_shares(
        self, overrides: Optional[Dict[int, LoadSpec]] = None
    ) -> Dict[str, float]:
        """Fraction of dynamic loads per class (Table 2's "% Dynamic")."""
        return _shares(self.per_class_counts(overrides)["dynamic"])

    def static_class_shares(
        self, overrides: Optional[Dict[int, LoadSpec]] = None
    ) -> Dict[str, float]:
        """Fraction of static loads per class (Table 2's "% Static")."""
        return _shares(self.per_class_counts(overrides)["static"])

    def per_class_counts(
        self, overrides: Optional[Dict[int, LoadSpec]] = None
    ) -> Dict[str, Dict[str, int]]:
        """Raw per-class counts behind the Table 2/4 share and rate columns.

        Returns ``{"static": {...}, "dynamic": {...}, "correct": {...}}``
        keyed by class (``n``/``p``/``e``): static load counts, dynamic
        execution counts, and correct unbounded predictions.  This is
        the payload the observability layer emits per workload
        (``profile.classes``), from which every Table 2 column can be
        recomputed offline.
        """
        static = {"n": 0, "p": 0, "e": 0}
        dynamic = {"n": 0, "p": 0, "e": 0}
        correct = {"n": 0, "p": 0, "e": 0}
        for inst in self.program.static_loads():
            spec = (
                overrides.get(inst.uid, inst.lspec)
                if overrides is not None
                else inst.lspec
            )
            static[spec.value] += 1
            counters = self.predictor.per_load.get(inst.uid)
            if counters:
                dynamic[spec.value] += counters[0]
                correct[spec.value] += counters[1]
        return {"static": static, "dynamic": dynamic, "correct": correct}

    @property
    def dynamic_loads(self) -> int:
        return self.predictor.accesses


def _shares(counts: Dict[str, int]) -> Dict[str, float]:
    total = sum(counts.values())
    if total == 0:
        return {cls: 0.0 for cls in counts}
    return {cls: count / total for cls, count in counts.items()}


def profile_trace(program: Program, trace: Trace) -> AddressProfile:
    """Profile an existing trace.

    The counters come from the trace's one unbounded Figure 3 pass,
    the same pass the precompute's prediction streams copy from.
    """
    return AddressProfile(
        program, UnboundedPredictor.from_outcomes(unbounded_outcomes(trace))
    )


def profile_program(program: Program) -> Tuple[AddressProfile, Trace]:
    """Emulate *program* once and profile the resulting trace."""
    from repro.sim.executor import execute

    result = execute(program)
    return profile_trace(program, result.trace), result.trace
