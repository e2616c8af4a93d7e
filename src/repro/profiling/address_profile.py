"""Per-static-load stride-predictability profiling.

The profile of a run is its trace's one unbounded Figure 3 pass
(:func:`~repro.sim.predictors.stride.unbounded_outcomes`): every
dynamic load address fed through a per-load copy of the state machine,
the "individual operation prediction" methodology behind Table 2's
prediction-rate columns and the input to Section 4.3's profile-guided
reclassification.  :class:`AddressProfile` reads that record in place
and aggregates it per class; :func:`class_columns` is the one
arithmetic that turns the per-class counts into the load-class columns
of Tables 2–4.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.isa.opcodes import LoadSpec
from repro.isa.program import Program
from repro.sim.predictors.stride import UnboundedOutcomes, unbounded_outcomes
from repro.sim.trace import Trace


class AddressProfile:
    """Prediction statistics of one program run.

    ``predictor`` is the trace's :class:`UnboundedOutcomes`, shared with
    the precompute's prediction streams and never written here.
    """

    def __init__(self, program: Program, predictor: UnboundedOutcomes):
        self.program = program
        self.predictor = predictor

    # -- per-load ------------------------------------------------------------

    def rate(self, uid: int) -> float:
        """Prediction rate of one static load (0.0 if never executed)."""
        counters = self.predictor.per_load.get(uid)
        return counters[1] / counters[0] if counters else 0.0

    def dynamic_count(self, uid: int) -> int:
        counters = self.predictor.per_load.get(uid)
        return counters[0] if counters else 0

    # -- per-class aggregates ----------------------------------------------

    def dynamic_class_shares(
        self, overrides: Optional[Dict[int, LoadSpec]] = None
    ) -> Dict[str, float]:
        """Fraction of dynamic loads per class (Table 2's "% Dynamic")."""
        dynamic = self.per_class_counts(overrides)["dynamic"]
        total = sum(dynamic.values())
        return {cls: count / total if total else 0.0
                for cls, count in dynamic.items()}

    def per_class_counts(
        self, overrides: Optional[Dict[int, LoadSpec]] = None
    ) -> Dict[str, Dict[str, int]]:
        """Raw per-class counts behind the Table 2/4 share and rate columns.

        Returns ``{"static": {...}, "dynamic": {...}, "correct": {...}}``
        keyed by class (``n``/``p``/``e``): static load counts, dynamic
        execution counts, and correct unbounded predictions.  This is
        the payload the observability layer emits per workload
        (``profile.classes``), from which :func:`class_columns`
        recomputes every Table 2 column offline.
        """
        static = {"n": 0, "p": 0, "e": 0}
        dynamic = {"n": 0, "p": 0, "e": 0}
        correct = {"n": 0, "p": 0, "e": 0}
        per_load = self.predictor.per_load
        for inst in self.program.static_loads():
            spec = (
                overrides.get(inst.uid, inst.lspec)
                if overrides is not None
                else inst.lspec
            )
            static[spec.value] += 1
            counters = per_load.get(inst.uid)
            if counters:
                dynamic[spec.value] += counters[0]
                correct[spec.value] += counters[1]
        return {"static": static, "dynamic": dynamic, "correct": correct}

    @property
    def dynamic_loads(self) -> int:
        return len(self.predictor.codes)


def _share(count: int, total: int) -> float:
    return count / total * 100 if total else 0.0


def class_columns(counts: Dict[str, Dict[str, int]], dyn_loads: int) -> dict:
    """The load-class columns of Tables 2–4 from per-class *counts*
    (:meth:`AddressProfile.per_class_counts`) and the dynamic-load
    total: static and dynamic NT/PD/EC shares and the unbounded NT/PD
    prediction rates, as percentages."""
    static = counts["static"]
    dynamic = counts["dynamic"]
    correct = counts["correct"]
    static_total = sum(static.values())
    dyn_total = sum(dynamic.values())
    return {
        "dyn_loads": dyn_loads,
        "static_nt": _share(static["n"], static_total),
        "static_pd": _share(static["p"], static_total),
        "static_ec": _share(static["e"], static_total),
        "dyn_nt": _share(dynamic["n"], dyn_total),
        "dyn_pd": _share(dynamic["p"], dyn_total),
        "dyn_ec": _share(dynamic["e"], dyn_total),
        "rate_nt": _share(correct["n"], dynamic["n"]),
        "rate_pd": _share(correct["p"], dynamic["p"]),
    }


def profile_trace(program: Program, trace: Trace) -> AddressProfile:
    """The profile of an existing trace: its one unbounded Figure 3
    pass, the same record the precompute's prediction streams copy
    from."""
    return AddressProfile(program, unbounded_outcomes(trace))
