"""Profile-guided load reclassification (Section 4.3).

Address profiling runs the program once, feeds every dynamic load
address through an unbounded per-load copy of the Figure 3 stride state
machine, and measures each static load's prediction rate.  The counters
are the trace's one unbounded pass
(:func:`~repro.sim.predictors.stride.unbounded_outcomes`), the same
record Table 2 reads.  Loads the compiler classified ``ld_n`` whose
measured rate exceeds the threshold (60% in the paper) are flipped to
``ld_p`` — *"it is used only to change a load classified as ld_n by our
compiler heuristics to ld_p and nothing else will be overruled."*
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.isa.opcodes import LoadSpec
from repro.isa.program import Program
from repro.sim.predictors.stride import UnboundedOutcomes, unbounded_outcomes
from repro.sim.trace import Trace

#: The paper's reclassification threshold.
DEFAULT_THRESHOLD = 0.60


def profile_overrides(
    program: Program,
    trace: Trace,
    threshold: float = DEFAULT_THRESHOLD,
    predictor: Optional[UnboundedOutcomes] = None,
) -> Dict[int, LoadSpec]:
    """Profile-guided specifier overrides: ``{uid: LoadSpec.P}``.

    Only ``ld_n`` loads whose measured prediction rate strictly exceeds
    *threshold* are flipped; everything else keeps its compiler class.
    The rates come from *predictor* (an address profile's outcomes),
    else from *trace*'s own unbounded pass.  The returned map is the
    timing simulator's ``spec_override``.
    """
    if predictor is None:
        predictor = unbounded_outcomes(trace)
    per_load = predictor.per_load
    overrides: Dict[int, LoadSpec] = {}
    for inst in program.static_loads():
        if inst.lspec is not LoadSpec.N:
            continue
        counters = per_load.get(inst.uid)
        if counters and counters[1] / counters[0] > threshold:
            overrides[inst.uid] = LoadSpec.P
    return overrides

