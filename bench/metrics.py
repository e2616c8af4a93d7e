"""Metric definitions, order statistics and the two decision rules.

The names here are the benchmark's contract: ``BENCHMARK.json`` lists
the same names, units, directions and bounds, and a self-test keeps the
two in step.  ``bound`` is the share of the parent's median by which an
end-to-end metric may worsen before a change counts as a regression.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Optional, Sequence


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: Optional[float] = None


#: Measured from outside, per timed repeat, with tracing off.  The time
#: bounds are wide because the 2-core host this was calibrated on has
#: slow spells of +40-50% lasting 5-10 s (see README, "Host noise").
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.24),
    Metric("cpu_s", "s", "lower", 0.24),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: Compiler passes that open a ``pass:<name>`` span, in pipeline order.
PASSES = (
    "inline_functions",
    "simplify_control_flow",
    "promote_locals",
    "constant_propagation",
    "copy_propagation",
    "coalesce_moves",
    "redundant_load_elimination",
    "dead_code_elimination",
    "loop_invariant_code_motion",
    "strength_reduction",
    "classify",
)


def _layer(name: str, unit: str = "s", better: str = "lower") -> Metric:
    return Metric(name, unit, better)


#: From the traced run (and, for the pool and store, the timed runs).
PER_LAYER = (
    _layer("workloads.gen.plan_s"),
    _layer("workloads.gen.programs", "count", "higher"),
    _layer("lang.frontend_s"),
    _layer("compiler.compile_s"),
    *(_layer(f"compiler.pass.{p}_s") for p in PASSES),
    *(_layer(f"compiler.pass.{p}.applied", "count", "higher")
      for p in PASSES),
    _layer("compiler.regalloc_s"),
    _layer("compiler.insts", "count"),
    _layer("compiler.static_loads", "count"),
    _layer("compiler.ld_p", "count", "higher"),
    _layer("compiler.ld_e", "count", "higher"),
    _layer("sim.executor.emulate_s"),
    _layer("sim.executor.trace_insts", "count"),
    _layer("sim.executor.minsts_per_s", "Minst/s", "higher"),
    _layer("profiling.profile_s"),
    _layer("profiling.overrides_s"),
    _layer("sim.precompute.build_s"),
    _layer("sim.replay.sweep_s"),
    _layer("sim.replay.runs", "count", "higher"),
    _layer("sim.replay.sims_per_s", "1/s", "higher"),
    _layer("sim.replay.minsts_per_s", "Minst/s", "higher"),
    _layer("sim.replay.fast_frac", "ratio", "higher"),
    _layer("sim.predictors.ablation_s"),
    _layer("harness.rows_s"),
    _layer("harness.report_s"),
    _layer("harness.unattributed_s"),
    _layer("harness.parallel.busy_frac", "ratio", "higher"),
    _layer("service.store.cold_wall_s"),
    _layer("service.store.warm_frac", "ratio"),
    _layer("service.store.hits", "count", "higher"),
    _layer("service.store.misses", "count"),
    _layer("obs.trace_overhead_frac", "ratio"),
)

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(values: Sequence[float]) -> dict:
    """Median, min, max, quartiles and n of one metric's samples."""
    q1, q3 = quartiles(values)
    return {
        "median": median(values), "min": min(values), "max": max(values),
        "q1": q1, "q3": q3, "n": len(values), "samples": list(values),
    }


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


# ---------------------------------------------------------------------------
# Decision rules
# ---------------------------------------------------------------------------

#: ``compare`` needs at least this many parent/change pairs.
MIN_PAIRS = 10
#: Share of all pairs a side must win to claim a gain.
WIN_SHARE = 0.9


def _worse_by(metric: Metric, base: float, other: float) -> float:
    """How much *other* is worse than *base*, as a share of *base*."""
    delta = (other - base) if metric.better == "lower" else (base - other)
    return delta / base


def compare(metric: Metric, parent: Sequence[float],
            change: Sequence[float]) -> dict:
    """Judge one (metric, workload) between a parent and a change.

    Pairs are formed by repeat index.  A gain needs a win in at least
    ``WIN_SHARE`` of all pairs (ties count for neither side) and a
    median difference larger than the parent's quartile distance.  A
    metric whose spread is wider than its bound is "unresolved" unless
    every change run beats every parent run.
    """
    pairs = list(zip(parent, change))
    sign = 1 if metric.better == "lower" else -1
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    losses = sum(1 for p, c in pairs if sign * (p - c) < 0)
    p_med, c_med = median(parent), median(change)
    q1, q3 = quartiles(parent)
    worse = _worse_by(metric, p_med, c_med)
    out = {
        "pairs": len(pairs), "wins": wins, "losses": losses,
        "parent_median": p_med, "change_median": c_med,
        "parent_iqr": q3 - q1, "worse_by": worse,
    }
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if len(pairs) < MIN_PAIRS:
        verdict = "unresolved"
    elif wins >= WIN_SHARE * len(pairs) and abs(c_med - p_med) > q3 - q1:
        verdict = "gain"
    elif spread(parent) > metric.bound and not all_better:
        verdict = "unresolved"
    elif worse > metric.bound:
        verdict = "regression"
    else:
        verdict = "no regression"
    out["verdict"] = verdict
    return out


def agree(metric: Metric, a: float, b: float) -> bool:
    """Two medians of the same code agree within the metric's bound."""
    return abs(b - a) <= metric.bound * a
