"""Seeded planner: search recipe weights until the measured load mix
of the assembled program lands on the requested fingerprint.

The planner exploits the near-purity of the recipes
(:mod:`repro.workloads.gen.recipes`): each class-bearing recipe
contributes dynamic loads almost exclusively to one profiler class, so
the measured class shares respond (approximately) linearly to the
per-recipe rep weights.  The search is therefore short and convergent:

1. Seed analytic weights from each recipe's per-unit load count and the
   requested class fractions (one compile needed, zero probes).
2. Probe: compile the assembled program at its default scale, emulate
   it, and measure ``dynamic_class_shares()`` via
   :func:`repro.profiling.profile_trace` — the *same* classifier the
   rest of the reproduction uses, so "achieved" means achieved on the
   real pipeline, not on a generator-side model.
3. Multiplicatively rescale each class recipe's weight by
   ``target/measured`` and repeat, keeping the best probe, until every
   class fraction is within the inner tolerance or the iteration budget
   runs out.

Probing at the workload's *default* scale matters: constant overheads
(data initialization, per-call head loads) dilute differently at
different scales, so a mix tuned at a probe-only scale would drift at
the scale the harness actually runs.

A probe prepares a run exactly as the harness does: it compiles with
``CompileOptions(verify=True)`` (the IR verifier runs between passes),
emulates, and profiles.  The accepted probe's ``(CompileResult,
ExecResult, AddressProfile)`` is offered to the harness through
:func:`repro.workloads.registry.offer_prepared`, keyed by its exact
source text; ``ExperimentContext.run`` at scale 1.0 serves it instead
of building the same run again, so each generated program is compiled,
emulated and profiled once per process.  The offer holds one run at
most (the latest plan's) and is consumed on first use.

Everything is deterministic per (fingerprint, seed): the RNG is seeded
from the canonical fingerprint token and the seed string — never from
``hash()`` or set order — so the same name materializes byte-identical
source in any process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro import obs
from repro.compiler.driver import CompileOptions, compile_source
from repro.errors import ReproError
from repro.profiling import profile_trace
from repro.sim.executor import execute
from repro.workloads.gen.fingerprint import Fingerprint, format_fingerprint
from repro.workloads.gen.recipes import (
    Recipe,
    build_source,
    make_recipes,
    reference_output,
)
from repro.workloads.registry import offer_prepared

#: Default harness scale of generated workloads (reps of the main loop).
GEN_DEFAULT_SCALE = 4

#: Planner iteration budget (probe compiles + emulations).
_MAX_ITERS = 7

#: Inner convergence tolerance — tighter than the acceptance
#: :data:`repro.workloads.gen.fingerprint.TOLERANCE` so accepted plans
#: have slack left for scale-induced drift.
_INNER_TOL = 0.07

#: Weight bounds for any recipe the fingerprint actually requests.
_MAX_WEIGHT = 5000

#: Map profiler class -> recipe role that controls it.
_CLASS_ROLE = {"p": "strided", "e": "chase", "n": "irregular"}


class GenerationError(ReproError):
    """The planner could not realize a fingerprint, or self-check failed."""


@dataclass
class GenPlan:
    """A finished generation: source template, mirror inputs, provenance."""

    token: str
    seed: int
    fingerprint: Fingerprint
    recipes: List[Recipe] = field(repr=False)
    weights: Dict[str, int]
    source_template: str = field(repr=False)
    #: Measured dynamic class shares at the default scale.
    achieved: Dict[str, float]
    #: Probe iterations spent (including the accepted one).
    iterations: int
    #: Per-main-loop-rep class-load budget the weights were seeded from.
    budget: int

    def reference(self, scale: int) -> List[int]:
        """Expected OUT stream of the generated program at *scale*."""
        return reference_output(self.recipes, self.weights, scale)

    def max_error(self) -> float:
        """Largest |achieved - requested| over the three class fractions."""
        target = self.fingerprint.shares()
        return max(
            abs(self.achieved[cls] - target[cls]) for cls in ("n", "p", "e")
        )

    def provenance(self) -> Dict[str, object]:
        """JSON-ready generator provenance for manifests and events."""
        return {
            "fingerprint": self.token,
            "seed": self.seed,
            "requested": {
                key: round(value, 4)
                for key, value in self.fingerprint.shares().items()
            },
            "achieved": {
                key: round(value, 4) for key, value in self.achieved.items()
            },
            "weights": dict(self.weights),
            "depth": self.fingerprint.depth,
            "alias": self.fingerprint.alias,
            "ws": self.fingerprint.ws,
            "budget": self.budget,
            "iterations": self.iterations,
        }


def _initial_weights(
    fp: Fingerprint, recipes: List[Recipe], budget: int
) -> Dict[str, int]:
    per_unit = {recipe.role: recipe.per_unit_loads() for recipe in recipes}
    weights: Dict[str, int] = {}
    for cls, role in _CLASS_ROLE.items():
        share = fp.shares()[cls]
        if share < 0.01:
            weights[role] = 0
            continue
        weights[role] = max(
            1, min(_MAX_WEIGHT, round(share * budget / per_unit[role]))
        )
    # The alias interleaver is a texture knob: its (strided-class) loads
    # are budgeted against the PD fraction so the planner's p-control
    # can absorb them by shrinking the strided recipe.
    alias_budget = fp.alias * max(fp.pd, 0.1) * budget * 0.5
    weights["alias"] = (
        max(1, min(_MAX_WEIGHT, round(alias_budget / per_unit["alias"])))
        if alias_budget >= 1.0
        else 0
    )
    return weights


def _probe(
    name: str, recipes: List[Recipe], weights: Dict[str, int]
) -> Dict[str, object]:
    """Compile + emulate + profile at default scale, as the harness
    prepares a run; return the template, class shares and artifacts.

    The emulation and the profile run in ``emulate`` and ``profile``
    spans tagged with the workload *name*, as the harness's own do.
    """
    template = build_source(recipes, weights)
    source = template.replace("__SCALE__", str(GEN_DEFAULT_SCALE))
    result = compile_source(source, CompileOptions(verify=True))
    tracer = obs.current()
    with tracer.span("emulate", workload=name) as span:
        exec_result = execute(result.program)
        if tracer.enabled:
            span.set_counters(steps=exec_result.steps)
    with tracer.span("profile", workload=name):
        profile = profile_trace(result.program, exec_result.trace)
    return {
        "template": template,
        "shares": profile.dynamic_class_shares(),
        "weights": dict(weights),
        "prepared": (result, exec_result, profile),
    }


def plan_program(fp: Fingerprint, seed: int) -> GenPlan:
    """Realize *fp* as a concrete program plan, deterministically per seed.

    Raises :class:`GenerationError` if the planner cannot bring every
    measured class fraction within the acceptance tolerance, or if the
    accepted program fails its own reference self-check.
    """
    token = format_fingerprint(fp)
    name = f"gen:{token}:{seed}"
    rng = random.Random(f"repro.gen:{token}:{seed}")
    recipes = make_recipes(rng, fp.ws, fp.depth)
    budget = rng.randint(900, 1400)
    weights = _initial_weights(fp, recipes, budget)
    target = fp.shares()

    best: Dict[str, object] = {}
    best_err = float("inf")
    iterations = 0
    for _ in range(_MAX_ITERS):
        iterations += 1
        probe = _probe(name, recipes, weights)
        shares = probe["shares"]
        err = max(abs(shares[cls] - target[cls]) for cls in ("n", "p", "e"))
        if err < best_err:
            best_err = err
            best = probe
        if err <= _INNER_TOL:
            break
        for cls, role in _CLASS_ROLE.items():
            if weights[role] <= 0:
                continue
            ratio = target[cls] / max(shares[cls], 0.02)
            # Damp the multiplicative step to avoid oscillating across
            # the (mildly) coupled class shares.
            ratio = max(0.25, min(4.0, ratio))
            weights[role] = max(
                1, min(_MAX_WEIGHT, round(weights[role] * ratio))
            )

    from repro.workloads.gen.fingerprint import TOLERANCE

    if best_err > TOLERANCE:
        raise GenerationError(
            f"planner failed to realize fingerprint {token!r} seed {seed}: "
            f"best class-fraction error {best_err:.3f} exceeds tolerance "
            f"{TOLERANCE:.2f} after {iterations} probes "
            f"(achieved {best['shares']!r})"
        )

    plan = GenPlan(
        token=token,
        seed=seed,
        fingerprint=fp,
        recipes=recipes,
        weights=best["weights"],
        source_template=best["template"],
        achieved=best["shares"],
        iterations=iterations,
        budget=budget,
    )

    # Self-check: the accepted program's emulator output must equal the
    # pure-Python mirror at the default scale before anything registers.
    # The accepted probe compiled and emulated exactly this source, so
    # its output is the emulator's.
    expected = plan.reference(GEN_DEFAULT_SCALE)
    output = best["prepared"][1].output
    if output != expected:
        raise GenerationError(
            f"generated program {token!r} seed {seed} failed its reference "
            f"self-check: emulator {output!r} != reference {expected!r}"
        )
    # The harness runs this source at scale 1.0: hand it the probe.
    offer_prepared(best["prepared"][0].source, best["prepared"])

    tracer = obs.current()
    if tracer.enabled:
        tracer.event(
            "gen.fingerprint",
            fingerprint=plan.token,
            seed=plan.seed,
            requested=plan.provenance()["requested"],
            achieved=plan.provenance()["achieved"],
            weights=dict(plan.weights),
            iterations=plan.iterations,
            max_error=round(plan.max_error(), 4),
        )
    return plan
