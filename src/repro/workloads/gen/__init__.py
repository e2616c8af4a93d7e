"""``repro.workloads.gen`` — seeded mini-C program generation.

Generated workloads are named ``gen:<fingerprint>:<seed>`` (fingerprint
grammar in :mod:`repro.workloads.gen.fingerprint`) and materialize
lazily through the ordinary registry: the first
``get_workload("gen:strided:7")`` plans, self-checks, and registers the
program under suite ``"gen"``, after which the harness, the
precompute sim path, and predictor ablations consume it exactly
like a hand-written workload.  The harness resolves a ``gen:`` name
only where its rows are computed (in the worker task, on a result-store
miss).  Materialization is deterministic per
name — any process that resolves the same name builds byte-identical
source and the same reference mirror — so names are sufficient
provenance to ship across forked workers and result caches.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.workloads.gen.fingerprint import (
    CANONICAL,
    TOLERANCE,
    Fingerprint,
    format_fingerprint,
    parse_fingerprint,
)
from repro.workloads.gen.planner import (
    GEN_DEFAULT_SCALE,
    GenerationError,
    GenPlan,
    plan_program,
)
from repro.workloads.registry import REGISTRY, Workload, register

__all__ = [
    "CANONICAL",
    "TOLERANCE",
    "Fingerprint",
    "GenerationError",
    "GenPlan",
    "GEN_DEFAULT_SCALE",
    "format_fingerprint",
    "gen_name",
    "generate",
    "materialize",
    "parse_fingerprint",
    "parse_gen_name",
    "provenance",
]

#: Plans of every workload this process has materialized, keyed by name.
_PLANS: Dict[str, GenPlan] = {}


def gen_name(fp: Fingerprint, seed: int) -> str:
    """The registry name of the generated workload for (*fp*, *seed*)."""
    return f"gen:{format_fingerprint(fp)}:{seed}"


def parse_gen_name(name: str) -> Tuple[Fingerprint, int]:
    """Split a ``gen:<fingerprint>:<seed>`` name; ValueError if malformed."""
    parts = name.split(":")
    if len(parts) != 3 or parts[0] != "gen":
        raise ValueError(
            f"bad generated-workload name {name!r}: expected "
            "'gen:<fingerprint>:<seed>' "
            "(e.g. 'gen:strided:7' or 'gen:n20p60e20-d2:0')"
        )
    fp = parse_fingerprint(parts[1])
    try:
        seed = int(parts[2])
    except ValueError:
        raise ValueError(
            f"bad generated-workload name {name!r}: seed {parts[2]!r} "
            "is not an integer"
        ) from None
    if seed < 0:
        raise ValueError(
            f"bad generated-workload name {name!r}: seed must be >= 0"
        )
    return fp, seed


def generate(fp: Fingerprint, seed: int) -> GenPlan:
    """Plan (or fetch the cached plan of) the program for (*fp*, *seed*)."""
    name = gen_name(fp, seed)
    plan = _PLANS.get(name)
    if plan is None:
        plan = plan_program(fp, seed)
        _PLANS[name] = plan
    return plan


def materialize(name: str) -> Workload:
    """Resolve a ``gen:`` name into a registered :class:`Workload`.

    Idempotent: repeated calls return the already-registered workload.
    Called from :func:`repro.workloads.registry.get_workload` as the
    fallback for unknown ``gen:``-prefixed names.
    """
    # Re-canonicalize so spelled variants ("gen:strided:7",
    # "gen:n20p70e10:7") resolve to one registration under the
    # canonical name — only canonical names enter the registry, so
    # suite listings never contain duplicates.
    fp, seed = parse_gen_name(name)
    canonical = gen_name(fp, seed)
    existing = REGISTRY.get(canonical)
    if existing is not None:
        return existing
    plan = generate(fp, seed)
    workload = Workload(
        name=canonical,
        suite="gen",
        description=(
            f"generated: fingerprint {plan.token} seed {seed} "
            f"(achieved n={plan.achieved['n']:.2f} "
            f"p={plan.achieved['p']:.2f} e={plan.achieved['e']:.2f})"
        ),
        source_template=plan.source_template,
        reference=plan.reference,
        default_scale=GEN_DEFAULT_SCALE,
    )
    register(workload)
    return workload


def provenance(name: str) -> Dict[str, object]:
    """Generator provenance of a ``gen:`` workload (planning if needed).

    The returned dict is JSON-ready and sufficient to regenerate the
    exact program: fingerprint token, seed, recipe weights, requested
    and achieved class mixes.
    """
    fp, seed = parse_gen_name(name)
    return generate(fp, seed).provenance()

