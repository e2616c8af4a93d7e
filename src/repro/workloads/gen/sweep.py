"""Synthetic-SPEC tier: sweep the Table-2 class-mix simplex.

The paper's Table 2 samples the (NT, PD, EC) load-mix simplex at the
twelve points SPEC95 happens to occupy.  This tier samples it *on a
grid*: every fingerprint ``n<a>p<b>e<c>`` with the three percentages
stepping by ``step`` and summing to 100 becomes a generated workload,
and the whole set runs through the standard harness machinery —
:class:`~repro.harness.runner.WorkloadRunner` with its fault isolation,
``--jobs`` process fan-out, and ``--result-cache`` reuse — producing a
fingerprint-vs-speedup table that shows how the proposed configuration's
win moves across the mix space (EC-heavy corners pay off, NT-heavy
corners pin the ceiling).

``python -m repro.workloads.gen sweep`` is the CLI; ``--markdown-out``
renders the table as Markdown for EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, List, Optional

from repro import obs
from repro.harness.experiments import ExperimentContext, _geomean
from repro.harness.runner import STATUS_OK, WorkloadRunner
from repro.workloads.gen import format_fingerprint, parse_gen_name

#: Grid pitch (percentage points) of the default simplex sweep.
DEFAULT_STEP = 20

#: Fingerprint-vs-speedup table columns.
SWEEP_HEADERS = {
    "fingerprint": "Fingerprint",
    "seed": "Seed",
    "ach_nt": "A.NT%",
    "ach_pd": "A.PD%",
    "ach_ec": "A.EC%",
    "dyn_loads": "Dyn loads",
    "speedup": "Speedup",
}


def simplex_tokens(step: int = DEFAULT_STEP) -> List[str]:
    """Fingerprint tokens of the class-mix simplex grid at *step* %.

    Points are ordered NT-major, so the sweep walks from PD/EC-rich
    mixes (every technique applies) toward the NT corner (none does).
    """
    if not 0 < step <= 100 or 100 % step:
        raise ValueError("step must be a divisor of 100 in (0, 100]")
    tokens = []
    for nt in range(0, 101, step):
        for pd in range(0, 101 - nt, step):
            ec = 100 - nt - pd
            tokens.append(f"n{nt}p{pd}e{ec}")
    return tokens


def sweep_names(step: int = DEFAULT_STEP, seeds: int = 1) -> List[str]:
    """The ``gen:`` workload names of one simplex sweep."""
    return [
        f"gen:{token}:{seed}"
        for token in simplex_tokens(step)
        for seed in range(seeds)
    ]


def run_sweep(
    step: int = DEFAULT_STEP,
    seeds: int = 1,
    scale: float = 1.0,
    jobs: int = 1,
    result_store=None,
    timeout: float = 0.0,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run and tabulate one simplex sweep.

    Each workload is planned in the task that computes its rows (a
    result-store hit never plans); the achieved mix comes from the
    rows' ``"provenance"`` fragment.  Returns
    ``{"rows": [...], "outcomes": [...], "degraded": [...]}`` where
    ``rows`` is the fingerprint-vs-speedup table (one row per
    generated workload, geomean last).
    """
    names = sweep_names(step, seeds)
    if progress is not None:
        progress(
            f"sweep: {len(names)} generated workloads "
            f"(step {step}%, {seeds} seed{'s' if seeds != 1 else ''})"
        )
    tracer = obs.current()
    with tracer.span("gen.sweep", step=step, seeds=seeds, jobs=jobs):
        ctx = ExperimentContext(scale=scale)
        runner = WorkloadRunner(
            ctx,
            timeout,
            progress=progress,
            jobs=jobs,
            result_store=result_store,
        )
        outcomes = runner.run_suite(names)

    rows: List[dict] = []
    speedups: List[float] = []
    for outcome in outcomes:
        fp, seed = parse_gen_name(outcome.name)
        row = {"fingerprint": format_fingerprint(fp), "seed": seed}
        if outcome.status == STATUS_OK:
            achieved = outcome.rows["provenance"]["achieved"]
            fragment = outcome.rows["gen"]
            row.update(
                ach_nt=achieved["n"] * 100,
                ach_pd=achieved["p"] * 100,
                ach_ec=achieved["e"] * 100,
                dyn_loads=fragment["dyn_loads"],
                speedup=fragment["speedup"],
            )
            speedups.append(fragment["speedup"])
        else:
            marker = outcome.status.upper()
            for key in ("ach_nt", "ach_pd", "ach_ec", "dyn_loads",
                        "speedup"):
                row[key] = marker
        rows.append(row)
    if speedups:
        rows.append({
            "fingerprint": "geomean",
            "seed": "",
            "ach_nt": "",
            "ach_pd": "",
            "ach_ec": "",
            "dyn_loads": "",
            "speedup": _geomean(speedups),
        })
    return {
        "rows": rows,
        "outcomes": outcomes,
        "degraded": [o.name for o in outcomes if o.degraded],
    }


def render_markdown(rows: List[dict], scale: float, step: int) -> str:
    """The sweep table as a Markdown document fragment."""
    lines = [
        "### Synthetic-SPEC sweep (generated workloads)",
        "",
        f"Class-mix simplex at {step}% pitch, scale {scale:g}; speedup "
        "is the proposed configuration (256-entry table, 1 cached "
        "register, compiler selection) over no early generation.",
        "",
        "| " + " | ".join(SWEEP_HEADERS.values()) + " |",
        "|" + "---|" * len(SWEEP_HEADERS),
    ]
    for row in rows:
        cells = []
        for key in SWEEP_HEADERS:
            value = row.get(key, "")
            if isinstance(value, float):
                cells.append(f"{value:.2f}")
            else:
                cells.append(str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def write_markdown(
    path, rows: List[dict], scale: float, step: int
) -> Path:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render_markdown(rows, scale, step), encoding="utf-8")
    return target
