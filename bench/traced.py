"""The traced pass: one in-process run of a workload with layer spans.

Runs what ``repro.harness.main`` runs for the workload's first
invocation (at ``--jobs 1``, without the result store), but calls each
layer's public entry point itself, inside a ``bench.*`` span, with
``repro.obs`` configured.  The bench spans and the program's own spans
(``compile``, ``frontend``, ``pass:*``, ``regalloc``, ``emulate``,
``profile``, ``sim``) then share one clock and one trace, from which
:func:`layer_metrics` derives self times and counts.

Usage (inside a child process started by the benchmark)::

    python bench/child.py run STAMP bench.traced --out FILE -- HARNESS_ARGS
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro import obs
from repro.compiler.profile_feedback import profile_overrides
from repro.harness.experiments import (
    ExperimentContext,
    predictor_ablation,
    sim_requests,
)
from repro.harness.main import select_workloads
from repro.harness.reporting import format_table, predictor_ablation_headers
from repro.harness.runner import (
    STATUS_OK,
    TABLES,
    WorkloadOutcome,
    assemble_table,
    compute_rows,
)
from repro.sim.machine import BASELINE
from repro.sim.precompute import replay_path_counts
from repro.workloads import get_workload, workload_names

try:
    from repro.sim.precompute import warm_precompute
except ImportError:  # reported as a missing metric, never as 0
    warm_precompute = None

#: Bench spans whose whole duration is one layer's time.
PHASES = {
    "bench.workloads.gen": "workloads.gen.plan_s",
    "bench.profiling.profile": "profiling.profile_s",
    "bench.profiling.overrides": "profiling.overrides_s",
    "bench.sim.precompute": "sim.precompute.build_s",
    "bench.sim.replay": "sim.replay.sweep_s",
    "bench.harness.rows": "harness.rows_s",
    "bench.sim.predictors": "sim.predictors.ablation_s",
    "bench.harness.report": "harness.report_s",
}
#: The bench span around ``ExperimentContext.run``; its time is split
#: into the compiler's and the emulator's own spans by self time.
PREPARE = "bench.prepare"


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--predictor", default=None)
    opts, _ = parser.parse_known_args(argv)
    return opts


def _program(tracer, ctx: ExperimentContext, name: str) -> WorkloadOutcome:
    """One program through every layer, each call in its own span."""
    suite = get_workload(name).suite
    with tracer.span(PREPARE):
        run = ctx.run(name)
    with tracer.span("bench.profiling.profile"):
        profile = run.get_profile()
    requests = sim_requests(suite)
    with tracer.span("bench.profiling.overrides"):
        overrides = None
        if any(req.use_profile_override for req in requests):
            overrides = profile_overrides(
                run.program, run.trace, predictor=profile.predictor
            )
    configs = [BASELINE] + [req.earlygen for req in requests]
    if warm_precompute is not None:
        with tracer.span("bench.sim.precompute"):
            warm_precompute(run.trace, ctx.machine, configs, [None] + [
                overrides if req.use_profile_override else None
                for req in requests
            ])
    before = replay_path_counts()
    with tracer.span("bench.sim.replay") as span:
        ctx.prefetch_sims(name)
        after = replay_path_counts()
        delta = {k: v - before.get(k, 0) for k, v in after.items()}
        span.set_counters(
            runs=len(configs),
            insts=len(configs) * len(run.trace),
            paths=sum(delta.values()),
            fast=sum(v for k, v in delta.items()
                     if not k.startswith("inline:")),
        )
    with tracer.span("bench.harness.rows"):
        rows = compute_rows(ctx, name)
    return WorkloadOutcome(name, suite, STATUS_OK, rows=rows)


def _render(outcomes, suites, backends, ablation_rows) -> str:
    """The tables exactly as ``repro.harness.main`` prints them."""
    parts = []
    for spec in TABLES:
        if spec.suite in suites:
            parts.append(format_table(
                assemble_table(spec, outcomes),
                columns=list(spec.headers), headers=spec.headers,
                title=spec.title,
            ))
    if backends and ablation_rows:
        headers = predictor_ablation_headers(backends)
        parts.append(format_table(
            ablation_rows, columns=list(headers), headers=headers,
            title="Predictor backend ablation "
                  "(speedup vs no early generation)",
        ))
    return "".join("\n" + part + "\n" for part in parts)


def traced_pass(argv: List[str], trace_dir: Path) -> str:
    """Run the workload once under the tracer; returns its tables."""
    opts = _parse(argv)
    tracer = obs.configure(trace_dir, command="bench", worker="trace")
    try:
        with tracer.span("bench.run"):
            with tracer.span("bench.workloads.gen"):
                if opts.workloads is not None:
                    names = select_workloads(opts.workloads.split(","))
                else:
                    names = [n for s in ("spec", "mediabench")
                             for n in workload_names(s)]
                suites = tuple(dict.fromkeys(
                    get_workload(n).suite for n in names
                ))
            backends = []
            if opts.predictor is not None:
                from repro.sim.predictors import backend_names
                backends = (list(backend_names())
                            if opts.predictor == "all"
                            else opts.predictor.split(","))
            ctx = ExperimentContext(scale=opts.scale)
            outcomes = []
            for name in names:
                with tracer.span("bench.program", program=name):
                    outcomes.append(_program(tracer, ctx, name))
            with tracer.span("bench.sim.predictors"):
                ablation_rows = (predictor_ablation(ctx, backends, names)
                                 if backends else None)
            with tracer.span("bench.harness.report"):
                return _render(outcomes, suites, backends, ablation_rows)
    finally:
        obs.disable()


# ---------------------------------------------------------------------------
# Trace -> per-layer metrics
# ---------------------------------------------------------------------------

def load_spans(trace_dir: Path) -> List[dict]:
    spans = []
    for path in sorted(trace_dir.glob("*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                if record["kind"] == "span":
                    spans.append(record)
    return spans


def _annotate(spans: List[dict]) -> None:
    """Add each span's ``self_s`` and the nearest enclosing bench span."""
    by_id = {(s["pid"], s["span_id"]): s for s in spans}
    child_s: Dict[tuple, float] = defaultdict(float)
    for s in spans:
        if s["parent_id"] is not None:
            child_s[(s["pid"], s["parent_id"])] += s["dur_s"]
    for s in spans:
        s["self_s"] = s["dur_s"] - child_s[(s["pid"], s["span_id"])]
        node = s
        while node is not None and not node["name"].startswith("bench."):
            parent = node["parent_id"]
            node = by_id.get((s["pid"], parent)) if parent else None
        s["phase"] = node["name"] if node is not None else None


def _aggregate(spans: Iterable[dict]) -> Dict[str, float]:
    """Layer times and counts over *spans* (already annotated)."""
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        name, counters = s["name"], s.get("counters", {})
        if name in PHASES:
            out[PHASES[name]] += s["dur_s"]
            if name == "bench.sim.replay":
                for key in ("runs", "insts", "paths", "fast"):
                    out["_replay_" + key] += counters.get(key, 0)
            continue
        if s["phase"] != PREPARE:
            continue
        if name == "frontend":
            out["lang.frontend_s"] += s["self_s"]
        elif name == "compile":
            out["compiler.compile_s"] += s["self_s"]
            out["compiler.insts"] += counters.get("instructions", 0)
            out["compiler.static_loads"] += counters.get("static_loads", 0)
            out["compiler.ld_p"] += counters.get("ld_p", 0)
            out["compiler.ld_e"] += counters.get("ld_e", 0)
        elif name.startswith("pass:"):
            out[f"compiler.pass.{name[5:]}_s"] += s["self_s"]
            # Passes without a ``changed`` counter apply on every call.
            out[f"compiler.pass.{name[5:]}.applied"] += counters.get(
                "changed", 1)
        elif name == "regalloc":
            out["compiler.regalloc_s"] += s["self_s"]
        elif name == "emulate":
            out["sim.executor.emulate_s"] += s["self_s"]
            out["sim.executor.trace_insts"] += counters.get("steps", 0)
    return out


def _rates(acc: Dict[str, float]) -> Dict[str, float]:
    out = {k: v for k, v in acc.items() if not k.startswith("_")}
    if acc.get("sim.executor.emulate_s"):
        out["sim.executor.minsts_per_s"] = (
            acc["sim.executor.trace_insts"] / acc["sim.executor.emulate_s"]
            / 1e6)
    sim_s = acc.get("sim.precompute.build_s", 0.0) + acc.get(
        "sim.replay.sweep_s", 0.0)
    if sim_s:
        out["sim.replay.runs"] = acc["_replay_runs"]
        out["sim.replay.sims_per_s"] = acc["_replay_runs"] / sim_s
        out["sim.replay.minsts_per_s"] = acc["_replay_insts"] / sim_s / 1e6
        out["sim.replay.fast_frac"] = (
            acc["_replay_fast"] / acc["_replay_paths"]
            if acc["_replay_paths"] else 0.0)
    return out


def layer_metrics(trace_dir: Path) -> dict:
    """Workload totals and one row per program, from the trace files.

    ``traced_wall_s`` is the ``bench.run`` span; what no layer span
    covers of it is ``harness.unattributed_s``.
    """
    spans = load_spans(trace_dir)
    _annotate(spans)
    by_program: Dict[str, List[dict]] = defaultdict(list)
    for s in spans:
        if "program" in s["tags"]:
            by_program[s["tags"]["program"]].append(s)
    totals = _aggregate(spans)
    totals["workloads.gen.programs"] = len(by_program)
    root = sum(s["dur_s"] for s in spans if s["name"] == "bench.run")
    totals["harness.unattributed_s"] = root - sum(
        v for k, v in totals.items()
        if k.endswith("_s") and not k.startswith("_"))
    totals["traced_wall_s"] = root
    return {
        "metrics": _rates(totals),
        "programs": {name: _rates(_aggregate(group))
                     for name, group in by_program.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="FILE")
    parser.add_argument("harness_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    harness_args = args.harness_args
    if harness_args[:1] == ["--"]:
        harness_args = harness_args[1:]
    with tempfile.TemporaryDirectory(dir=".") as trace_dir:
        sys.stdout.write(traced_pass(harness_args, Path(trace_dir)))
        result = layer_metrics(Path(trace_dir))
    Path(args.out).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0
