"""Render a ``--trace-out`` directory into human-readable summaries.

Usage::

    python -m repro.harness.obs_report TRACE_DIR [--validate]

A trace directory (written by ``repro.harness.main --trace-out``)
holds one ``trace-<pid>.jsonl`` per process that emitted records plus
a ``manifest.json``.  This tool
merges the files and prints:

* **per-stage timings** — every span name with count / total / mean /
  max wall seconds (compiler passes, sims, prepare/emulate/profile,
  harness tasks),
* **per-worker utilisation** — the same, grouped by the ``worker`` tag
  the harness stamps on its pool workers,
* **load classes** — Table 2's per-class static/dynamic shares and
  NT/PD prediction rates, recomputed from each workload's
  ``profile.classes`` event (the raw counts) by the harness's own
  :func:`~repro.profiling.class_columns`, so the table is a pure
  projection of the trace,
* **simulator totals** — the ``sim.counters`` event counters summed
  per early-generation config,
* **replay path coverage** — the ``sim.replay`` events grouped by
  path (``scalar`` for a config routed before the run, ``hw-fixed``
  for a hardware dual-path route fixed point), with replay rounds,
  divergence patches and the segment memo's hit rate.

``--validate`` instead checks the manifest and every trace record
against the schema and exits non-zero on any problem; CI runs this
against the smoke-run trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.harness.reporting import TABLE2_HEADERS, format_table
from repro.obs import (
    MANIFEST_NAME,
    TRACE_SCHEMA,
    load_manifest,
    validate_manifest,
)
from repro.profiling import class_columns

_KINDS = ("meta", "span", "event")

STAGE_HEADERS = {
    "stage": "Stage",
    "count": "Count",
    "total_s": "Total s",
    "mean_s": "Mean s",
    "max_s": "Max s",
}

WORKER_HEADERS = {
    "worker": "Worker",
    "spans": "Spans",
    "busy_s": "Busy s",
}

SIM_HEADERS = {
    "config": "Config",
    "runs": "Runs",
    "cycles": "Cycles",
    "instructions": "Instructions",
    "loads": "Loads",
    "pred_success": "Pred OK",
    "calc_success": "Calc OK",
    "raddr_interlock": "Raddr stall",
}


REPLAY_HEADERS = {
    "path": "Path",
    "runs": "Runs",
    "rounds": "Rounds",
    "patches": "Patches",
    "segments": "Segments",
    "hit_pct": "Seg hit %",
}


def read_trace(trace_dir) -> List[dict]:
    """All records of every ``*.jsonl`` file, ordered by timestamp."""
    records: List[dict] = []
    for path in sorted(Path(trace_dir).glob("*.jsonl")):
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
    records.sort(key=lambda r: r.get("ts", 0.0))
    return records


def stage_summary(records: List[dict]) -> List[dict]:
    """Wall-time aggregate per span name, slowest total first."""
    stages: Dict[str, List[float]] = {}
    for rec in records:
        if rec.get("kind") == "span":
            stages.setdefault(rec["name"], []).append(rec.get("dur_s", 0.0))
    rows = []
    for name, durations in stages.items():
        total = sum(durations)
        rows.append({
            "stage": name,
            "count": len(durations),
            "total_s": round(total, 4),
            "mean_s": round(total / len(durations), 4),
            "max_s": round(max(durations), 4),
        })
    rows.sort(key=lambda row: row["total_s"], reverse=True)
    return rows


def worker_summary(records: List[dict]) -> List[dict]:
    """Span count and busy time per ``worker`` tag.

    Only top-level spans of each process (``parent_id`` is ``None``)
    count toward busy time, so nested spans are not double-counted.
    """
    workers: Dict[str, List[int]] = {}
    for rec in records:
        if rec.get("kind") != "span":
            continue
        worker = str(rec.get("tags", {}).get("worker", "?"))
        entry = workers.setdefault(worker, [0, 0.0])
        entry[0] += 1
        if rec.get("parent_id") is None:
            entry[1] += rec.get("dur_s", 0.0)
    return [
        {"worker": worker, "spans": spans, "busy_s": round(busy, 4)}
        for worker, (spans, busy) in sorted(workers.items())
    ]


def class_rows(records: List[dict]) -> List[dict]:
    """Table 2 rows recomputed from ``profile.classes`` events.

    Uses each workload's latest event (a re-run into the same trace
    directory re-emits it), rebuilds the per-class counts it flattens
    and runs them through :func:`repro.profiling.class_columns`, the
    arithmetic the harness's own Table 2 uses.
    """
    latest: Dict[str, dict] = {}
    for rec in records:
        if rec.get("kind") == "event" and rec.get("name") == "profile.classes":
            workload = str(rec.get("tags", {}).get("workload", "?"))
            latest[workload] = rec.get("counters", {})
    rows = []
    for workload in sorted(latest):
        c = latest[workload]
        counts = {
            group: {cls: c.get(f"{group}_{cls}", 0) for cls in "npe"}
            for group in ("static", "dynamic", "correct")
        }
        rows.append({"benchmark": workload,
                     **class_columns(counts, c.get("dyn_loads", 0))})
    return rows


def sim_totals(records: List[dict]) -> List[dict]:
    """``sim.counters`` event counters summed per early-gen config."""
    totals: Dict[str, Dict[str, int]] = {}
    runs: Dict[str, int] = {}
    for rec in records:
        if rec.get("kind") != "event" or rec.get("name") != "sim.counters":
            continue
        tags = rec.get("tags", {})
        config = str(tags.get("config", tags.get("selection", "?")))
        bucket = totals.setdefault(config, {})
        runs[config] = runs.get(config, 0) + 1
        for key, value in rec.get("counters", {}).items():
            bucket[key] = bucket.get(key, 0) + value
    rows = []
    for config in sorted(totals):
        bucket = totals[config]
        row = {"config": config, "runs": runs[config]}
        for key in SIM_HEADERS:
            if key in ("config", "runs"):
                continue
            row[key] = bucket.get(key, 0)
        rows.append(row)
    return rows


def replay_paths(records: List[dict]) -> List[dict]:
    """``sim.replay`` events grouped by replay path.

    Each row accumulates the replay rounds its configs took, the
    divergence patches they needed and the loop segments they walked,
    with the share the segment memo served.
    """
    rows: Dict[str, Dict[str, int]] = {}
    for rec in records:
        if rec.get("kind") != "event" or rec.get("name") != "sim.replay":
            continue
        tags = rec.get("tags", {})
        path = str(tags.get("path", "?"))
        row = rows.setdefault(path, {"runs": 0, "rounds": 0, "patches": 0,
                                     "segments": 0, "segment_hits": 0})
        row["runs"] += 1
        for key in ("rounds", "patches", "segments", "segment_hits"):
            value = tags.get(key)
            if isinstance(value, int):
                row[key] += value
    out = []
    for path in sorted(rows):
        row = dict(rows[path], path=path)
        if row["segments"]:
            row["hit_pct"] = 100.0 * row["segment_hits"] / row["segments"]
        out.append(row)
    return out


def validate(trace_dir) -> List[str]:
    """Schema problems of a trace directory (empty list when valid)."""
    trace_dir = Path(trace_dir)
    problems: List[str] = []
    try:
        manifest = load_manifest(trace_dir)
    except OSError:
        problems.append(f"missing {MANIFEST_NAME}")
        manifest = None
    except ValueError as exc:
        problems.append(f"{MANIFEST_NAME} is not valid JSON: {exc}")
        manifest = None
    if manifest is not None:
        problems.extend(validate_manifest(manifest))
        on_disk = sorted(p.name for p in trace_dir.glob("*.jsonl"))
        listed = manifest.get("trace_files")
        if isinstance(listed, list) and sorted(listed) != on_disk:
            problems.append(
                f"manifest trace_files {sorted(listed)} != on-disk "
                f"{on_disk}"
            )
    for path in sorted(trace_dir.glob("*.jsonl")):
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        ):
            if not line.strip():
                continue
            where = f"{path.name}:{lineno}"
            try:
                rec = json.loads(line)
            except ValueError:
                problems.append(f"{where}: not valid JSON")
                continue
            if rec.get("schema") != TRACE_SCHEMA:
                problems.append(
                    f"{where}: schema {rec.get('schema')!r} "
                    f"!= {TRACE_SCHEMA}"
                )
            if rec.get("kind") not in _KINDS:
                problems.append(f"{where}: unknown kind {rec.get('kind')!r}")
            for key in ("name", "ts", "pid"):
                if key not in rec:
                    problems.append(f"{where}: missing {key!r}")
            if rec.get("kind") == "span" and "dur_s" not in rec:
                problems.append(f"{where}: span lacks dur_s")
            if not isinstance(rec.get("tags", {}), dict):
                problems.append(f"{where}: tags is not an object")
    return problems


def render(trace_dir) -> str:
    """The full plain-text report of one trace directory."""
    trace_dir = Path(trace_dir)
    records = read_trace(trace_dir)
    out = []
    try:
        manifest = load_manifest(trace_dir)
    except (OSError, ValueError):
        manifest = None
    if manifest is not None:
        git = manifest.get("git") or {}
        out.append(
            f"run: {manifest.get('command')} "
            f"argv={manifest.get('argv')} scale={manifest.get('scale')} "
            f"created={manifest.get('created')}"
        )
        out.append(
            f"git: {git.get('revision', '?')} "
            f"dirty={git.get('dirty')} "
            f"degraded={manifest.get('degraded')}"
        )
    out.append(f"records: {len(records)} across "
               f"{len(list(trace_dir.glob('*.jsonl')))} trace file(s)")

    stages = stage_summary(records)
    if stages:
        out.append("")
        out.append(format_table(
            stages, columns=list(STAGE_HEADERS),
            headers=STAGE_HEADERS, precision=4,
            title="Per-stage wall time",
        ))
    workers = worker_summary(records)
    if workers:
        out.append("")
        out.append(format_table(
            workers, columns=list(WORKER_HEADERS),
            headers=WORKER_HEADERS, precision=4,
            title="Per-worker spans",
        ))
    classes = class_rows(records)
    if classes:
        out.append("")
        out.append(format_table(
            classes, columns=list(TABLE2_HEADERS),
            headers=TABLE2_HEADERS,
            title="Load classes from trace (Table 2 projection)",
        ))
    sims = sim_totals(records)
    if sims:
        out.append("")
        out.append(format_table(
            sims, columns=list(SIM_HEADERS), headers=SIM_HEADERS,
            title="Simulator event totals per config",
        ))
    replays = replay_paths(records)
    if replays:
        out.append("")
        out.append(format_table(
            replays, columns=list(REPLAY_HEADERS),
            headers=REPLAY_HEADERS,
            title="Replay path coverage (sim.replay)",
        ))
    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Summarize a --trace-out directory."
    )
    parser.add_argument("trace_dir", help="directory holding "
                        "trace-*.jsonl files and manifest.json")
    parser.add_argument("--validate", action="store_true",
                        help="check manifest and record schemas instead "
                        "of rendering; exit 1 on any problem")
    args = parser.parse_args(argv)

    if not Path(args.trace_dir).is_dir():
        print(f"not a directory: {args.trace_dir}", file=sys.stderr)
        return 2

    if args.validate:
        problems = validate(args.trace_dir)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            print(f"{len(problems)} problem(s) found", file=sys.stderr)
            return 1
        print(f"trace at {args.trace_dir} is valid")
        return 0

    print(render(args.trace_dir))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
