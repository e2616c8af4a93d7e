"""Per-run manifests: what produced a trace, and what came out of it.

A manifest is a single ``manifest.json`` next to the JSONL trace files,
recording everything needed to interpret (or re-run) the run: command
and argv, git revision, interpreter/platform, hash seed, workload scale,
the simulated machine configuration, the per-workload outcome summary
(including degraded rows and the content keys of the compiled
artifacts), and the trace file list.  :func:`validate_manifest` is the
schema check used by ``obs_report --validate`` and CI.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Version stamp of the manifest JSON schema.
MANIFEST_SCHEMA = 1

#: Keys every manifest must carry (see :func:`validate_manifest`).
REQUIRED_KEYS = (
    "schema", "kind", "command", "argv", "created", "git", "python",
    "platform", "seed", "scale", "machine", "workloads", "degraded",
    "trace_files",
)

MANIFEST_NAME = "manifest.json"


def jsonable(obj):
    """Recursively convert dataclasses/enums/paths to JSON-native data."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    return obj


def git_revision(cwd=None) -> Optional[Dict[str, object]]:
    """Best-effort ``{"revision": ..., "dirty": ...}`` of the repo at *cwd*."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        if rev.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        return {
            "revision": rev.stdout.strip(),
            "dirty": bool(status.stdout.strip())
            if status.returncode == 0 else None,
        }
    except (OSError, subprocess.SubprocessError):
        return None


def _gen_provenance(name: str) -> Optional[dict]:
    """Generator provenance of a ``gen:`` workload, or None on failure.

    The provenance (fingerprint, seed, recipe weights, achieved mix) is
    enough to regenerate the exact program from the manifest alone.
    It is the fallback for entries that arrive without a ``"gen"`` key
    (the harness passes the provenance its rows carry), so it plans;
    a name that fails to materialize must not take the manifest down
    with it.
    """
    try:
        from repro.workloads.gen import provenance

        return provenance(name)
    except Exception:
        return None


def build_manifest(
    *,
    command: str,
    argv: Optional[List[str]],
    scale: float,
    machine,
    workloads: List[dict],
    extra: Optional[dict] = None,
) -> dict:
    """Assemble a manifest dict (trace files are filled at write time)."""
    import platform as _platform

    workloads = [dict(entry) for entry in workloads]
    for entry in workloads:
        name = entry.get("name", "")
        if (isinstance(name, str) and name.startswith("gen:")
                and "gen" not in entry):
            entry["gen"] = _gen_provenance(name)

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "kind": "repro-run-manifest",
        "command": command,
        "argv": list(argv) if argv is not None else [],
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git": git_revision(),
        "python": sys.version.split()[0],
        "platform": _platform.platform(),
        "seed": {"pythonhashseed": os.environ.get("PYTHONHASHSEED")},
        "scale": scale,
        "machine": jsonable(machine),
        "workloads": jsonable(workloads),
        "degraded": [
            w["name"] for w in workloads
            if w.get("status") not in (None, "ok")
        ],
        "trace_files": [],
    }
    if extra:
        manifest.update(jsonable(extra))
    return manifest


def write_manifest(trace_dir, manifest: dict) -> Path:
    """Atomically write ``manifest.json`` under *trace_dir*.

    Fills ``trace_files`` with the JSONL files currently present so the
    manifest is self-describing even when workers wrote their own files.
    """
    trace_dir = Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    manifest = dict(manifest)
    manifest["trace_files"] = sorted(
        p.name for p in trace_dir.glob("*.jsonl")
    )
    path = trace_dir / MANIFEST_NAME
    fd, tmp = tempfile.mkstemp(dir=str(trace_dir), prefix=MANIFEST_NAME,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_manifest(trace_dir) -> dict:
    with open(Path(trace_dir) / MANIFEST_NAME, "r", encoding="utf-8") as fh:
        return json.load(fh)


def validate_manifest(manifest: dict) -> List[str]:
    """Schema problems of *manifest* (empty list when valid)."""
    problems = []
    if not isinstance(manifest, dict):
        return ["manifest is not a JSON object"]
    for key in REQUIRED_KEYS:
        if key not in manifest:
            problems.append(f"missing required key {key!r}")
    if manifest.get("schema") != MANIFEST_SCHEMA:
        problems.append(
            f"schema {manifest.get('schema')!r} != {MANIFEST_SCHEMA}"
        )
    if manifest.get("kind") != "repro-run-manifest":
        problems.append(f"kind {manifest.get('kind')!r} unexpected")
    workloads = manifest.get("workloads")
    if not isinstance(workloads, list):
        problems.append("workloads is not a list")
    else:
        for i, entry in enumerate(workloads):
            if not isinstance(entry, dict) or "name" not in entry:
                problems.append(f"workloads[{i}] lacks a name")
                continue
            name = entry.get("name")
            if isinstance(name, str) and name.startswith("gen:"):
                gen = entry.get("gen")
                if not isinstance(gen, dict):
                    problems.append(
                        f"workloads[{i}] ({name}) lacks generator "
                        "provenance ('gen' key)"
                    )
                else:
                    for key in ("fingerprint", "seed", "weights",
                                "achieved"):
                        if key not in gen:
                            problems.append(
                                f"workloads[{i}] ({name}) provenance "
                                f"lacks {key!r}"
                            )
    if not isinstance(manifest.get("trace_files"), list):
        problems.append("trace_files is not a list")
    return problems
