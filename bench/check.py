"""Output-row accounting: every table row is checked, none is sampled.

The harness prints paper-style tables: a title line, a header line, a
dash line, then one row per program (plus summary rows), each table
ending at a blank line.  A row is identified by its table title and its
first column, whose width the dash line gives.  Lines outside tables
(the degraded-workload report, for one) are rows of their own, keyed by
their text.  The ``total wall time`` line is the only line dropped: it
differs on every run.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

RowKey = Tuple[str, str]

_DROPPED_PREFIX = "total wall time"
_DEGRADED_MARKERS = ("ERROR", "TIMEOUT")


def _is_dash_line(line: str) -> bool:
    return line.startswith("-") and set(line) <= {"-", " "}


def _degraded(line: str) -> bool:
    return any(m in line.split() for m in _DEGRADED_MARKERS)


def parse_rows(text: str) -> Dict[RowKey, str]:
    """Map ``(table title, first column)`` to each row's full line."""
    lines = [ln.rstrip() for ln in text.splitlines()
             if not ln.startswith(_DROPPED_PREFIX)]
    rows: Dict[RowKey, str] = {}
    i = 0
    while i < len(lines):
        line = lines[i]
        if i + 2 < len(lines) and line and _is_dash_line(lines[i + 2]):
            title = line.strip()
            width = len(lines[i + 2].split(" ", 1)[0])
            i += 3
            while i < len(lines) and lines[i].strip():
                rows[(title, lines[i][:width].strip())] = lines[i]
                i += 1
        elif line.strip():
            rows[("", line.strip())] = line
            i += 1
        else:
            i += 1
    return rows


def failed_rows(reference: Dict[RowKey, str],
                output: Dict[RowKey, str]) -> List[RowKey]:
    """Rows that are missing, extra, degraded, or differ from *reference*."""
    failed = []
    for key in list(reference) + [k for k in output if k not in reference]:
        line = output.get(key)
        if line is None or line != reference.get(key) or _degraded(line):
            failed.append(key)
    return failed


def degraded_rows(output: Dict[RowKey, str]) -> List[RowKey]:
    """Rows marked ERROR or TIMEOUT (used where no reference exists)."""
    return [key for key, line in output.items() if _degraded(line)]
