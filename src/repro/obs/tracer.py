"""Hierarchical spans, counters, and a process-safe JSONL trace sink.

One :class:`Tracer` per process writes newline-delimited JSON records to
its own ``trace-<pid>.jsonl`` file inside the trace directory, so the
fork-based harness workers never interleave partial lines: a worker
inherits the parent's tracer across ``fork()`` and transparently
switches to a fresh per-pid file on its first record.  A run's trace is
therefore the *set* of ``*.jsonl`` files in the directory;
:mod:`repro.harness.obs_report` merges them.

Record kinds (every record carries ``schema``, ``kind``, ``pid``,
``ts`` — wall-clock epoch seconds — and a merged ``tags`` dict):

``meta``
    First record of every file: tracer creation info.
``span``
    A closed span: ``name``, ``dur_s``, ``span_id``, ``parent_id``
    (``None`` for a top-level span of this process), optional integer
    ``counters``.  Written when the span *exits*, so children appear
    before their parent in the file.
``event``
    A point-in-time record with optional ``counters``.

Tags flow three ways: tracer-wide base tags (``worker=w3``), tags of
every enclosing open span (``workload=li``), and the record's own tags —
later sources win.  That is how the harness stamps workload / config /
worker onto compiler and simulator records without threading arguments
through every layer.

The module-level :func:`current` tracer defaults to a shared
:class:`NullTracer` whose ``enabled`` flag is ``False``; instrumented
hot paths check that flag and skip all payload computation, so tracing
costs nothing unless :func:`configure` was called.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

#: Version stamp of the JSONL trace record schema.
TRACE_SCHEMA = 1


class _NullSpan:
    """Reusable no-op span (the disabled fast path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def counter(self, name: str, delta: int = 1) -> None:
        pass

    def set_counters(self, **counters) -> None:
        pass

    def set_tag(self, **tags) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op."""

    enabled = False

    def span(self, name: str, **tags) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, counters=None, **tags) -> None:
        pass

    def add_tags(self, **tags) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


class Span:
    """One timed region; use as a context manager via ``Tracer.span``."""

    __slots__ = ("_tracer", "name", "tags", "counters", "span_id",
                 "parent_id", "_pid", "_t0", "_ts")

    def __init__(self, tracer: "Tracer", name: str, tags: dict):
        self._tracer = tracer
        self.name = name
        self.tags = tags
        self.counters: Dict[str, float] = {}
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self._pid = 0
        self._t0 = 0.0
        self._ts = 0.0

    def counter(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def set_counters(self, **counters) -> None:
        self.counters.update(counters)

    def set_tag(self, **tags) -> None:
        self.tags.update(tags)

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        self._ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        if exc_type is not None:
            self.tags.setdefault("error", exc_type.__name__)
        self._tracer._close(self, duration)
        return False


class Tracer:
    """Writes spans and events to per-pid JSONL files under one directory."""

    enabled = True

    def __init__(self, out_dir, tags: Optional[dict] = None):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._base_tags: Dict[str, object] = dict(tags or {})
        self._stack: List[Span] = []
        self._next_id = 1
        self._fh = None
        self._pid: Optional[int] = None
        self._lock = threading.Lock()

    # -- tags --------------------------------------------------------------

    def add_tags(self, **tags) -> None:
        """Merge *tags* into every future record (e.g. ``worker=w2``)."""
        self._base_tags.update(tags)

    def _merged_tags(self, own: dict) -> dict:
        merged = dict(self._base_tags)
        for span in self._stack:
            merged.update(span.tags)
        merged.update(own)
        return merged

    # -- spans and events --------------------------------------------------

    def span(self, name: str, **tags) -> Span:
        return Span(self, name, tags)

    @contextmanager
    def tagged(self, **tags) -> Iterator[None]:
        """Apply *tags* to every record emitted inside the block."""
        with self.span("ctx", **tags):
            yield

    def event(self, name: str, counters=None, **tags) -> None:
        record = {
            "schema": TRACE_SCHEMA,
            "kind": "event",
            "name": name,
            "ts": round(time.time(), 6),
            "pid": os.getpid(),
            "tags": self._merged_tags(tags),
        }
        if counters:
            record["counters"] = dict(counters)
        self._write(record)

    def _open(self, span: Span) -> None:
        # A forked worker inherits the parent's open spans and their
        # tags, but links only to spans it opened itself: its outermost
        # spans are top-level in its own file.
        span._pid = pid = os.getpid()
        top = self._stack[-1] if self._stack else None
        span.parent_id = (
            top.span_id if top is not None and top._pid == pid else None
        )
        span.span_id = self._next_id
        self._next_id += 1
        self._stack.append(span)

    def _close(self, span: Span, duration: float) -> None:
        # A forked child inherits spans opened by the parent; only pop
        # what this process actually pushed.
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:
            self._stack.remove(span)
        # The "ctx" pseudo-span exists only to scope tags; not recorded.
        if span.name == "ctx":
            return
        record = {
            "schema": TRACE_SCHEMA,
            "kind": "span",
            "name": span.name,
            "ts": round(span._ts, 6),
            "dur_s": round(duration, 6),
            "pid": os.getpid(),
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "tags": self._merged_tags(span.tags),
        }
        if span.counters:
            record["counters"] = span.counters
        self._write(record)

    # -- sink --------------------------------------------------------------

    def trace_path(self) -> Path:
        """This process's JSONL file (created on first record)."""
        return self.out_dir / f"trace-{os.getpid()}.jsonl"

    def _ensure_file(self):
        pid = os.getpid()
        if self._fh is None or pid != self._pid:
            # First record of this process (or first after a fork): open
            # a fresh per-pid file.  An inherited parent handle is
            # abandoned, never written to, so lines cannot interleave.
            self._pid = pid
            self._fh = open(self.trace_path(), "a", encoding="utf-8")
            meta = {
                "schema": TRACE_SCHEMA,
                "kind": "meta",
                "name": "trace-start",
                "ts": round(time.time(), 6),
                "pid": pid,
                "tags": dict(self._base_tags),
            }
            self._fh.write(json.dumps(meta, separators=(",", ":")))
            self._fh.write("\n")
            self._fh.flush()
        return self._fh

    def _write(self, record: dict) -> None:
        with self._lock:
            fh = self._ensure_file()
            fh.write(json.dumps(record, separators=(",", ":"), default=str))
            fh.write("\n")
            # Flush every record: a worker killed by the deadline
            # enforcement must not lose its completed spans.
            fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None and self._pid == os.getpid():
                try:
                    self._fh.close()
                except OSError:
                    pass
            self._fh = None
            self._pid = None


# ---------------------------------------------------------------------------
# Ambient tracer
# ---------------------------------------------------------------------------

_current: object = NULL_TRACER


def configure(out_dir, **tags) -> Tracer:
    """Install a real tracer writing under *out_dir*; returns it."""
    global _current
    old = _current
    _current = Tracer(out_dir, tags=tags)
    if isinstance(old, Tracer):
        old.close()
    return _current


def current():
    """The ambient tracer (a no-op :data:`NULL_TRACER` by default)."""
    return _current


def disable() -> None:
    """Close and uninstall the ambient tracer."""
    global _current
    old = _current
    _current = NULL_TRACER
    if isinstance(old, Tracer):
        old.close()
