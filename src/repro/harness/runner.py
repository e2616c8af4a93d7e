"""Fault-isolated execution of the per-workload experiment pipeline.

The full-scale reproduction executes 25 workloads; before this layer
existed, one ``EmulationError`` or wedged workload aborted every table
and figure.  The :class:`WorkloadRunner` gives each workload's
compile→emulate→simulate pipeline:

* a **wall-clock timeout** (the workload runs in a pooled worker
  *process*; on expiry the process is killed for real and the workload
  degrades to a ``TIMEOUT`` row) — the one hang guard,
* **graceful degradation** — any failure becomes an ``ERROR`` row
  carrying the exception summary instead of killing the run,
* **resume** — with a result store (the harness's ``--result-cache``),
  each completed workload's row fragments persist under a key over
  everything that determines them, and a re-invocation skips them,
  re-running only failed/timed-out workloads and those whose
  configuration or code changed — the one recovery path: the pipeline
  is deterministic, so re-running a failure within the run would only
  fail again.

Per workload, the runner computes the row fragment of every
:data:`~repro.harness.experiments.TABLES` entry of that workload's
suite (Table 2, Figures 5a–5c, and Table 3 for SPEC; Table 4 for
MediaBench; the predictor ablation when asked) after one simulation
sweep, then :func:`assemble_table` rebuilds each paper artifact from
the surviving fragments — summary rows (geomean/average) are computed
over successful workloads only, and degraded workloads appear as
ERROR/TIMEOUT rows.

Every workload the store does not cover runs as one task on a pool of
forked workers (:class:`~repro.harness.parallel.LocalPool`), at any
``jobs``: ``jobs=1`` is one worker.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.harness.experiments import (
    TABLES,
    ExperimentContext,
    TableSpec,
    _summary_row,
    ablation_row,
    table_row,
)
from repro.workloads import get_workload, workload_suite

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"

#: Scheduler tick when no deadline is nearer (seconds).
_POLL = 0.05


@dataclass
class WorkloadOutcome:
    """Result of running one workload under fault isolation."""

    name: str
    suite: str
    status: str
    rows: Dict[str, dict] = field(default_factory=dict)
    error: str = ""
    error_type: str = ""
    elapsed: float = 0.0
    #: True when the rows were read from this run's result store.
    cached: bool = False

    @property
    def degraded(self) -> bool:
        return self.status != STATUS_OK


def compute_rows(
    ctx: ExperimentContext, name: str, backends: Sequence[str] = ()
) -> Dict[str, dict]:
    """Row fragments of every experiment *name* participates in.

    With *backends*, the predictor-ablation row joins them as the
    ``"ablation"`` fragment; its configs replay in the same sweep as the
    tables', instead of recompiling and re-emulating the workload
    later.  A
    generated workload is planned here (on a store miss, in the task
    that computes it) and its generator provenance joins the rows as
    the ``"provenance"`` fragment, so no consumer has to plan it again.
    """
    suite = get_workload(name).suite
    # One sweep replays every config of the rows below, the ablation's
    # included; the row builders then read the context cache.
    ctx.prefetch_sims(name, backends)
    rows = {spec.key: table_row(ctx, spec, name)
            for spec in TABLES if spec.suite == suite}
    if suite == "gen":
        from repro.workloads.gen import provenance
        rows["provenance"] = provenance(name)
    if backends:
        rows["ablation"] = ablation_row(ctx, name, backends)
    return rows


class WorkloadRunner:
    """Runs workloads under a wall-clock timeout, resuming from a store.

    Every workload that no result-store entry covers is one task on a
    :class:`~repro.harness.parallel.LocalPool` of ``jobs`` forked
    workers, so a wedged workload is killed for real and rows,
    statuses and store entries are the same at any ``jobs``.
    ``timeout`` is the wall-clock seconds each task may run; 0 (the
    default) sets no deadline.  To step through one workload in this
    process, call :func:`compute_rows` directly.

    ``result_store`` (a :class:`~repro.harness.store.ResultStore`, the
    harness's ``--result-cache``) persists each OK workload's row
    fragments across *runs*, keyed on everything that determines them
    (name, scale, machine, verifier switches, injected-fault mode,
    ablation backends, code version): a warm store skips the workload's
    compile+simulate entirely and reproduces byte-identical tables, so
    resuming a partly failed run re-runs only its failures.

    ``backends`` names the predictor backends whose ablation row each
    workload computes as its ``"ablation"`` fragment (empty: none).
    """

    def __init__(
        self,
        ctx: ExperimentContext,
        timeout: float = 0.0,
        progress: Optional[Callable[[str], None]] = None,
        jobs: int = 1,
        result_store=None,
        backends: Sequence[str] = (),
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if timeout < 0:
            raise ValueError("timeout must be >= 0")
        self.ctx = ctx
        self.timeout = timeout
        self._progress = progress
        self.jobs = jobs
        self.result_store = result_store
        self.backends = tuple(backends)

    def _say(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)

    # -- persistent result cache -------------------------------------------

    def _rows_key(self, name: str) -> str:
        ctx = self.ctx
        injector = ctx.fault_injector
        return self.result_store.key(
            "harness-rows", name, ctx.scale, ctx.machine, ctx.verify,
            ctx.verify_ir, injector.mode(name) if injector else None,
            self.backends,
        )

    def load_cached_rows(self, name: str) -> Optional[WorkloadOutcome]:
        """A finished outcome from the result store, or None."""
        if self.result_store is None:
            return None
        payload = self.result_store.get(self._rows_key(name))
        if payload is None:
            return None
        return WorkloadOutcome(
            name, payload["suite"], STATUS_OK, rows=payload["rows"],
            cached=True,
        )

    def store_rows(self, outcome: WorkloadOutcome) -> None:
        """Publish an OK outcome's rows unless they came from the store."""
        if (self.result_store is None or outcome.status != STATUS_OK
                or outcome.cached):
            return
        self.result_store.put(
            self._rows_key(outcome.name),
            {"suite": outcome.suite, "rows": outcome.rows},
        )

    # -- suites ------------------------------------------------------------

    def run_workload(self, name: str) -> WorkloadOutcome:
        """Run one workload, honoring the store and the timeout."""
        return self.run_suite([name])[0]

    def run_suite(self, names: Sequence[str]) -> List[WorkloadOutcome]:
        """Run every workload in *names*, degrading failures to rows.

        The result store is consulted here, before any worker is
        forked, so a fully resumed suite never starts a pool.
        Progress lines number each workload by its place in *names*.
        """
        outcomes: Dict[str, WorkloadOutcome] = {}
        place = {name: i for i, name in enumerate(names, 1)}

        def done(outcome: WorkloadOutcome) -> None:
            self.store_rows(outcome)
            outcomes[outcome.name] = outcome
            note = outcome.status.upper()
            if outcome.cached:
                note += " (result-cache)"
            self._say(
                f"[{place[outcome.name]}/{len(names)}] {outcome.name}: "
                f"{note} in {outcome.elapsed:.1f}s"
            )

        todo = []
        for name in names:
            resumed = self.load_cached_rows(name)
            if resumed is None:
                todo.append(name)
            else:
                done(resumed)
        if todo:
            self._run_on_pool(todo, done)
        return [outcomes[name] for name in names]

    def _run_on_pool(self, names: Sequence[str],
                     done: Callable[[WorkloadOutcome], None]) -> None:
        """Run *names* on a pool, one task each, handing each finished
        outcome to *done* as it lands.

        A task past its deadline is killed and degrades to ``TIMEOUT``;
        a failed one degrades to ``ERROR``.  The pool is stopped on
        return.
        """
        # Deferred: the fork pool is imported only on a store miss.
        from repro.harness.parallel import LocalPool

        timeout = self.timeout
        pending = deque(names)
        running: Dict[str, _Task] = {}
        pool = LocalPool(self.ctx, min(self.jobs, len(names)))
        try:
            while pending or running:
                now = time.monotonic()
                for task in [t for t in running.values()
                             if now >= t.deadline]:
                    pool.kill(task.name)
                    del running[task.name]
                    done(task.outcome(
                        STATUS_TIMEOUT, now, error_type="Timeout",
                        error=f"no result within {timeout:g}s",
                    ))

                while pending and pool.idle():
                    name = pending.popleft()
                    running[name] = _Task(name, now, timeout)
                    pool.submit(name, {
                        "name": name, "backends": self.backends,
                    })
                if not running:  # the last ones just timed out
                    continue

                wait = min([_POLL] + [t.deadline - now
                                      for t in running.values()])
                for name, ok, result in pool.poll(max(0.0, wait)):
                    task = running.pop(name)
                    now = time.monotonic()
                    if ok:
                        done(task.outcome(STATUS_OK, now, rows=result))
                    else:
                        error_type, message = result
                        done(task.outcome(
                            STATUS_ERROR, now, error=message,
                            error_type=error_type,
                        ))
        finally:
            pool.stop()


class _Task:
    """One workload running on the pool: its start and deadline."""

    __slots__ = ("name", "started", "deadline")

    def __init__(self, name: str, now: float, timeout: float):
        self.name = name
        self.started = now
        self.deadline = now + timeout if timeout else math.inf

    def outcome(self, status: str, now: float, **fields) -> WorkloadOutcome:
        return WorkloadOutcome(
            self.name, workload_suite(self.name), status,
            elapsed=now - self.started, **fields,
        )


# ---------------------------------------------------------------------------
# Table assembly from per-workload fragments
# ---------------------------------------------------------------------------

def degraded_row(spec: TableSpec, outcome: WorkloadOutcome) -> dict:
    """An ERROR/TIMEOUT placeholder row for a degraded workload."""
    columns = list(spec.headers)
    marker = outcome.status.upper()
    row = {"benchmark": outcome.name}
    if len(columns) > 1:
        row[columns[1]] = marker
    return row


def assemble_table(
    spec: TableSpec, outcomes: Sequence[WorkloadOutcome]
) -> List[dict]:
    """Rebuild one artifact's rows from per-workload outcomes."""
    good: List[dict] = []
    bad: List[dict] = []
    for outcome in outcomes:
        if outcome.suite != spec.suite:
            continue
        if outcome.status == STATUS_OK and spec.key in outcome.rows:
            good.append(outcome.rows[spec.key])
        else:
            bad.append(degraded_row(spec, outcome))
    rows = good + bad
    summary = _summary_row(spec, good)
    if summary is not None:
        rows.append(summary)
    return rows
