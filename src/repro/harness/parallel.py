"""Fork-pool suite driver for the experiment harness.

One workload is one task: compile → emulate → profile → config sweep →
row fragments, all inside a single forked worker, so nothing of the
workload crosses a process boundary except its final row dicts.
:func:`run_suite_pooled` shards a suite across a :class:`LocalPool`
(the harness's ``--jobs N`` and ``--timeout`` paths).  Every float in
every table comes from the same :func:`~repro.harness.runner.compute_rows`
code path as an in-process run, so pooled output is identical row for
row.

Fault-isolation semantics mirror the in-process runner: per-attempt
wall-clock deadline (the worker running the attempt is killed for real
and respawned), bounded retries with exponential backoff (timeouts are
not retried), and degradation to ERROR/TIMEOUT outcomes.  A worker that
dies mid-task fails that attempt as a ``WorkerCrash``.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from multiprocessing.connection import wait as _conn_wait

from repro import obs
from repro.errors import ReproError
from repro.harness.experiments import ExperimentContext
from repro.workloads import workload_suite

_FORK = multiprocessing.get_context("fork")

#: Scheduler tick when no deadline is nearer (seconds).
_POLL = 0.05

#: One polled result: (task_id, ok, rows-or-(error_type, message)).
TaskResult = Tuple[str, bool, object]


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _run_task(init: dict, payload: dict):
    """One attempt at one workload's *entire* sweep, prepare through rows.

    Runs on a fresh child-side context built from *init* (the parent's
    :class:`ExperimentContext` settings) and opens the same ``workload``
    span (``status`` tag, ``attempts`` counter) as the in-process
    runner, so a trace has the same shape at any ``--jobs``.
    """
    from repro.harness.runner import STATUS_ERROR, STATUS_OK, compute_rows

    name = payload["name"]
    attempt = payload["attempt"]
    injector = init["fault_injector"]
    with obs.current().span("workload", workload=name) as span:
        span.set_counters(attempts=attempt)
        span.set_tag(status=STATUS_ERROR)  # until the rows are in
        if injector is not None:
            injector.prime(name, attempt)
            injector.fire(name, attempt)
        rows = compute_rows(ExperimentContext(**init), name,
                            payload["backends"])
        span.set_tag(status=STATUS_OK)
    return rows


def _worker_main(conn, init: dict, slot: int) -> None:
    """Worker loop: run payloads off the pipe until told to exit."""
    tracer = obs.current()
    if tracer.enabled:
        tracer.add_tags(worker=f"w{slot}")
    while True:
        payload = conn.recv()
        if payload is None:
            return
        try:
            result = _run_task(init, payload)
        except Exception as exc:
            if isinstance(exc, ReproError):
                exc.add_context(workload=payload["name"])
            conn.send((False, (type(exc).__name__, str(exc))))
        else:
            conn.send((True, result))


class LocalPool:
    """*size* forked workers, each running one task at a time.

    Every worker inherits *ctx*'s settings and builds a fresh context
    per task.  A worker that dies mid-task is respawned and its task
    reported as a ``WorkerCrash`` failure; :meth:`kill` terminates the
    worker running a task for real (the runner's deadline semantics)
    and respawns it.
    """

    def __init__(self, ctx: ExperimentContext, size: int):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self._init = {
            "scale": ctx.scale,
            "machine": ctx.machine,
            "verify": ctx.verify,
            "verify_ir": ctx.verify_ir,
            "fault_injector": ctx.fault_injector,
        }
        self._procs: list = [None] * size
        self._conns: list = [None] * size
        #: The task id each slot is running (None: idle).
        self._tasks: List[Optional[str]] = [None] * size
        for slot in range(size):
            self._spawn(slot)

    def _spawn(self, slot: int) -> None:
        conn, child_conn = _FORK.Pipe(duplex=True)
        proc = _FORK.Process(
            target=_worker_main, args=(child_conn, self._init, slot),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[slot], self._conns[slot] = proc, conn

    def _respawn(self, slot: int) -> None:
        self._procs[slot].terminate()
        self._procs[slot].join()
        self._conns[slot].close()
        self._tasks[slot] = None
        self._spawn(slot)

    def idle(self) -> int:
        """How many tasks can be submitted right now."""
        return self._tasks.count(None)

    def busy(self) -> bool:
        """True when at least one submitted task has not come back."""
        return self.idle() < len(self._tasks)

    def submit(self, task_id: str, payload: dict) -> None:
        """Hand *payload* to an idle worker (check :meth:`idle` first)."""
        slot = self._tasks.index(None)
        self._tasks[slot] = task_id
        self._conns[slot].send(payload)

    def poll(self, timeout: float) -> List[TaskResult]:
        """Completed tasks, waiting up to *timeout* seconds for one."""
        busy = {self._conns[slot]: slot
                for slot, task in enumerate(self._tasks) if task is not None}
        out: List[TaskResult] = []
        for conn in _conn_wait(list(busy), timeout=timeout):
            slot = busy[conn]
            task_id = self._tasks[slot]
            try:
                ok, result = conn.recv()
            except (EOFError, OSError):
                self._respawn(slot)
                out.append((task_id, False,
                            ("WorkerCrash", "worker process died")))
                continue
            self._tasks[slot] = None
            out.append((task_id, ok, result))
        return out

    def kill(self, task_id: str) -> None:
        """Abort a running task by killing (and respawning) its worker."""
        self._respawn(self._tasks.index(task_id))

    def stop(self) -> None:
        """Release every worker (running tasks are abandoned)."""
        for proc, conn in zip(self._procs, self._conns):
            try:
                conn.send(None)
                proc.join(1.0)
            except (BrokenPipeError, OSError):
                pass
            if proc.is_alive():
                proc.terminate()
                proc.join()
            conn.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

class _State:
    """One unfinished workload: its attempt count, clock, and deadline."""

    __slots__ = ("name", "suite", "attempt", "started", "deadline",
                 "not_before", "task_id")

    def __init__(self, name: str, suite: str):
        self.name = name
        self.suite = suite
        self.attempt = 0
        self.started: Optional[float] = None
        self.deadline: Optional[float] = None
        self.not_before = 0.0
        self.task_id: Optional[str] = None


def run_suite_pooled(runner, names: Sequence[str], size: int,
                     done: Callable) -> None:
    """Run every workload in *names* on a :class:`LocalPool` of *size*
    workers, one task per workload attempt.

    *names* are the workloads the runner could not resume from the
    result store; each finished
    :class:`~repro.harness.runner.WorkloadOutcome` is handed to *done*
    as it lands (the runner stores and announces it).  The runner's
    retry/backoff/timeout policy runs here; the pool is stopped on
    return.
    """
    from repro.harness.runner import (
        STATUS_ERROR,
        STATUS_OK,
        STATUS_TIMEOUT,
        WorkloadOutcome,
    )

    ctx = runner.ctx
    config = runner.config
    pool = LocalPool(ctx, size)
    states: Dict[str, _State] = {}  # name -> state (all unfinished)
    by_task: Dict[str, _State] = {}  # task_id -> state (submitted)
    pending: deque = deque()  # states not yet submitted
    for name in names:
        state = _State(name, workload_suite(name))
        states[name] = state
        pending.append(state)

    def finish(state: _State, outcome) -> None:
        del states[state.name]
        done(outcome)

    def submit(state: _State, now: float) -> None:
        state.attempt += 1
        if state.started is None:
            state.started = now
        if config.timeout:
            state.deadline = now + config.timeout
        state.task_id = f"{state.name}#{state.attempt}"
        by_task[state.task_id] = state
        pool.submit(state.task_id, {
            "name": state.name,
            "attempt": state.attempt,
            "backends": runner.backends,
        })

    def retry_or_fail(state: _State, error_type: str,
                      message: str, now: float) -> None:
        if state.attempt <= config.retries:
            delay = config.backoff * (2 ** (state.attempt - 1))
            runner._say(
                f"{state.name}: attempt {state.attempt} failed "
                f"({error_type}); retrying in {delay:g}s"
            )
            state.not_before = now + delay
            state.deadline = None
            pending.append(state)
            return
        finish(state, WorkloadOutcome(
            state.name, state.suite, STATUS_ERROR,
            error=message, error_type=error_type,
            attempts=state.attempt,
            elapsed=now - state.started,
        ))

    try:
        while states:
            now = time.monotonic()

            if config.timeout:
                for state in list(by_task.values()):
                    if state.deadline is None or now < state.deadline:
                        continue
                    pool.kill(state.task_id)
                    del by_task[state.task_id]
                    if ctx.fault_injector is not None:
                        ctx.fault_injector.stop_event.set()
                    finish(state, WorkloadOutcome(
                        state.name, state.suite, STATUS_TIMEOUT,
                        error=f"no result within {config.timeout:g}s",
                        error_type="Timeout",
                        attempts=state.attempt,
                        elapsed=now - state.started,
                    ))
                if not states:
                    break

            # Submit ready workloads while the pool has room.
            deferred = []
            while pending and pool.idle():
                state = pending.popleft()
                if state.not_before > now:
                    deferred.append(state)
                    continue
                submit(state, now)
            pending.extend(deferred)

            if not pool.busy():
                time.sleep(_POLL)
                continue

            timeout = _POLL
            deadlines = [s.deadline for s in by_task.values()
                         if s.deadline is not None]
            if deadlines:
                timeout = min(timeout, max(0.0, min(deadlines) - now))
            for task_id, ok, result in pool.poll(timeout):
                state = by_task.pop(task_id)
                now = time.monotonic()
                if not ok:
                    retry_or_fail(state, *result, now)
                    continue
                finish(state, WorkloadOutcome(
                    state.name, state.suite, STATUS_OK,
                    rows=result,
                    attempts=state.attempt,
                    elapsed=now - state.started,
                ))
    finally:
        pool.stop()
