"""Pool-based suite driver for the experiment harness.

One workload is one ``rows_full`` task: compile → emulate → profile →
config sweep → row fragments, all inside a single worker, so nothing of
the workload crosses a process boundary except its final row dicts.
That is exactly the shape a remote worker returns, so the same driver,
:func:`run_suite_pooled`, shards a suite across forked processes
(:class:`~repro.service.pool.LocalPool`, the harness's ``--jobs N``
and ``--timeout`` paths) or across ``repro.service`` coordinators with
leased remote workers (:class:`~repro.service.pool.RemotePool`,
``--workers``).  Every float in every table comes from the same
:func:`~repro.harness.runner.compute_rows` code path as an in-process
run, so pooled output is identical row for row.

Fault-isolation semantics mirror the in-process runner: per-attempt
wall-clock deadline (the worker running the attempt is killed for real
and respawned), bounded retries with exponential backoff (timeouts are
not retried), and degradation to ERROR/TIMEOUT outcomes.  With a remote
pool the coordinator owns that policy (``pool.handles_retries``).
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from typing import Callable, Dict, Optional, Sequence

from repro import obs
from repro.errors import ReproError
from repro.harness.experiments import ExperimentContext
from repro.workloads import get_workload

_FORK = multiprocessing.get_context("fork")

#: Scheduler tick when no deadline is nearer (seconds).
_POLL = 0.05


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def local_pool(ctx: ExperimentContext, size: int):
    """A :class:`~repro.service.pool.LocalPool` of *size* forked workers
    whose ``rows_full`` tasks run with *ctx*'s settings."""
    from repro.service.pool import LocalPool

    return LocalPool({
        "scale": ctx.scale,
        "machine": ctx.machine,
        "verify": ctx.verify,
        "verify_ir": ctx.verify_ir,
        "injector": ctx.fault_injector,
    }, size)


def _child_context(init: dict) -> ExperimentContext:
    """A fresh child-side context for one task."""
    return ExperimentContext(
        scale=init["scale"],
        machine=init["machine"],
        verify=init["verify"],
        verify_ir=init["verify_ir"],
        fault_injector=init["injector"],
    )


def _task_service(init: dict, payload: dict):
    """One service-layer compile-and-simulate job (see repro.service).

    The service scheduler drives the same :class:`_Worker` pool as the
    suite driver; its jobs arrive as this task kind.  Imported lazily
    so harness runs never load the service layer.
    """
    from repro.service.jobs import execute_job

    return execute_job(payload["spec"], machine=init["machine"])


def _task_rows_full(init: dict, payload: dict):
    """One attempt at one workload's *entire* sweep, prepare through rows.

    Opens the same ``workload`` span (``status`` tag, ``attempts``
    counter) as the in-process runner, so a trace has the same shape at
    any ``--jobs``.
    """
    from repro.harness.runner import STATUS_ERROR, STATUS_OK, compute_rows

    name = payload["name"]
    attempt = payload["attempt"]
    injector = init["injector"]
    with obs.current().span("workload", workload=name) as span:
        span.set_counters(attempts=attempt)
        span.set_tag(status=STATUS_ERROR)  # until the rows are in
        if injector is not None:
            injector.prime(name, attempt)
            injector.fire(name, attempt)
        rows = compute_rows(_child_context(init), name, payload["backends"])
        span.set_tag(status=STATUS_OK)
    return {"suite": get_workload(name).suite, "rows": rows}


_TASKS = {
    "rows_full": _task_rows_full,
    "service": _task_service,
}


def _worker_main(conn, init: dict, slot: int = 0) -> None:
    """Worker loop: run tasks off the pipe until told to exit."""
    tracer = obs.current()
    if tracer.enabled:
        tracer.add_tags(worker=f"w{slot}")
    while True:
        message = conn.recv()
        if message is None:
            return
        task_id, kind, payload = message
        try:
            result = _TASKS[kind](init, payload)
        except Exception as exc:
            if isinstance(exc, ReproError):
                exc.add_context(workload=payload.get("name"))
            conn.send((task_id, False, (type(exc).__name__, str(exc))))
        else:
            conn.send((task_id, True, result))


class _Worker:
    """One pooled process plus its duplex pipe and current task."""

    __slots__ = ("proc", "conn", "current", "slot")

    def __init__(self, init: dict, slot: int = 0):
        self.slot = slot
        self.conn, child_conn = _FORK.Pipe(duplex=True)
        self.proc = _FORK.Process(
            target=_worker_main, args=(child_conn, init, slot), daemon=True
        )
        self.proc.start()
        child_conn.close()
        self.current: Optional[dict] = None

    def submit(self, task: dict) -> None:
        self.current = task
        self.conn.send((task["id"], task["kind"], task["payload"]))

    def kill(self) -> None:
        self.proc.terminate()
        self.proc.join()
        self.conn.close()

    def stop(self) -> None:
        try:
            self.conn.send(None)
            self.proc.join(1.0)
        except (BrokenPipeError, OSError):
            pass
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()
        self.conn.close()


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


def run_suite_pooled(runner, names: Sequence[str], pool,
                     done: Callable) -> None:
    """Run every workload in *names* on *pool*, one task per workload.

    *names* are the workloads the runner could not resume from the
    result store; each finished
    :class:`~repro.harness.runner.WorkloadOutcome` is handed to *done*
    as it lands (the runner stores and announces it, including rows a
    coordinator served from its own cache).  With a local
    pool the retry/backoff/timeout policy runs here, while a remote
    pool's coordinator owns it (``pool.handles_retries``), including
    lease-based recovery from workers that crash or vanish mid-job.
    The pool is stopped on return.
    """
    from repro.harness.runner import (
        STATUS_ERROR,
        STATUS_OK,
        STATUS_TIMEOUT,
        WorkloadOutcome,
    )

    ctx = runner.ctx
    config = runner.config
    local_policy = not pool.handles_retries
    states: Dict[str, _State] = {}  # name -> state (all unfinished)
    by_task: Dict[str, _State] = {}  # task_id -> state (submitted)
    pending: deque = deque()  # states not yet submitted
    for name in names:
        state = _State(name, get_workload(name).suite)
        states[name] = state
        pending.append(state)

    def finish(state: _State, outcome) -> None:
        del states[state.name]
        done(outcome)

    def submit(state: _State, now: float) -> None:
        state.attempt += 1
        if state.started is None:
            state.started = now
        if config.timeout and local_policy:
            state.deadline = now + config.timeout
        state.task_id = f"{state.name}#{state.attempt}"
        by_task[state.task_id] = state
        pool.submit({
            "id": state.task_id,
            "kind": "rows_full",
            "payload": {
                "name": state.name,
                "attempt": state.attempt,
                "scale": ctx.scale,
                "verify_ir": ctx.verify_ir,
                "backends": runner.backends,
            },
        })

    def retry_or_fail(state: _State, error_type: str,
                      message: str, now: float) -> None:
        if local_policy and state.attempt <= config.retries:
            delay = config.backoff * (2 ** (state.attempt - 1))
            runner._say(
                f"{state.name}: attempt {state.attempt} failed "
                f"({error_type}); retrying in {delay:g}s"
            )
            state.not_before = now + delay
            state.deadline = None
            pending.append(state)
            return
        status = (STATUS_TIMEOUT if error_type == "Timeout"
                  else STATUS_ERROR)
        finish(state, WorkloadOutcome(
            state.name, state.suite, status,
            error=message, error_type=error_type,
            attempts=state.attempt,
            elapsed=now - state.started,
        ))

    try:
        while states:
            now = time.monotonic()

            # Local-pool deadlines (a remote pool's coordinator enforces
            # its own; see JobScheduler._enforce_deadlines).
            if config.timeout and local_policy:
                for state in list(by_task.values()):
                    if state.deadline is None or now < state.deadline:
                        continue
                    pool.kill_task(state.task_id)
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
            if config.timeout and local_policy:
                deadlines = [s.deadline for s in by_task.values()
                             if s.deadline is not None]
                if deadlines:
                    timeout = min(timeout, max(0.0, min(deadlines) - now))
            for task_id, ok, result in pool.poll(timeout):
                state = by_task.pop(task_id, None)
                if state is None or state.name not in states:
                    continue  # superseded attempt or late straggler
                now = time.monotonic()
                if not ok:
                    error_type, message = result[0], result[1]
                    if len(result) > 2 and result[2]:
                        # The coordinator's attempt count (its retries
                        # happened remotely, invisible to this loop).
                        state.attempt = result[2]
                    retry_or_fail(state, error_type, message, now)
                    continue
                attempts = result.get("attempts", state.attempt) or \
                    state.attempt
                finish(state, WorkloadOutcome(
                    state.name,
                    result.get("suite", state.suite),
                    STATUS_OK,
                    rows=result["rows"],
                    attempts=attempts,
                    elapsed=now - state.started,
                ))
    finally:
        pool.stop()
