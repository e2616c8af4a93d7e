"""The fork pool every workload of the harness runs on.

One workload is one task: compile → emulate → profile → config sweep
→ row fragments, all inside a single forked worker, so nothing of the
workload crosses a process boundary except its final row dicts.
:meth:`~repro.harness.runner.WorkloadRunner.run_suite` schedules the
tasks on a :class:`LocalPool` of ``--jobs`` workers and applies the
wall-clock timeout; a worker that dies mid-task fails that workload as
a ``WorkerCrash``, and :meth:`LocalPool.kill` ends an expired task by
killing its worker for real.
"""

from __future__ import annotations

import multiprocessing
from typing import List, Optional, Tuple

from multiprocessing.connection import wait as _conn_wait

from repro import obs
from repro.errors import ReproError
from repro.harness.experiments import ExperimentContext

_FORK = multiprocessing.get_context("fork")

#: One polled result: (task_id, ok, rows-or-(error_type, message)).
TaskResult = Tuple[str, bool, object]


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _run_task(init: dict, payload: dict):
    """One workload's *entire* sweep, prepare through rows.

    Runs on a fresh child-side context built from *init* (the parent's
    :class:`ExperimentContext` settings) inside a ``workload`` span
    (``status`` tag).
    """
    from repro.harness.runner import STATUS_ERROR, STATUS_OK, compute_rows

    name = payload["name"]
    injector = init["fault_injector"]
    with obs.current().span("workload", workload=name) as span:
        span.set_tag(status=STATUS_ERROR)  # until the rows are in
        if injector is not None:
            injector.fire(name)
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
