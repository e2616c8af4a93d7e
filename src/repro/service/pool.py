"""The Pool protocol: one submit/poll interface over local and remote workers.

Extracted from the fork-pool machinery in :mod:`repro.harness.parallel`
so that "where tasks run" is orthogonal to "how a sweep is scheduled":

* :class:`LocalPool` wraps the forked ``_Worker`` processes of
  :mod:`repro.harness.parallel` — kill-for-real semantics, crash
  detection and respawn — behind the protocol;
* :class:`RemotePool` submits the same tasks to one or more
  :class:`~repro.service.server.ReproService` coordinators over HTTP,
  where registered :mod:`repro.service.worker` processes lease and
  execute them.  Fault recovery (lease expiry, requeue, retries,
  poisoning) happens coordinator-side, so ``handles_retries`` is True
  and the caller must not retry failed tasks again.

A task is a plain dict ``{"id", "kind", "payload"}``.  Results come
back from :meth:`Pool.poll` as ``(task_id, ok, result)`` tuples; a
failure result is a tuple whose first two elements are
``(error_type, message)`` (remote failures append the coordinator's
attempt count as a third element).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from multiprocessing.connection import wait as _conn_wait

#: One poll/submit result: (task_id, ok, result-or-error-tuple).
TaskResult = Tuple[str, bool, object]


class Pool:
    """Abstract submit/poll worker pool (see module docstring)."""

    #: True when the pool (or the coordinator behind it) applies the
    #: retry/timeout policy itself; the caller then treats every
    #: failure as final.
    handles_retries = False

    def idle(self) -> int:
        """How many tasks can be submitted right now."""
        raise NotImplementedError

    def busy(self) -> bool:
        """True when at least one submitted task has not come back."""
        raise NotImplementedError

    def submit(self, task: dict) -> None:
        """Hand one ``{"id", "kind", "payload"}`` task to a worker."""
        raise NotImplementedError

    def poll(self, timeout: float) -> List[TaskResult]:
        """Completed tasks, waiting up to *timeout* seconds for one."""
        raise NotImplementedError

    def kill_task(self, task_id: str) -> bool:
        """Best-effort abort of a running task (True when killed)."""
        raise NotImplementedError

    def running(self) -> List[dict]:
        """The task dicts currently owned by workers."""
        raise NotImplementedError

    def stop(self) -> None:
        """Release every worker (running tasks are abandoned)."""
        raise NotImplementedError


class LocalPool(Pool):
    """Forked worker processes behind the :class:`Pool` protocol.

    Wraps :class:`repro.harness.parallel._Worker`: each worker is a
    forked process running the harness task loop (task kinds resolve
    through ``repro.harness.parallel._TASKS``: ``rows_full`` for the
    harness, ``service`` for the job scheduler).  A worker that dies
    mid-task is respawned and its task reported as a ``WorkerCrash``
    failure; :meth:`kill_task` terminates the worker process for real
    (the harness/runner deadline semantics) and respawns it.
    """

    def __init__(self, init: dict, size: int):
        from repro.harness.parallel import _Worker

        if size < 1:
            raise ValueError("pool size must be >= 1")
        self._init = dict(init)
        self._workers = [_Worker(self._init, slot) for slot in range(size)]

    @property
    def size(self) -> int:
        return len(self._workers)

    def idle(self) -> int:
        return sum(1 for w in self._workers if w.current is None)

    def busy(self) -> bool:
        return any(w.current is not None for w in self._workers)

    def submit(self, task: dict) -> None:
        for worker in self._workers:
            if worker.current is None:
                worker.submit(task)
                return
        raise RuntimeError("no idle worker (check idle() first)")

    def _respawn(self, worker) -> None:
        from repro.harness.parallel import _Worker

        idx = self._workers.index(worker)
        worker.kill()
        self._workers[idx] = _Worker(self._init, worker.slot)

    def poll(self, timeout: float) -> List[TaskResult]:
        busy = [w.conn for w in self._workers if w.current is not None]
        if not busy:
            if timeout > 0:
                time.sleep(timeout)
            return []
        out: List[TaskResult] = []
        for conn in _conn_wait(busy, timeout=timeout):
            worker = next(w for w in self._workers if w.conn is conn)
            task = worker.current
            try:
                task_id, ok, result = conn.recv()
            except (EOFError, OSError):
                self._respawn(worker)
                out.append((task["id"], False,
                            ("WorkerCrash", "worker process died")))
                continue
            worker.current = None
            out.append((task_id, ok, result))
        return out

    def kill_task(self, task_id: str) -> bool:
        for worker in self._workers:
            task = worker.current
            if task is not None and task["id"] == task_id:
                self._respawn(worker)
                return True
        return False

    def running(self) -> List[dict]:
        return [w.current for w in self._workers if w.current is not None]

    def stop(self) -> None:
        for worker in self._workers:
            worker.stop()
        self._workers = []


class _RemoteTask:
    """Book-keeping for one task submitted to a coordinator."""

    __slots__ = ("task", "client", "job_id", "next_poll", "misses")

    def __init__(self, task: dict, client, job_id: str):
        self.task = task
        self.client = client
        self.job_id = job_id
        self.next_poll = 0.0
        self.misses = 0  # consecutive unreachable polls


class RemotePool(Pool):
    """HTTP-backed pool: tasks become leased jobs on coordinator(s).

    ``urls`` names one coordinator per shard; tasks are distributed
    round-robin.  Each worker process attached to a coordinator (see
    :mod:`repro.service.worker`) pulls leases and publishes results;
    the coordinator's scheduler owns retries, lease expiry, and
    poisoning, so failures reported here are final.

    Only the ``rows_full`` task kind is supported: it maps to a
    ``kind="rows"`` :class:`~repro.service.jobs.JobSpec`, whose result
    carries the workload's complete row fragments — the same dicts the
    sequential runner computes, so assembled tables are byte-identical.
    """

    handles_retries = True

    #: Seconds between status polls of one outstanding job.
    POLL_INTERVAL = 0.25

    #: Consecutive unreachable polls before a task is failed.
    MAX_MISSES = 8

    def __init__(self, urls: Sequence[str], clients=None,
                 poll_interval: float = POLL_INTERVAL):
        from repro.service.client import ServiceClient

        if not urls and not clients:
            raise ValueError("RemotePool needs at least one coordinator")
        self.clients = (list(clients) if clients is not None
                        else [ServiceClient(url) for url in urls])
        self.poll_interval = poll_interval
        self._tasks: Dict[str, _RemoteTask] = {}
        self._ready: List[TaskResult] = []
        self._round = 0

    def idle(self) -> int:
        return 1_000_000  # the coordinator queues; never block submission

    def busy(self) -> bool:
        return bool(self._tasks) or bool(self._ready)

    @staticmethod
    def _spec(payload: dict) -> dict:
        return {
            "kind": "rows",
            "workload": payload["name"],
            "scale": payload["scale"],
            "verify_ir": payload.get("verify_ir", True),
        }

    def submit(self, task: dict) -> None:
        from repro.service.client import ServiceError

        if task["kind"] != "rows_full":
            raise ValueError(f"RemotePool cannot run {task['kind']!r} tasks")
        client = self.clients[self._round % len(self.clients)]
        self._round += 1
        try:
            snap = client.submit(self._spec(task["payload"]))
        except ServiceError as exc:
            self._ready.append((task["id"], False,
                                ("CoordinatorUnreachable"
                                 if exc.status == 0 else "ServiceError",
                                 str(exc), 0)))
            return
        remote = _RemoteTask(task, client, snap["id"])
        if snap.get("status") in ("done", "error", "timeout"):
            self._ready.append(self._map(remote, snap))
        else:
            self._tasks[task["id"]] = remote

    @staticmethod
    def _map(remote: _RemoteTask, snap: dict) -> TaskResult:
        task_id = remote.task["id"]
        status = snap.get("status")
        attempts = snap.get("attempts", 0)
        if status == "done":
            result = dict(snap.get("result") or {})
            result.setdefault("attempts", attempts)
            result["cached"] = bool(snap.get("cached"))
            return (task_id, True, result)
        error_type = snap.get("error_type") or (
            "Timeout" if status == "timeout" else "JobError"
        )
        return (task_id, False,
                (error_type, snap.get("error", status or ""), attempts))

    def poll(self, timeout: float) -> List[TaskResult]:
        from repro.service.client import ServiceError

        deadline = time.monotonic() + timeout
        while True:
            out, self._ready = self._ready, []
            now = time.monotonic()
            for task_id, remote in list(self._tasks.items()):
                if now < remote.next_poll:
                    continue
                remote.next_poll = now + self.poll_interval
                try:
                    snap = remote.client.job(remote.job_id)
                except ServiceError as exc:
                    if exc.status == 0:
                        remote.misses += 1
                        if remote.misses < self.MAX_MISSES:
                            continue
                        error = ("CoordinatorUnreachable", str(exc), 0)
                    else:
                        error = ("CoordinatorLostJob", str(exc), 0)
                    del self._tasks[task_id]
                    out.append((task_id, False, error))
                    continue
                remote.misses = 0
                if snap.get("status") in ("done", "error", "timeout"):
                    del self._tasks[task_id]
                    out.append(self._map(remote, snap))
            if out or not self._tasks:
                return out
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return out
            time.sleep(min(0.05, remaining))

    def kill_task(self, task_id: str) -> bool:
        # No remote cancel: forget the job; the coordinator finishes or
        # degrades it on its own policy.
        return self._tasks.pop(task_id, None) is not None

    def running(self) -> List[dict]:
        return [remote.task for remote in self._tasks.values()]

    def stop(self) -> None:
        self._tasks.clear()
        self._ready.clear()
