"""Deduplicating, prioritized job scheduler with local and leased workers.

The scheduler owns four pieces of shared state:

* a **priority queue** of submitted :class:`Job` objects (max-heap on
  priority, FIFO within a priority, bounded by ``max_pending`` —
  submitting beyond the bound raises :class:`QueueFull`, which the HTTP
  layer maps to 429);
* an **in-flight index** keyed by the job's content key: a second
  submission of an identical spec while the first is queued or running
  *attaches* to the existing job instead of queueing new work (its
  ``dedup`` counter records how many submitters piggybacked);
* a **local pool** (:class:`~repro.service.pool.LocalPool`, the same
  forked-worker machinery the parallel harness uses, running the
  ``"service"`` task kind) — sized by ``jobs``; ``jobs=0`` runs no
  local workers at all, making the scheduler a pure *coordinator*;
* a **remote-worker registry**: :mod:`repro.service.worker` processes
  register over HTTP, pull time-bounded **leases** off the same queue,
  heartbeat to keep them alive, and complete with a result that is
  validated and published to the shared content-addressed
  :class:`~repro.service.store.ResultStore`.

Fault recovery is lease-based and reuses the runner's bounded-retry/
backoff semantics (:class:`~repro.harness.runner.RunnerConfig`):

* a **missed heartbeat** (lease expiry — the worker crashed, hung
  wholesale, or vanished) requeues the job with backoff; after the
  retry budget is spent the job is *poisoned* and degrades to an ERROR
  result instead of wedging the queue;
* a worker that **hangs while heartbeating** is caught by the
  per-attempt wall-clock deadline (``config.timeout``): the lease is
  revoked — the worker learns via its next heartbeat — and the job
  degrades to ``timeout``, never retried (local semantics);
* **duplicate completions** of a requeued job (a stale worker waking
  up after its lease expired) are resolved idempotently: the first
  valid completion publishes to the store and finishes the job — the
  key is content-addressed, so a late identical publish is harmless —
  and later completions are acknowledged and counted, never re-applied;
* a **corrupt result** (payload fails
  :func:`~repro.service.jobs.validate_result`) counts as a lease
  failure and feeds the same requeue/poison path.

Results are published to the store before the job completes, so the
*next* identical submission — even from another process, even days
later — is a cache hit that touches no simulator.  Submission itself
consults the store first.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Dict, List, Optional

from repro import obs
from repro.harness.runner import RunnerConfig
from repro.service.jobs import JobSpec, validate_result
from repro.service.pool import LocalPool
from repro.service.store import ResultStore
from repro.sim.machine import MachineConfig

#: Scheduler tick when nothing nearer is scheduled (seconds).
_POLL = 0.05

STATUS_QUEUED = "queued"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"

#: Statuses from which a job can no longer change.
FINAL_STATUSES = (STATUS_DONE, STATUS_ERROR, STATUS_TIMEOUT)

#: Default seconds a lease stays valid without a heartbeat.
DEFAULT_LEASE_TTL = 15.0


class QueueFull(RuntimeError):
    """Backpressure: the pending-job bound was reached (HTTP 429)."""


class UnknownWorker(KeyError):
    """A lease/heartbeat/completion named an unregistered worker (404)."""


class Job:
    """One scheduled (or cached) request and its lifecycle."""

    def __init__(self, job_id: str, spec: JobSpec, key: str,
                 priority: int = 0):
        self.id = job_id
        self.spec = spec
        self.key = key
        self.priority = priority
        self.status = STATUS_QUEUED
        self.result: Optional[dict] = None
        self.error = ""
        self.error_type = ""
        self.attempts = 0
        #: True when the result came from the store, not a worker.
        self.cached = False
        #: How many identical submissions attached to this job.
        self.dedup = 0
        self.created = time.time()
        self.elapsed = 0.0
        self._started = time.monotonic()
        self.deadline: Optional[float] = None
        self.not_before = 0.0
        #: The live lease when a remote worker holds this job.
        self.lease: Optional["Lease"] = None
        self._done = threading.Event()

    @property
    def finished(self) -> bool:
        return self.status in FINAL_STATUSES

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; False on wait-timeout."""
        return self._done.wait(timeout)

    def snapshot(self) -> dict:
        """JSON-safe view served by ``GET /v1/jobs/<id>``."""
        out = {
            "id": self.id,
            "job": self.spec.label(),
            "key": self.key,
            "status": self.status,
            "priority": self.priority,
            "cached": self.cached,
            "dedup": self.dedup,
            "attempts": self.attempts,
            "elapsed_s": round(self.elapsed, 3),
        }
        lease = self.lease
        if lease is not None:
            out["worker"] = lease.worker_id
            if lease.progress is not None:
                out["progress"] = lease.progress
        if self.result is not None:
            out["result"] = self.result
        if self.error:
            out["error"] = self.error
            out["error_type"] = self.error_type
        return out


class Lease:
    """One remote worker's time-bounded hold on one job."""

    __slots__ = ("id", "worker_id", "job", "expires", "granted", "progress")

    def __init__(self, lease_id: str, worker_id: str, job: Job,
                 expires: float):
        self.id = lease_id
        self.worker_id = worker_id
        self.job = job
        self.expires = expires
        self.granted = time.monotonic()
        self.progress = None


class RemoteWorker:
    """Registry entry for one :mod:`repro.service.worker` process."""

    __slots__ = ("id", "name", "registered", "last_seen", "lease",
                 "completed", "failed")

    def __init__(self, worker_id: str, name: str, now: float):
        self.id = worker_id
        self.name = name
        self.registered = now
        self.last_seen = now
        self.lease: Optional[Lease] = None
        self.completed = 0
        self.failed = 0

    def snapshot(self, now: float) -> dict:
        out = {
            "id": self.id,
            "name": self.name,
            "last_seen_s": round(now - self.last_seen, 3),
            "completed": self.completed,
            "failed": self.failed,
        }
        lease = self.lease
        if lease is not None:
            out["lease"] = {
                "job": lease.job.spec.label(),
                "job_id": lease.job.id,
                "age_s": round(now - lease.granted, 3),
                "progress": lease.progress,
            }
        return out


class JobScheduler:
    """Executes :class:`JobSpec` jobs on local and/or leased workers."""

    def __init__(
        self,
        store: ResultStore,
        jobs: int = 2,
        config: Optional[RunnerConfig] = None,
        machine: Optional[MachineConfig] = None,
        max_pending: int = 256,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ):
        if jobs < 0:
            raise ValueError("jobs must be >= 0")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be > 0")
        self.store = store
        self.jobs = jobs
        self.config = config if config is not None else RunnerConfig()
        self.machine = machine if machine is not None else MachineConfig()
        self.max_pending = max_pending
        self.lease_ttl = lease_ttl
        #: Workers silent this long with no lease are pruned.
        self.worker_ttl = lease_ttl * 10
        self._lock = threading.Lock()
        self._heap: List[tuple] = []  # (-priority, seq, job)
        self._pending = 0  # queued + running (not cached/finished)
        self._inflight: Dict[str, Job] = {}  # key -> unfinished job
        self._by_id: Dict[str, Job] = {}
        self._seq = 0
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._deduped = 0
        # Lease-tier counters.
        self._worker_seq = 0
        self._remote: Dict[str, RemoteWorker] = {}
        self._leases = 0
        self._lease_expired = 0
        self._requeued = 0
        self._poisoned = 0
        self._duplicates = 0
        self._corrupt_results = 0
        self._heartbeats = 0
        #: Manifest entries of every job this scheduler finished.
        self.served: List[dict] = []
        self._pool: Optional[LocalPool] = None
        #: task id -> Job for tasks running on the local pool.
        self._running: Dict[str, Job] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._wake = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "JobScheduler":
        if self._thread is not None:
            return self
        if self.jobs > 0:
            self._pool = LocalPool({"machine": self.machine}, self.jobs)
        self._thread = threading.Thread(
            target=self._loop, name="repro-service-scheduler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._wake.set()
        self._thread.join()
        self._thread = None
        stranded = list(self._running.values())
        self._running.clear()
        if self._pool is not None:
            self._pool.stop()
            self._pool = None
        # Fail anything still queued, running, or leased so waiters
        # unblock.
        with self._lock:
            stranded.extend(job for _, _, job in self._heap)
            self._heap.clear()
            for worker in self._remote.values():
                if worker.lease is not None:
                    stranded.append(worker.lease.job)
                    worker.lease = None
        for job in stranded:
            self._finish(job, STATUS_ERROR, error="scheduler stopped",
                         error_type="SchedulerStopped")

    # -- submission --------------------------------------------------------

    def submit(self, spec: JobSpec, priority: int = 0) -> Job:
        """Queue *spec* (or attach to an identical in-flight job).

        Consults the result store first: a warm key completes the job
        immediately with ``cached=True`` and no queueing at all.
        Raises :class:`QueueFull` when ``max_pending`` unfinished jobs
        already exist.
        """
        if self._thread is None:
            raise RuntimeError("scheduler is not started")
        spec.validate()
        key = self.store.key("job", spec)
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                existing.dedup += 1
                self._deduped += 1
                return existing
        cached = self.store.get(key)  # store I/O outside the lock
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:  # raced with another submitter
                existing.dedup += 1
                self._deduped += 1
                return existing
            self._submitted += 1
            job = Job(self._new_id(), spec, key, priority)
            self._by_id[job.id] = job
            if cached is not None:
                job.status = STATUS_DONE
                job.result = cached
                job.cached = True
                job._done.set()
                self._completed += 1
                self._record(job)
                return job
            if self._pending >= self.max_pending:
                del self._by_id[job.id]
                raise QueueFull(
                    f"{self._pending} jobs pending (bound "
                    f"{self.max_pending}); retry later"
                )
            self._pending += 1
            self._inflight[key] = job
            self._seq += 1
            heapq.heappush(self._heap, (-priority, self._seq, job))
        self._wake.set()
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._by_id.get(job_id)

    def _new_id(self) -> str:
        return f"job-{len(self._by_id) + 1:06d}"

    # -- remote workers: register / lease / heartbeat / complete -----------

    def register_worker(self, name: str = "") -> dict:
        """Admit one remote worker; returns its id and lease timing."""
        now = time.monotonic()
        with self._lock:
            self._worker_seq += 1
            worker_id = f"w-{self._worker_seq:04d}"
            self._remote[worker_id] = RemoteWorker(worker_id, name, now)
        tracer = obs.current()
        if tracer.enabled:
            tracer.event("service.worker.registered",
                         worker_id=worker_id, name=name)
        return {
            "worker_id": worker_id,
            "lease_ttl": self.lease_ttl,
            "heartbeat_interval": round(self.lease_ttl / 3.0, 3),
        }

    def lease_job(self, worker_id: str) -> Optional[dict]:
        """Grant *worker_id* a lease on the best ready job, or None.

        A worker re-leasing while it still holds a lease implicitly
        abandons the old one (it lost the response, or restarted under
        the same id): the abandoned job is requeued through the normal
        lease-failure path.
        """
        if self._thread is None:
            raise RuntimeError("scheduler is not started")
        now = time.monotonic()
        abandoned: Optional[Job] = None
        with self._lock:
            worker = self._remote.get(worker_id)
            if worker is None:
                raise UnknownWorker(worker_id)
            worker.last_seen = now
            if worker.lease is not None:
                old = worker.lease
                worker.lease = None
                if old.job.lease is old:
                    old.job.lease = None
                    if not old.job.finished:
                        abandoned = old.job
            job = None
            deferred = []
            while self._heap:
                entry = heapq.heappop(self._heap)
                candidate = entry[2]
                if candidate.finished:
                    continue
                if candidate.not_before > now:
                    deferred.append(entry)
                    continue
                job = candidate
                break
            for entry in deferred:
                heapq.heappush(self._heap, entry)
            if job is not None:
                job.status = STATUS_RUNNING
                job.attempts += 1
                if self.config.timeout:
                    job.deadline = now + self.config.timeout
                lease = Lease(
                    f"{job.id}#L{job.attempts}", worker_id, job,
                    now + self.lease_ttl,
                )
                job.lease = lease
                worker.lease = lease
                self._leases += 1
        if abandoned is not None:
            self._retry_or_fail(
                abandoned, "LeaseAbandoned",
                f"worker {worker_id} dropped its lease", leased=True,
            )
        if job is None:
            return None
        tracer = obs.current()
        if tracer.enabled:
            tracer.event(
                "service.lease",
                counters={"attempt": job.attempts},
                job=job.spec.label(), worker_id=worker_id,
            )
        return {
            "job_id": job.id,
            "lease_id": job.lease.id,
            "attempt": job.attempts,
            "lease_ttl": self.lease_ttl,
            "key": job.key,
            "spec": job.spec.to_dict(),
        }

    def heartbeat(self, worker_id: str, job_id: Optional[str] = None,
                  lease_id: Optional[str] = None, progress=None) -> dict:
        """Renew a lease (or just prove liveness when idle).

        Returns ``{"abandon": True}`` when the named lease is no longer
        current — the job finished, timed out, or was requeued to
        another worker — so the holder stops wasting effort.

        A heartbeat that arrives *after* the lease's expiry instant but
        before the reaper has swept it is a revocation, not a renewal:
        the lease is torn down here, the job requeued, and the worker
        told to abandon (``"revoked": True``).  Re-arming ``expires``
        in that window would resurrect a lease the rest of the system
        is entitled to treat as dead, and the job could then run twice.
        """
        now = time.monotonic()
        revoked = None
        with self._lock:
            worker = self._remote.get(worker_id)
            if worker is None:
                raise UnknownWorker(worker_id)
            worker.last_seen = now
            self._heartbeats += 1
            if job_id is None:
                return {"ok": True}
            job = self._by_id.get(job_id)
            lease = job.lease if job is not None else None
            if (job is None or job.finished or lease is None
                    or lease.id != lease_id
                    or lease.worker_id != worker_id):
                return {"ok": True, "abandon": True}
            if now >= lease.expires:
                if worker.lease is lease:
                    worker.lease = None
                job.lease = None
                self._lease_expired += 1
                revoked = (job, lease)
            else:
                lease.expires = now + self.lease_ttl
                if progress is not None:
                    lease.progress = progress
        if revoked is not None:
            job, lease = revoked
            tracer = obs.current()
            if tracer.enabled:
                tracer.event("service.lease.expired",
                             job=job.spec.label(),
                             worker_id=worker_id, late_heartbeat=True)
            self._retry_or_fail(
                job, "LeaseExpired",
                f"worker {worker_id} heartbeat after lease {lease.id} "
                "expired",
                leased=True,
            )
            return {"ok": True, "abandon": True, "revoked": True}
        return {"ok": True, "abandon": False}

    def complete(self, worker_id: str, job_id: str, lease_id: str,
                 ok: bool, result=None, error: str = "",
                 error_type: str = "") -> dict:
        """Accept one completion report, idempotently.

        The first structurally valid success finishes the job — even
        from a lease that already expired (the result is as good as any
        retry would produce, and the store key is content-addressed so
        publishing is idempotent).  Completions for already-finished
        jobs are counted as duplicates and otherwise ignored.  Invalid
        payloads and reported failures from the *current* lease consume
        an attempt via the shared retry/poison path.
        """
        now = time.monotonic()
        with self._lock:
            worker = self._remote.get(worker_id)
            if worker is None:
                raise UnknownWorker(worker_id)
            worker.last_seen = now
            job = self._by_id.get(job_id)
            if job is None:
                raise UnknownWorker(f"unknown job {job_id!r}")
            if worker.lease is not None and worker.lease.job is job:
                worker.lease = None
            if job.finished:
                self._duplicates += 1
                duplicate = True
            else:
                duplicate = False
                current = (job.lease is not None
                           and job.lease.id == lease_id)
        tracer = obs.current()
        if duplicate:
            if tracer.enabled:
                tracer.event("service.complete.duplicate",
                             job=job.spec.label(), worker_id=worker_id)
            return {"accepted": False, "duplicate": True}
        if ok:
            if not validate_result(job.spec, result):
                with self._lock:
                    self._corrupt_results += 1
                    worker_rec = self._remote.get(worker_id)
                    if worker_rec is not None:
                        worker_rec.failed += 1
                if tracer.enabled:
                    tracer.event("service.result.corrupt",
                                 job=job.spec.label(), worker_id=worker_id)
                if current:
                    job.lease = None
                    self._retry_or_fail(
                        job, "CorruptResult",
                        f"worker {worker_id} returned a malformed result",
                        leased=True,
                    )
                return {"accepted": False, "corrupt": True}
            # First valid completion wins, current lease or not.
            self.store.put(job.key, result)
            job.result = result
            job.lease = None
            with self._lock:
                worker_rec = self._remote.get(worker_id)
                if worker_rec is not None:
                    worker_rec.completed += 1
            self._finish(job, STATUS_DONE)
            return {"accepted": True, "duplicate": False}
        with self._lock:
            worker_rec = self._remote.get(worker_id)
            if worker_rec is not None:
                worker_rec.failed += 1
        if current:
            job.lease = None
            self._retry_or_fail(job, error_type or "WorkerError",
                                error or "worker reported failure",
                                leased=True)
            return {"accepted": True, "duplicate": False}
        return {"accepted": False, "stale": True}

    def workers_snapshot(self) -> List[dict]:
        now = time.monotonic()
        with self._lock:
            return [w.snapshot(now) for w in self._remote.values()]

    # -- stats -------------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": self.jobs,
                "remote_workers": len(self._remote),
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "deduped": self._deduped,
                "queued": len(self._heap),
                "running": len(self._running) + sum(
                    1 for w in self._remote.values() if w.lease is not None
                ),
                "pending": self._pending,
                "max_pending": self.max_pending,
                "leases": self._leases,
                "lease_expired": self._lease_expired,
                "requeued": self._requeued,
                "poisoned": self._poisoned,
                "duplicate_completions": self._duplicates,
                "corrupt_results": self._corrupt_results,
                "heartbeats": self._heartbeats,
            }

    # -- scheduler loop ----------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            now = time.monotonic()
            self._enforce_deadlines(now)
            self._expire_leases(now)
            self._dispatch(now)
            timeout = _POLL
            if self.config.timeout:
                deadlines = [
                    job.deadline for job in self._running.values()
                    if job.deadline is not None
                ]
                with self._lock:
                    deadlines.extend(
                        w.lease.job.deadline for w in self._remote.values()
                        if w.lease is not None
                        and w.lease.job.deadline is not None
                    )
                if deadlines:
                    timeout = min(timeout, max(0.0, min(deadlines) - now))
            if self._pool is not None and self._pool.busy():
                for task_id, ok, result in self._pool.poll(timeout):
                    self._handle_local(task_id, ok, result)
            else:
                self._wake.wait(timeout)
                self._wake.clear()

    def _dispatch(self, now: float) -> None:
        if self._pool is None:
            return
        with self._lock:
            idle = self._pool.idle()
            if not idle or not self._heap:
                return
            deferred = []
            while idle and self._heap:
                entry = heapq.heappop(self._heap)
                job = entry[2]
                if job.finished:
                    continue  # timed out while queued for a retry
                if job.not_before > now:
                    deferred.append(entry)
                    continue
                job.status = STATUS_RUNNING
                job.attempts += 1
                if self.config.timeout and job.deadline is None:
                    job.deadline = now + self.config.timeout
                task_id = f"{job.id}#{job.attempts}"
                self._running[task_id] = job
                self._pool.submit({
                    "id": task_id,
                    "kind": "service",
                    "payload": {"spec": job.spec,
                                "name": job.spec.label()},
                })
                idle -= 1
            for entry in deferred:
                heapq.heappush(self._heap, entry)

    def _enforce_deadlines(self, now: float) -> None:
        """Per-attempt wall-clock deadlines, local and leased alike."""
        if not self.config.timeout:
            return
        for task_id, job in list(self._running.items()):
            if job.deadline is None or now < job.deadline:
                continue
            self._pool.kill_task(task_id)  # a real kill, like the runner
            self._running.pop(task_id, None)
            self._finish(
                job, STATUS_TIMEOUT,
                error=f"no result within {self.config.timeout:g}s",
                error_type="Timeout",
            )
        expired: List[Job] = []
        with self._lock:
            for worker in self._remote.values():
                lease = worker.lease
                if lease is None:
                    continue
                job = lease.job
                if (job.finished or job.deadline is None
                        or now < job.deadline):
                    continue
                worker.lease = None
                job.lease = None
                expired.append(job)
        for job in expired:
            self._finish(
                job, STATUS_TIMEOUT,
                error=f"no result within {self.config.timeout:g}s",
                error_type="Timeout",
            )

    def _expire_leases(self, now: float) -> None:
        """Requeue jobs whose lease ran out of heartbeats; prune dead
        workers from the registry."""
        expired: List[tuple] = []
        with self._lock:
            for worker in list(self._remote.values()):
                lease = worker.lease
                if lease is not None and now >= lease.expires:
                    worker.lease = None
                    if lease.job.lease is lease:
                        lease.job.lease = None
                    self._lease_expired += 1
                    if not lease.job.finished:
                        expired.append((worker.id, lease))
                if (worker.lease is None
                        and now - worker.last_seen > self.worker_ttl):
                    del self._remote[worker.id]
        tracer = obs.current()
        for worker_id, lease in expired:
            if tracer.enabled:
                tracer.event("service.lease.expired",
                             job=lease.job.spec.label(),
                             worker_id=worker_id)
            self._retry_or_fail(
                lease.job, "LeaseExpired",
                f"worker {worker_id} missed heartbeats "
                f"(lease {lease.id})",
                leased=True,
            )

    def _handle_local(self, task_id: str, ok: bool, result) -> None:
        job = self._running.pop(task_id, None)
        if job is None or job.finished:
            return  # deadline fired while the result was in the pipe
        if not ok:
            error_type, message = result[0], result[1]
            self._retry_or_fail(job, error_type, message)
            return
        self.store.put(job.key, result)
        job.result = result
        self._finish(job, STATUS_DONE)

    def _retry_or_fail(self, job: Job, error_type: str, message: str,
                       leased: bool = False) -> None:
        if job.attempts <= self.config.retries:
            delay = self.config.backoff * (2 ** (max(job.attempts, 1) - 1))
            job.not_before = time.monotonic() + delay
            job.deadline = None
            with self._lock:
                # A corrupt completion can race the same lease's expiry;
                # whoever requeues first wins, the other is a no-op.
                if job.finished or job.status == STATUS_QUEUED:
                    return
                job.status = STATUS_QUEUED
                self._requeued += 1
                self._seq += 1
                heapq.heappush(
                    self._heap, (-job.priority, self._seq, job)
                )
            tracer = obs.current()
            if tracer.enabled:
                tracer.event(
                    "service.job.requeued",
                    counters={"attempt": job.attempts},
                    job=job.spec.label(), cause=error_type,
                )
            self._wake.set()
            return
        if leased:
            with self._lock:
                self._poisoned += 1
            tracer = obs.current()
            if tracer.enabled:
                tracer.event(
                    "service.job.poisoned",
                    counters={"attempts": job.attempts},
                    job=job.spec.label(), cause=error_type,
                )
        self._finish(job, STATUS_ERROR, error=message,
                     error_type=error_type)

    def _finish(self, job: Job, status: str, error: str = "",
                error_type: str = "") -> None:
        with self._lock:
            if job.finished:
                return
            job.status = status
            job.error = error
            job.error_type = error_type
            job.lease = None
            job.elapsed = time.monotonic() - job._started
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]
            self._pending -= 1
            if status == STATUS_DONE:
                self._completed += 1
            else:
                self._failed += 1
            self._record(job)
        job._done.set()
        tracer = obs.current()
        if tracer.enabled:
            tracer.event(
                "service.job.finished",
                counters={"dedup": job.dedup, "attempts": job.attempts},
                job=job.spec.label(), status=status,
                cached=str(job.cached).lower(),
            )

    def _record(self, job: Job) -> None:
        """Manifest entry for one finished job (lock held)."""
        self.served.append({
            "name": job.spec.label(),
            "status": "ok" if job.status == STATUS_DONE else job.status,
            "cached": job.cached,
            "dedup": job.dedup,
            "attempts": job.attempts,
            "elapsed_s": round(job.elapsed, 3),
            "error_type": job.error_type,
            "artifact_key": job.key,
        })
