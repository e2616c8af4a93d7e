"""Long-lived service layer: result cache, job scheduler, HTTP API.

The harness modules under :mod:`repro.harness` run one experiment suite
and exit; this package turns the same compile→emulate→simulate pipeline
into a long-lived process that serves many requests over shared work:

:mod:`repro.service.store`
    Persistent content-addressed result store (checksummed entries,
    atomic writes, size-bounded LRU eviction).  Also backs the
    experiment harness's ``--result-cache`` flag.
:mod:`repro.service.jobs`
    The unit of served work: a :class:`~repro.service.jobs.JobSpec`
    naming a workload (or raw mini-C source) plus an early-generation
    configuration, and :func:`~repro.service.jobs.execute_job` which
    compiles, emulates, and simulates it.
:mod:`repro.service.scheduler`
    Deduplicating priority queue executing jobs on the
    :mod:`repro.harness.parallel` fork-pool workers with the runner's
    timeout/retry semantics.
:mod:`repro.service.server` / :mod:`repro.service.client`
    Stdlib-only HTTP JSON API (``POST /v1/jobs``, ``GET /v1/jobs/<id>``,
    ``POST /v1/batch``, ``GET /v1/stats``) and its Python client.

``python -m repro.service`` is the CLI (``serve`` / ``submit`` /
``batch`` / ``stats``); see README "Service".
"""

from repro.service.jobs import JobSpec, JobValidationError, execute_job
from repro.service.store import ResultStore, code_version

__all__ = [
    "JobSpec",
    "JobValidationError",
    "ResultStore",
    "code_version",
    "execute_job",
]
