"""A suite run on N workers must be indistinguishable from one on 1.

``WorkloadRunner.run_suite`` runs each workload as one task on a pool
of ``jobs`` forked workers; these tests hold ``jobs=4`` to ``jobs=1``:
identical row fragments, identical assembled tables, identical
statuses for degraded workloads under injected crash/hang faults, and
identical result-store entries.  A worker process that dies mid-task is
respawned and its workload fails as a ``WorkerCrash``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness import parallel
from repro.harness.experiments import ExperimentContext
from repro.harness.faults import FaultInjector
from repro.harness.runner import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    TABLES,
    WorkloadRunner,
    assemble_table,
)
from repro.harness.store import ResultStore
from repro.workloads import workload_names

#: A small mixed subset (both suites) keeps the test quick while still
#: exercising every table assembler.
NAMES = workload_names("spec")[:3] + workload_names("mediabench")[:2]
SCALE = 0.02


def _run_suite(tmp_path: Path, jobs: int, *, inject=None,
               timeout: float = 0.0, store: bool = False):
    injector = FaultInjector.parse(inject) if inject else None
    ctx = ExperimentContext(scale=SCALE, fault_injector=injector)
    result_store = ResultStore(tmp_path / f"store-jobs{jobs}") if store \
        else None
    runner = WorkloadRunner(
        ctx, timeout, jobs=jobs, result_store=result_store,
    )
    outcomes = runner.run_suite(NAMES)
    entries = {}
    if store:
        for path in result_store.entries():
            entries[path.stem] = result_store.get(path.stem)
    return outcomes, entries


def _comparable(outcomes):
    """Outcome fields that must match across schedulers (not elapsed)."""
    return [
        (o.name, o.suite, o.status, o.rows, o.error, o.error_type)
        for o in outcomes
    ]


def test_rows_and_tables_match_between_1_and_n_jobs(tmp_path):
    one, _ = _run_suite(tmp_path, jobs=1)
    many, _ = _run_suite(tmp_path, jobs=4)
    assert _comparable(many) == _comparable(one)
    assert all(o.status == STATUS_OK for o in many)
    for spec in TABLES:
        assert assemble_table(spec, many) == assemble_table(spec, one)


def test_degraded_rows_and_store_entries_match_between_1_and_n_jobs(
        tmp_path):
    # One deterministic crash (degrades to ERROR) and one hang
    # (degrades to TIMEOUT).
    inject = [f"{NAMES[0]}=crash", f"{NAMES[3]}=hang"]
    one, one_entries = _run_suite(
        tmp_path, jobs=1, inject=inject, timeout=10.0, store=True
    )
    many, many_entries = _run_suite(
        tmp_path, jobs=4, inject=inject, timeout=10.0, store=True
    )

    by_name = {o.name: o for o in many}
    assert by_name[NAMES[0]].status == STATUS_ERROR
    assert by_name[NAMES[3]].status == STATUS_TIMEOUT
    assert all(by_name[name].status == STATUS_OK
               for name in (NAMES[1], NAMES[2], NAMES[4]))

    assert _comparable(many) == _comparable(one)
    # Only the three OK workloads are stored, identically.
    assert len(many_entries) == 3
    assert many_entries == one_entries
    for spec in TABLES:
        assert assemble_table(spec, many) == assemble_table(spec, one)


def test_parallel_resume_skips_stored_workloads(tmp_path):
    inject = [f"{NAMES[0]}=crash"]
    first, _ = _run_suite(
        tmp_path, jobs=4, inject=inject, timeout=20.0, store=True
    )
    assert {o.name for o in first if o.status == STATUS_ERROR} == {NAMES[0]}

    # Re-running against the same store recomputes only the failed
    # workload; completed ones come back cached.
    second, _ = _run_suite(tmp_path, jobs=4, timeout=20.0, store=True)
    by_name = {o.name: o for o in second}
    assert by_name[NAMES[0]].status == STATUS_OK
    assert not by_name[NAMES[0]].cached
    for name in NAMES[1:]:
        assert by_name[name].cached
        assert by_name[name].status == STATUS_OK


def _exit_on(monkeypatch, victim):
    """Make the pooled worker die outright on *victim*'s task.

    Patched before the pool forks, so every worker inherits it; unlike
    the ``crash`` inject mode (an exception the worker reports), this
    takes the dead-pipe path of the pool.
    """
    run_task = parallel._run_task

    def dying_run_task(init, payload):
        if payload["name"] == victim:
            os._exit(1)
        return run_task(init, payload)

    monkeypatch.setattr(parallel, "_run_task", dying_run_task)


def test_worker_crash_without_retries_degrades_only_its_workload(
        tmp_path, monkeypatch):
    clean, _ = _run_suite(tmp_path, jobs=1)
    _exit_on(monkeypatch, NAMES[1])
    # On a one-worker pool the workloads after the crash can only run
    # on the respawned worker.
    outcomes, _ = _run_suite(tmp_path, jobs=1, timeout=60.0)
    by_name = {o.name: o for o in outcomes}
    assert by_name[NAMES[1]].status == STATUS_ERROR
    assert by_name[NAMES[1]].error_type == "WorkerCrash"
    survivors = [i for i, name in enumerate(NAMES) if name != NAMES[1]]
    assert all(outcomes[i].status == STATUS_OK for i in survivors)
    assert ([outcomes[i].rows for i in survivors]
            == [clean[i].rows for i in survivors])
