"""Parallel suite execution must be indistinguishable from sequential.

``WorkloadRunner.run_suite(jobs=4)`` runs each workload as one task on a
pool of forked workers; these tests hold it to the in-process
contract of ``jobs=1``: identical row fragments,
identical assembled tables, identical statuses/attempt counts for
degraded workloads under injected crash/hang/flaky faults, and identical
checkpoint payloads (modulo wall-clock ``elapsed``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.experiments import ExperimentContext
from repro.harness.faults import FaultInjector
from repro.harness.runner import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    TABLES,
    RunnerConfig,
    WorkloadRunner,
    assemble_table,
)
from repro.workloads import workload_names

#: A small mixed subset (both suites) keeps the test quick while still
#: exercising every table assembler.
NAMES = workload_names("spec")[:3] + workload_names("mediabench")[:2]
SCALE = 0.02


def _run_suite(tmp_path: Path, jobs: int, *, inject=None,
               config: RunnerConfig = None, checkpoint: bool = False):
    injector = FaultInjector.parse(inject) if inject else None
    ckpt_dir = tmp_path / f"ckpt-jobs{jobs}"
    ctx = ExperimentContext(
        scale=SCALE,
        checkpoint_dir=str(ckpt_dir) if checkpoint else None,
        fault_injector=injector,
    )
    runner = WorkloadRunner(
        ctx, config if config is not None else RunnerConfig(), jobs=jobs
    )
    outcomes = runner.run_suite(NAMES)
    checkpoints = {}
    if checkpoint:
        for path in sorted(ckpt_dir.glob("*.json")):
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            payload.pop("elapsed", None)
            checkpoints[path.name] = payload
    return outcomes, checkpoints


def _comparable(outcomes):
    """Outcome fields that must match across schedulers (not elapsed)."""
    return [
        (o.name, o.suite, o.status, o.rows, o.error, o.error_type,
         o.attempts)
        for o in outcomes
    ]


def test_parallel_rows_and_tables_match_sequential(tmp_path):
    seq, _ = _run_suite(tmp_path, jobs=1)
    par, _ = _run_suite(tmp_path, jobs=4)
    assert _comparable(par) == _comparable(seq)
    assert all(o.status == STATUS_OK for o in par)
    for spec in TABLES:
        assert assemble_table(spec, par) == assemble_table(spec, seq)


def test_parallel_degraded_rows_and_checkpoints_match_sequential(tmp_path):
    # One deterministic crash (exhausts the retry budget), one
    # transient failure (succeeds on the second attempt), one hang
    # (degrades to TIMEOUT, never retried).
    inject = [
        f"{NAMES[0]}=crash",
        f"{NAMES[1]}=flaky:1",
        f"{NAMES[3]}=hang",
    ]
    config = RunnerConfig(timeout=10.0, retries=1, backoff=0.0)
    seq, seq_ckpt = _run_suite(
        tmp_path, jobs=1, inject=inject, config=config, checkpoint=True
    )
    par, par_ckpt = _run_suite(
        tmp_path, jobs=4, inject=inject, config=config, checkpoint=True
    )

    by_name = {o.name: o for o in par}
    assert by_name[NAMES[0]].status == STATUS_ERROR
    assert by_name[NAMES[0]].attempts == 2  # retries exhausted
    assert by_name[NAMES[1]].status == STATUS_OK
    assert by_name[NAMES[1]].attempts == 2  # transient, then recovered
    assert by_name[NAMES[3]].status == STATUS_TIMEOUT
    assert by_name[NAMES[3]].attempts == 1  # timeouts are not retried

    assert _comparable(par) == _comparable(seq)
    assert par_ckpt == seq_ckpt
    for spec in TABLES:
        assert assemble_table(spec, par) == assemble_table(spec, seq)


def test_parallel_resume_skips_checkpointed_workloads(tmp_path):
    config = RunnerConfig(timeout=20.0)
    inject = [f"{NAMES[0]}=crash"]
    first, _ = _run_suite(
        tmp_path, jobs=4, inject=inject, config=config, checkpoint=True
    )
    assert {o.name for o in first if o.status == STATUS_ERROR} == {NAMES[0]}

    # Re-running against the same checkpoint directory recomputes only
    # the failed workload; completed ones come back cached.
    ckpt_dir = tmp_path / "ckpt-jobs4"
    ctx = ExperimentContext(scale=SCALE, checkpoint_dir=str(ckpt_dir))
    runner = WorkloadRunner(ctx, config, jobs=4)
    second = runner.run_suite(NAMES)
    by_name = {o.name: o for o in second}
    assert by_name[NAMES[0]].status == STATUS_OK
    assert not by_name[NAMES[0]].cached
    for name in NAMES[1:]:
        assert by_name[name].cached
        assert by_name[name].status == STATUS_OK
