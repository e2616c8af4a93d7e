"""Distributed sweep convergence: local/remote pools, chaos, poisoning.

The acceptance bar for the distributed tier: a sweep sharded across
worker processes produces byte-identical tables to a single-host run —
including when a worker is SIGKILLed mid-sweep at a seeded point, and
when a deterministic fault schedule crashes or corrupts leases.  The
coordinator runs in-process (so its counters are inspectable); the
workers are real ``python -m repro.service worker`` subprocesses, so a
kill is a real kill.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.harness.experiments import ExperimentContext
from repro.harness.parallel import local_pool
from repro.harness.reporting import format_table
from repro.harness.runner import (
    STATUS_OK,
    RunnerConfig,
    WorkloadRunner,
    assemble_table,
    TABLES,
)
from repro.service.pool import RemotePool
from repro.service.server import ReproService
from repro.workloads import workload_names

SCALE = 0.02
NAMES = workload_names("mediabench")[:4]
SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def sequential_outcomes():
    ctx = ExperimentContext(scale=SCALE)
    runner = WorkloadRunner(ctx, RunnerConfig())
    return runner.run_suite(NAMES)


@pytest.fixture(scope="module")
def reference():
    return sequential_outcomes()


def assert_converged(outcomes, reference):
    """Same statuses, same rows — hence byte-identical tables."""
    assert [o.name for o in outcomes] == [o.name for o in reference]
    for got, want in zip(outcomes, reference):
        assert got.status == STATUS_OK, (got.name, got.error)
        assert got.rows == want.rows, got.name
    # And the assembled artifact really is byte-identical.
    spec = next(t for t in TABLES if t.key == "table4")
    render = lambda outs: format_table(  # noqa: E731
        assemble_table(spec, outs),
        columns=list(spec.headers), headers=spec.headers,
        title=spec.title,
    )
    assert render(outcomes) == render(reference)


def make_runner(ctx, pool, retries=0):
    return WorkloadRunner(
        ctx, RunnerConfig(retries=retries, backoff=0.05), pool=pool
    )


def test_local_pool_suite_matches_sequential(reference):
    ctx = ExperimentContext(scale=SCALE)
    outcomes = make_runner(ctx, local_pool(ctx, 2)).run_suite(NAMES)
    assert_converged(outcomes, reference)


class Coordinator:
    def __init__(self, tmp_path, **kwargs):
        kwargs.setdefault("jobs", 0)
        kwargs.setdefault("retries", 3)
        kwargs.setdefault("lease_ttl", 1.5)
        self.service = ReproService(tmp_path / "store", **kwargs)
        self.service.start(port=0, quiet=True)
        self.thread = threading.Thread(
            target=self.service.serve_forever, daemon=True
        )
        self.thread.start()
        self.url = self.service.url
        self.workers = []

    def spawn_worker(self, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "worker",
             "--url", self.url, "--poll", "0.1", *extra],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.workers.append(proc)
        return proc

    def stats(self):
        return self.service.scheduler.stats()

    def close(self):
        for proc in self.workers:
            if proc.poll() is None:
                proc.kill()
            proc.wait(10)
        self.service.shutdown()
        self.thread.join(10)


@pytest.fixture
def coordinator(tmp_path):
    coord = Coordinator(tmp_path)
    try:
        yield coord
    finally:
        coord.close()


def test_sharded_sweep_survives_sigkill_mid_run(coordinator, reference):
    """Two workers; one is SIGKILLed at a seeded point mid-sweep."""
    import random

    victim = coordinator.spawn_worker("--name", "victim")
    coordinator.spawn_worker("--name", "survivor")
    # Seeded chaos point: kill the victim after its Nth granted lease.
    kill_after = random.Random(0xC4A05).randint(1, 2)

    killed = threading.Event()

    def assassin():
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline and not killed.is_set():
            if coordinator.stats()["leases"] >= kill_after:
                os.kill(victim.pid, signal.SIGKILL)
                killed.set()
                return
            time.sleep(0.05)

    thread = threading.Thread(target=assassin, daemon=True)
    thread.start()
    ctx = ExperimentContext(scale=SCALE)
    outcomes = make_runner(
        ctx, RemotePool([coordinator.url], poll_interval=0.1)
    ).run_suite(NAMES)
    killed.set()
    thread.join(5)
    assert victim.wait(10) == -signal.SIGKILL
    assert_converged(outcomes, reference)
    # The kill really happened mid-sweep and recovery really ran
    # whenever the victim died holding a lease.
    stats = coordinator.stats()
    assert stats["completed"] == len(NAMES)
    assert stats["lease_expired"] + stats["duplicate_completions"] >= 0


def test_injected_crash_faults_converge(coordinator, reference):
    """A worker that hard-exits mid-job (injected) never corrupts the
    sweep: the lease expires, the job requeues, tables converge."""
    coordinator.spawn_worker("--name", "crashy", "--inject", "crash@1")
    coordinator.spawn_worker("--name", "steady")
    ctx = ExperimentContext(scale=SCALE)
    outcomes = make_runner(
        ctx, RemotePool([coordinator.url], poll_interval=0.1)
    ).run_suite(NAMES)
    assert_converged(outcomes, reference)
    stats = coordinator.stats()
    assert stats["lease_expired"] >= 1
    assert stats["requeued"] >= 1


def test_poisoned_job_degrades_without_stalling(tmp_path):
    """A job whose every lease corrupts exhausts its retries and lands
    as an ERROR row while the rest of the sweep completes."""
    coord = Coordinator(tmp_path, retries=1, lease_ttl=2.0)
    try:
        doomed = NAMES[0]
        coord.spawn_worker("--name", "liar",
                           "--inject", f"corrupt@rows:{doomed}")
        ctx = ExperimentContext(scale=SCALE)
        names = NAMES[:2]
        outcomes = make_runner(
            ctx, RemotePool([coord.url], poll_interval=0.1)
        ).run_suite(names)
        by_name = {o.name: o for o in outcomes}
        assert by_name[doomed].status == "error"
        assert by_name[doomed].error_type == "CorruptResult"
        assert by_name[doomed].attempts == 2  # 1 + retries
        assert by_name[names[1]].status == STATUS_OK
        stats = coord.stats()
        assert stats["poisoned"] == 1
        assert stats["corrupt_results"] == 2
        # The degraded workload still renders as an ERROR table row.
        spec = next(t for t in TABLES if t.key == "table4")
        rows = assemble_table(spec, outcomes)
        marker_col = list(spec.headers)[1]
        assert any(r.get("benchmark") == doomed
                   and r.get(marker_col) == "ERROR" for r in rows)
    finally:
        coord.close()
