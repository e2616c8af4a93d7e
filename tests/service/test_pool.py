"""The Pool protocol: LocalPool over forked workers, RemotePool mapping.

LocalPool is exercised against real forked workers running the
``service`` task kind (tiny raw-source jobs, no workload compilation).
RemotePool is exercised against fake clients, so its submit/poll/
failure mapping is tested without sockets; the real HTTP path is
covered by tests/harness/test_distributed.py.
"""

import time

import pytest

from repro.service.client import ServiceError
from repro.service.jobs import JobSpec
from repro.service.pool import LocalPool, RemotePool
from repro.sim.machine import MachineConfig

SRC = """
int main() {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < 40; i = i + 1) {
        acc = acc + i;
    }
    print_int(acc);
    return 0;
}
"""

SRC_SLOW = SRC.replace("< 40", "< 900000")


@pytest.fixture
def pool():
    p = LocalPool({"machine": MachineConfig()}, size=2)
    try:
        yield p
    finally:
        p.stop()


def task(task_id: str, source: str) -> dict:
    return {
        "id": task_id,
        "kind": "service",
        "payload": {"spec": JobSpec(source=source), "name": task_id},
    }


def drain(pool, want: int, timeout: float = 30.0):
    out = []
    deadline = time.monotonic() + timeout
    while len(out) < want and time.monotonic() < deadline:
        out.extend(pool.poll(0.1))
    return out


def test_local_pool_runs_tasks(pool):
    assert pool.idle() == 2 and not pool.busy()
    pool.submit(task("t1", SRC))
    pool.submit(task("t2", SRC + "// variant"))
    assert pool.idle() == 0 and pool.busy()
    assert len(pool.running()) == 2
    results = dict(
        (tid, (ok, res)) for tid, ok, res in drain(pool, 2)
    )
    assert set(results) == {"t1", "t2"}
    for ok, res in results.values():
        assert ok and res["output_preview"] == [780]
    assert pool.idle() == 2 and not pool.busy()


def test_local_pool_reports_task_errors(pool):
    pool.submit(task("bad", "not a program"))
    [(tid, ok, result)] = drain(pool, 1)
    assert tid == "bad" and not ok
    error_type, message = result[0], result[1]
    assert error_type  # the exception class name, e.g. ParseError
    assert isinstance(message, str)
    # The worker survives a failing task.
    pool.submit(task("good", SRC))
    [(_, ok2, res2)] = drain(pool, 1)
    assert ok2 and res2["output_preview"] == [780]


def test_local_pool_kill_task_respawns_worker(pool):
    pool.submit(task("slow", SRC_SLOW))
    assert pool.kill_task("slow") is True
    assert pool.kill_task("slow") is False  # already gone
    assert pool.idle() == 2
    # The respawned worker still serves.
    pool.submit(task("after", SRC))
    [(tid, ok, res)] = drain(pool, 1)
    assert tid == "after" and ok and res["output_preview"] == [780]


class FakeClient:
    """Scripted coordinator: canned submit snapshot + poll sequence."""

    def __init__(self, submit_snap=None, polls=(), submit_exc=None):
        self.submit_snap = submit_snap
        self.polls = list(polls)
        self.submit_exc = submit_exc
        self.submitted = []

    def submit(self, spec, **kwargs):
        if self.submit_exc is not None:
            raise self.submit_exc
        self.submitted.append(spec)
        return dict(self.submit_snap)

    def job(self, job_id):
        step = self.polls.pop(0)
        if isinstance(step, Exception):
            raise step
        return dict(step)


def rows_task(task_id: str, name: str) -> dict:
    return {
        "id": task_id,
        "kind": "rows_full",
        "payload": {"name": name, "scale": 0.02, "verify_ir": True},
    }


DONE_SNAP = {
    "id": "job-000001", "status": "done", "attempts": 1,
    "cached": False,
    "result": {"suite": "mediabench", "rows": {"table3": {"x": 1}}},
}


def test_remote_pool_rejects_other_task_kinds():
    pool = RemotePool([], clients=[FakeClient()])
    with pytest.raises(ValueError):
        pool.submit({"id": "t", "kind": "sim", "payload": {}})


def test_remote_pool_maps_done_and_spec_fields():
    client = FakeClient(
        submit_snap={"id": "job-000001", "status": "queued"},
        polls=[DONE_SNAP],
    )
    pool = RemotePool([], clients=[client], poll_interval=0.0)
    pool.submit(rows_task("t1", "adpcm_decode"))
    assert client.submitted == [{
        "kind": "rows",
        "workload": "adpcm_decode",
        "scale": 0.02,
        "verify_ir": True,
    }]
    [(tid, ok, result)] = pool.poll(1.0)
    assert tid == "t1" and ok
    assert result["rows"] == {"table3": {"x": 1}}
    assert result["attempts"] == 1 and result["cached"] is False
    assert not pool.busy()


def test_remote_pool_maps_failures_with_remote_attempts():
    client = FakeClient(
        submit_snap={"id": "job-000002", "status": "queued"},
        polls=[{"id": "job-000002", "status": "error", "attempts": 3,
                "error": "poisoned", "error_type": "LeaseExpired"}],
    )
    pool = RemotePool([], clients=[client], poll_interval=0.0)
    assert pool.handles_retries  # the caller must not retry these
    pool.submit(rows_task("t1", "adpcm_decode"))
    [(tid, ok, result)] = pool.poll(1.0)
    assert tid == "t1" and not ok
    assert result == ("LeaseExpired", "poisoned", 3)


def test_remote_pool_round_robins_coordinators():
    clients = [
        FakeClient(submit_snap=dict(DONE_SNAP, id=f"job-{i}"))
        for i in range(2)
    ]
    pool = RemotePool([], clients=clients, poll_interval=0.0)
    for i in range(4):
        pool.submit(rows_task(f"t{i}", "adpcm_decode"))
    assert len(clients[0].submitted) == 2
    assert len(clients[1].submitted) == 2
    # Immediate done snapshots surface on the next poll.
    assert len(pool.poll(0.0)) == 4


def test_remote_pool_unreachable_submit_fails_task():
    client = FakeClient(submit_exc=ServiceError(0, "refused"))
    pool = RemotePool([], clients=[client])
    pool.submit(rows_task("t1", "adpcm_decode"))
    [(tid, ok, result)] = pool.poll(0.0)
    assert tid == "t1" and not ok
    assert result[0] == "CoordinatorUnreachable"


def test_remote_pool_tolerates_transient_poll_misses():
    polls = [ServiceError(0, "refused")] * 3 + [DONE_SNAP]
    client = FakeClient(
        submit_snap={"id": "job-000001", "status": "queued"},
        polls=polls,
    )
    pool = RemotePool([], clients=[client], poll_interval=0.0)
    pool.submit(rows_task("t1", "adpcm_decode"))
    [(tid, ok, _)] = drain_remote(pool)
    assert tid == "t1" and ok


def test_remote_pool_gives_up_after_max_misses():
    polls = [ServiceError(0, "refused")] * (RemotePool.MAX_MISSES + 1)
    client = FakeClient(
        submit_snap={"id": "job-000001", "status": "queued"},
        polls=polls,
    )
    pool = RemotePool([], clients=[client], poll_interval=0.0)
    pool.submit(rows_task("t1", "adpcm_decode"))
    [(tid, ok, result)] = drain_remote(pool)
    assert tid == "t1" and not ok
    assert result[0] == "CoordinatorUnreachable"


def drain_remote(pool, timeout=5.0):
    out = []
    deadline = time.monotonic() + timeout
    while not out and time.monotonic() < deadline:
        out = pool.poll(0.05)
    return out
