"""ResultStore: atomicity, corruption, key stability."""

import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.store import ResultStore, code_version

_FORK = multiprocessing.get_context("fork")

_SRC = Path(__file__).resolve().parents[2] / "src"


def _key_in_subprocess(src: Path) -> str:
    """``code_version()`` and ``ResultStore.key("a")`` under *src*."""
    script = (
        "from repro.harness.store import ResultStore, code_version\n"
        "print(code_version(), ResultStore.key('a'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return out.stdout.strip()


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def test_round_trip(store):
    key = store.key("alpha", 1.5, {"a": [1, 2]})
    assert store.get(key) is None
    store.put(key, {"rows": [1.0, 2.0], "tag": "x"})
    assert store.get(key) == {"rows": [1.0, 2.0], "tag": "x"}
    assert store.hits == 1 and store.misses == 1


def test_key_includes_code_version(store):
    assert len(code_version()) == 64  # a sha256 over the source
    key = store.key("a")
    assert key != store.key("a", 2)
    assert key != store.key("b")
    assert key == store.key("a")


def test_edited_source_tree_changes_keys(tmp_path):
    """Another process over a copy of the tree keys like this one until
    one file changes."""
    copy = tmp_path / "src"
    shutil.copytree(_SRC / "repro", copy / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    original = _key_in_subprocess(copy)
    assert original == f"{code_version()} {ResultStore.key('a')}"
    edited = copy / "repro" / "sim" / "pipeline.py"
    edited.write_text(edited.read_text() + "\n# edited\n")
    version, key = _key_in_subprocess(copy).split()
    assert version != code_version()
    assert key != ResultStore.key("a")


def test_truncated_entry_is_a_miss_and_deleted(store):
    key = store.key("trunc")
    path = store.put(key, {"value": list(range(100))})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    assert store.get(key) is None
    assert store.corrupt == 1
    assert not path.exists()  # poisoned entry removed
    # The slot is usable again.
    store.put(key, {"value": 1})
    assert store.get(key) == {"value": 1}


def test_flipped_byte_is_a_miss(store):
    key = store.key("flip")
    path = store.put(key, b"payload-bytes" * 10)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    assert store.get(key) is None
    assert store.corrupt == 1


def test_garbage_file_is_a_miss(store):
    key = store.key("garbage")
    store.root.mkdir(parents=True, exist_ok=True)
    store.path(key).write_bytes(b"not a store entry")
    assert store.get(key) is None
    assert store.corrupt == 1


def test_stats_shape(store):
    store.put(store.key("s"), 1)
    assert store.stats() == {
        "hits": 0, "misses": 0, "corrupt": 0, "entries": 1,
    }


def _fork_writer(root, worker, key_common):
    store = ResultStore(root)
    for round_ in range(5):
        store.put(key_common, {"worker": worker, "round": round_})
        store.put(store.key("own", worker), {"worker": worker})
    read = store.get(key_common)
    os._exit(0 if isinstance(read, dict) and "worker" in read else 1)


def test_concurrent_forked_writers(tmp_path):
    """Racing writers never corrupt an entry or crash a reader."""
    root = tmp_path / "store"
    store = ResultStore(root)
    key_common = store.key("shared")
    procs = [
        _FORK.Process(target=_fork_writer, args=(root, w, key_common))
        for w in range(4)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(30)
        assert proc.exitcode == 0
    # Whatever writer won, the shared entry decodes cleanly...
    final = store.get(key_common)
    assert isinstance(final, dict) and final["round"] == 4
    # ...and every per-worker entry landed.
    for worker in range(4):
        assert store.get(store.key("own", worker)) == {"worker": worker}
    assert store.corrupt == 0


def test_key_stable_across_processes(tmp_path):
    """The same logical parts key identically under another hash seed."""
    parts = (
        "job", 1.25, {"nested": [1, 2, {"deep": "x"}]},
        frozenset({"p", "q"}), ("tuple", 3),
    )
    local = ResultStore.key(*parts)
    env = dict(os.environ, PYTHONPATH=str(_SRC), PYTHONHASHSEED="12345")
    script = (
        "from repro.harness.store import ResultStore\n"
        "parts = ('job', 1.25, {'nested': [1, 2, {'deep': 'x'}]}, "
        "frozenset({'p', 'q'}), ('tuple', 3))\n"
        "print(ResultStore.key(*parts))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == local


def test_put_fsyncs_file_and_directory(store, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(os.fstat(fd).st_mode)
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    key = store.key("durable")
    store.put(key, {"value": 42})
    import stat
    kinds = [stat.S_ISDIR(mode) for mode in synced]
    assert kinds.count(False) == 1  # the tempfile, before the rename
    assert kinds.count(True) == 1   # the directory, after the rename
    assert store.get(key) == {"value": 42}


def test_put_survives_unfsyncable_directory(store, monkeypatch):
    # Platforms where directories cannot be opened/fsynced must still
    # publish the entry (durability degrades, atomicity does not).
    real_open = os.open

    def failing_open(path, flags, *args, **kwargs):
        if Path(path) == store.root and flags == os.O_RDONLY:
            raise OSError("directories not openable here")
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", failing_open)
    key = store.key("no-dirsync")
    store.put(key, "still published")
    assert store.get(key) == "still published"
