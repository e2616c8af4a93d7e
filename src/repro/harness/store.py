"""Persistent content-addressed result store.

A store that *survives* runs: identical (workload/source, compile
options, early-gen config, code version) requests hit the cache instead
of a simulator.  It is the harness's only persistence layer: resuming a
partly failed suite is a store hit per completed workload.

Entry format — one file per key, ``<key>.res``::

    MAGIC (4 bytes) | sha256(payload) (32 bytes) | payload (pickle)

Guarantees:

* **Atomic writes** — temp file + ``os.replace``, so concurrent writers
  (forked harness workers, parallel runs sharing a directory) never
  expose a partial entry; last writer wins, and both wrote the same
  content anyway because the key is content-addressed.
* **Corruption detection** — a read verifies the checksum before
  unpickling and guards the unpickle itself; a truncated or corrupted
  entry counts as a miss, is deleted, and never propagates an
  exception.
* **Observability** — hits/misses/corruption are counted on the
  instance and emitted as ``store.*`` events on the ambient
  :mod:`repro.obs` tracer.

Keys come from :meth:`ResultStore.key`, which folds
:func:`code_version` — a digest of the package's own source — into the
existing :func:`~repro.harness.artifacts.artifact_key` canonicalizer,
so any source change invalidates every cached result.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import List

from repro import obs
from repro.harness.artifacts import artifact_key

#: The ``repro`` package directory whose source :func:`code_version`
#: digests.
_PACKAGE_ROOT = Path(__file__).resolve().parents[1]


@functools.lru_cache(maxsize=None)
def code_version() -> str:
    """sha256 over the sorted relative paths and bytes of the ``repro``
    package's ``**/*.py``, computed once per process.

    Every key derived through :meth:`ResultStore.key` includes it, so a
    stored result is never served to different code.
    """
    files = sorted(
        (path.relative_to(_PACKAGE_ROOT).as_posix(), path)
        for path in _PACKAGE_ROOT.rglob("*.py")
    )
    digest = hashlib.sha256()
    for rel, path in files:
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


#: Entry-file magic; a mismatch means the file is not (or no longer) a
#: store entry.
_MAGIC = b"RPR1"

_SUFFIX = ".res"
_DIGEST_LEN = 32  # sha256


class ResultStore:
    """Checksummed pickle entries under one directory.

    All operations are safe against concurrent readers and writers in
    other processes — the worst case is recomputing a value another
    process was about to publish.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    # -- keys --------------------------------------------------------------

    @staticmethod
    def key(*parts) -> str:
        """Content key over *parts* plus the pipeline code version."""
        return artifact_key("repro.harness.result", code_version(), *parts)

    def path(self, key: str) -> Path:
        return self.root / f"{key}{_SUFFIX}"

    # -- read/write --------------------------------------------------------

    def get(self, key: str):
        """The stored value for *key*, or ``None`` on a miss.

        A corrupt entry (bad magic, checksum mismatch, unpicklable
        payload) is deleted and reported as a miss.
        """
        path = self.path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            self._emit("store.miss", key)
            return None
        value, ok = self._decode(blob)
        if not ok:
            self.corrupt += 1
            self.misses += 1
            self._emit("store.corrupt", key)
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        self._emit("store.hit", key)
        return value

    def put(self, key: str, value) -> Path:
        """Atomically and durably persist *value* under *key*.

        The tempfile is fsynced before the rename and the directory
        after it, so a host crash can only leave the old state or the
        complete new entry — never a published-but-truncated one.  (The
        checksum would catch truncation on read anyway; the fsync keeps
        the entry from being *lost* after a successful put.)
        """
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _MAGIC + hashlib.sha256(payload).digest() + payload
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(key)
        fd, tmp = tempfile.mkstemp(dir=str(self.root), prefix=key,
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            self._fsync_dir()
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._emit("store.put", key)
        return path

    def _fsync_dir(self) -> None:
        """Durably record the rename in the directory (best effort)."""
        try:
            dir_fd = os.open(str(self.root), os.O_RDONLY)
        except OSError:
            return  # e.g. platforms that cannot open a directory
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)

    @staticmethod
    def _decode(blob: bytes):
        """``(value, True)`` for a well-formed entry, else ``(None, False)``."""
        header = len(_MAGIC) + _DIGEST_LEN
        if len(blob) < header or not blob.startswith(_MAGIC):
            return None, False
        digest = blob[len(_MAGIC):header]
        payload = blob[header:]
        if hashlib.sha256(payload).digest() != digest:
            return None, False
        try:
            return pickle.loads(payload), True
        except Exception:
            # Checksum matched but the payload does not unpickle here
            # (e.g. written by an incompatible interpreter): miss.
            return None, False

    # -- stats -------------------------------------------------------------

    def entries(self) -> List[Path]:
        """Every entry file, sorted by name."""
        try:
            return sorted(self.root.glob(f"*{_SUFFIX}"))
        except OSError:
            return []

    def stats(self) -> dict:
        """Counter snapshot (per-process; ``entries`` is live)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "entries": len(self.entries()),
        }

    def _emit(self, name: str, key: str) -> None:
        tracer = obs.current()
        if tracer.enabled:
            tracer.event(name, key=key)
