"""Deterministic content keys for per-workload artifacts.

:func:`artifact_key` hashes the facts that determine an artifact —
workload name, scale, machine configuration, injected-fault mode —
into a key that is identical in every process.  The result store
(:class:`~repro.harness.store.ResultStore`) keys its entries with it,
and the run manifest records one per workload.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import List


def _canon(part, out: List[str]) -> None:
    """Append a deterministic token stream for *part* to *out*.

    Every accepted value canonicalizes to the same tokens in every
    process; anything whose repr would embed a memory address (the
    ``object.__repr__`` default) is rejected outright — such a key
    would silently differ between the process that writes an entry
    and the processes that look it up.
    """
    if part is None or isinstance(part, (bool, int, str, bytes)):
        out.append(f"{type(part).__name__}:{part!r}")
    elif isinstance(part, float):
        out.append(f"float:{part.hex()}")
    elif isinstance(part, enum.Enum):
        cls = type(part)
        out.append(f"enum:{cls.__module__}.{cls.__qualname__}.{part.name}")
    elif isinstance(part, (list, tuple)):
        out.append(f"{type(part).__name__}[{len(part)}:")
        for item in part:
            _canon(item, out)
        out.append("]")
    elif isinstance(part, (set, frozenset)):
        tokens = []
        for item in part:
            sub: List[str] = []
            _canon(item, sub)
            tokens.append("\x1f".join(sub))
        out.append(f"{type(part).__name__}[{len(part)}:")
        out.extend(sorted(tokens))
        out.append("]")
    elif isinstance(part, dict):
        items = []
        for key, value in part.items():
            sub: List[str] = []
            _canon(key, sub)
            _canon(value, sub)
            items.append("\x1f".join(sub))
        out.append(f"dict[{len(part)}:")
        out.extend(sorted(items))
        out.append("]")
    elif dataclasses.is_dataclass(part) and not isinstance(part, type):
        cls = type(part)
        out.append(f"dataclass:{cls.__module__}.{cls.__qualname__}[")
        for field in dataclasses.fields(part):
            out.append(field.name)
            _canon(getattr(part, field.name), out)
        out.append("]")
    elif type(part).__repr__ is object.__repr__:
        raise TypeError(
            f"artifact_key part {type(part).__module__}."
            f"{type(part).__qualname__} has no deterministic repr; "
            "its default repr embeds a memory address and would change "
            "the key between processes"
        )
    else:
        out.append(f"repr:{type(part).__qualname__}:{part!r}")


def artifact_key(*parts) -> str:
    """Deterministic key from the facts that determine an artifact.

    Callers pass everything that can change the compiled output —
    workload name, scale, machine configuration and the injected-fault
    mode.  Parts are canonicalized recursively (primitives, enums,
    containers, dataclasses); a part whose repr falls back to
    ``object.__repr__`` raises :class:`TypeError` instead of silently
    keying on a memory address.
    """
    tokens: List[str] = []
    for part in parts:
        _canon(part, tokens)
    digest = hashlib.sha256("\x1e".join(tokens).encode("utf-8")).hexdigest()
    return digest[:32]
