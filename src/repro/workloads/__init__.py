"""Benchmark programs standing in for SPEC92/95 INT and MediaBench.

Each workload is a deterministic, self-checking mini-C program whose
load mix is engineered to match the character of its namesake (see
Tables 2 and 4 of the paper): pointer-chasing interpreters for ``li``,
hash-table compressors for ``compress``, strided media kernels for GSM,
and so on.  Every workload carries a pure-Python reference
implementation so the emulated output is verified, not just recorded.
"""

from repro.workloads.registry import (
    REGISTRY,
    Workload,
    get_workload,
    mediabench_workloads,
    spec_workloads,
    workload_names,
    workload_suite,
)

__all__ = [
    "REGISTRY",
    "Workload",
    "get_workload",
    "mediabench_workloads",
    "spec_workloads",
    "workload_names",
    "workload_suite",
]
