"""The compile corpus shared by the listing pins and the pass-skip tests.

Every registered workload at scale 0.05 (the CI tables run) and the 20
programs of ``python -m repro.workloads.gen diff --seeds 5 --scale 0.02``.
"""

from functools import lru_cache
from typing import List

from repro.workloads.gen.differential import batch_names
from repro.workloads.registry import get_workload, workload_names

WORKLOAD_SCALE = 0.05
GEN_SCALE = 0.02

WORKLOAD_NAMES: List[str] = sorted(
    workload_names("spec") + workload_names("mediabench")
)
GEN_NAMES: List[str] = batch_names(seeds=5)


@lru_cache(maxsize=None)
def corpus_source(name: str) -> str:
    """Mini-C source of corpus program *name* at its corpus scale."""
    workload = get_workload(name)
    scale = GEN_SCALE if name.startswith("gen:") else WORKLOAD_SCALE
    return workload.source(workload.scaled(scale))
