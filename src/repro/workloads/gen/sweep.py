"""Synthetic-SPEC tier: the Table-2 class-mix simplex as workload names.

The paper's Table 2 samples the (NT, PD, EC) load-mix simplex at the
twelve points SPEC95 happens to occupy.  This tier samples it *on a
grid*: every fingerprint ``n<a>p<b>e<c>`` with the three percentages
stepping by ``step`` and summing to 100 becomes a generated workload.
The grid is only names: ``python -m repro.workloads.gen sweep`` hands
them to :func:`repro.harness.main.main` as ``--workloads``, whose
``gen`` table (achieved mix, dynamic loads and proposed-config speedup
per program, ``average`` last) shows how the win moves across the mix
space (EC-heavy corners pay off, NT-heavy corners pin the ceiling).
"""

from __future__ import annotations

from typing import List

#: Grid pitch (percentage points) of the default simplex sweep.
DEFAULT_STEP = 20


def simplex_tokens(step: int = DEFAULT_STEP) -> List[str]:
    """Fingerprint tokens of the class-mix simplex grid at *step* %.

    Points are ordered NT-major, so the sweep walks from PD/EC-rich
    mixes (every technique applies) toward the NT corner (none does).
    """
    if not 0 < step <= 100 or 100 % step:
        raise ValueError("step must be a divisor of 100 in (0, 100]")
    tokens = []
    for nt in range(0, 101, step):
        for pd in range(0, 101 - nt, step):
            ec = 100 - nt - pd
            tokens.append(f"n{nt}p{pd}e{ec}")
    return tokens


def sweep_names(step: int = DEFAULT_STEP, seeds: int = 1) -> List[str]:
    """The ``gen:`` workload names of one simplex sweep."""
    return [
        f"gen:{token}:{seed}"
        for token in simplex_tokens(step)
        for seed in range(seeds)
    ]
