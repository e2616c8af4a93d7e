"""Experiment harness: one entry point per table/figure of the paper.

The fault-isolation layer (:class:`WorkloadRunner`, :class:`FaultInjector`,
resume through the result store) lives here too; see
``repro.harness.runner`` and ``repro.harness.faults``.
"""

from repro.harness.experiments import (
    ExperimentContext,
    fig5a,
    fig5b,
    fig5c,
    table2,
    table3,
    table4,
)
from repro.harness.faults import FaultInjector
from repro.harness.reporting import format_table
from repro.harness.runner import (
    RunnerConfig,
    WorkloadOutcome,
    WorkloadRunner,
    assemble_table,
)

__all__ = [
    "ExperimentContext",
    "FaultInjector",
    "RunnerConfig",
    "WorkloadOutcome",
    "WorkloadRunner",
    "assemble_table",
    "fig5a",
    "fig5b",
    "fig5c",
    "format_table",
    "table2",
    "table3",
    "table4",
]
