"""Experiment harness: the paper's tables and figures, declared once.

Each artifact is a :class:`TableSpec` in :data:`TABLES`;
:func:`experiment_table` computes one over a suite through an
:class:`ExperimentContext`.  The fault-isolation layer
(:class:`WorkloadRunner`, :class:`FaultInjector`, resume through the
result store) lives here too; see ``repro.harness.runner`` and
``repro.harness.faults``.
"""

from repro.harness.experiments import (
    TABLES,
    ExperimentContext,
    TableSpec,
    experiment_table,
    table_row,
)
from repro.harness.faults import FaultInjector
from repro.harness.reporting import format_table
from repro.harness.runner import (
    WorkloadOutcome,
    WorkloadRunner,
    assemble_table,
)

__all__ = [
    "ExperimentContext",
    "FaultInjector",
    "TABLES",
    "TableSpec",
    "WorkloadOutcome",
    "WorkloadRunner",
    "assemble_table",
    "experiment_table",
    "format_table",
    "table_row",
]
