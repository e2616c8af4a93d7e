"""Workload verification: every benchmark compiles, runs, and matches
its pure-Python reference at a reduced scale."""

import pytest

from repro.compiler.driver import compile_source
from repro.sim.executor import execute
from repro.workloads import (
    get_workload,
    mediabench_workloads,
    spec_workloads,
    workload_names,
)

#: Reduced scales keep the whole suite fast while touching every kernel.
_TEST_FRACTION = 0.12


@pytest.mark.parametrize("name", workload_names())
def test_workload_matches_reference(name):
    workload = get_workload(name)
    scale = workload.scaled(_TEST_FRACTION)
    result = compile_source(workload.source(scale))
    out = execute(result.program)
    assert out.output == workload.expected_output(scale)


@pytest.mark.parametrize("name", workload_names())
def test_workload_is_deterministic(name):
    workload = get_workload(name)
    scale = workload.scaled(_TEST_FRACTION)
    program = compile_source(workload.source(scale)).program
    from repro.sim.executor import Executor

    ex = Executor(program)
    assert ex.run().output == ex.run().output


def test_suite_membership():
    assert len(spec_workloads()) == 12
    assert len(mediabench_workloads()) == 13
    # Generated 'gen:' workloads materialize into the registry on
    # demand (test-order dependent), so count only the static suites.
    static = [n for n in workload_names() if not n.startswith("gen:")]
    assert len(static) == 25


def test_unknown_workload_raises():
    with pytest.raises(KeyError):
        get_workload("999.nonesuch")


def test_scale_changes_dynamic_length():
    workload = get_workload("023.eqntott")
    small = execute(compile_source(workload.source(100)).program)
    large = execute(compile_source(workload.source(300)).program)
    assert large.steps > small.steps


@pytest.mark.parametrize("name", workload_names())
def test_every_workload_has_all_three_classes_somewhere(name):
    """Each program must at least produce a classified binary."""
    workload = get_workload(name)
    result = compile_source(workload.source(workload.scaled(_TEST_FRACTION)))
    counts = result.class_counts()
    assert sum(counts.values()) > 0


def test_spec_suite_is_ec_heavier_than_mediabench():
    """Table 2 vs Table 4: MediaBench is more PD-dominated; the SPEC
    suite carries the pointer-heavy interpreters."""
    def static_shares(workloads):
        totals = {"n": 0, "p": 0, "e": 0}
        for w in workloads:
            counts = compile_source(
                w.source(w.scaled(1 / 8))
            ).class_counts()
            for key in totals:
                totals[key] += counts[key]
        total = sum(totals.values())
        return {k: v / total for k, v in totals.items()}

    spec = static_shares(spec_workloads())
    media = static_shares(mediabench_workloads())
    assert media["p"] > spec["p"]
