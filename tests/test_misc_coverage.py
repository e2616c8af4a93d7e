"""Small-surface coverage: trace iterators, reporting options, registry."""

import pytest

from repro.harness.reporting import format_table
from repro.isa import parse_asm
from repro.sim.executor import execute
from repro.workloads import get_workload


class TestTraceIterators:
    @pytest.fixture(scope="class")
    def result(self):
        return execute(
            parse_asm(
                """
                .data arr 16 = 1 2 3 4
                main:
                    lea r4, arr
                    ld_n r5, r4(0)
                    st r5, r4(8)
                    fld_n f1, r4(0)
                    halt
                """
            )
        )

    def test_mem_accesses_cover_loads_and_stores(self, result):
        trace = result.trace
        accesses = [(u, ea) for u, ea in zip(trace.uids, trace.eas)
                    if ea >= 0]
        assert len(accesses) == 3  # ld + st + fld

    def test_load_addresses_exclude_stores(self, result):
        trace = result.trace
        flat = trace.program.flat
        loads = [(u, ea) for u, ea in zip(trace.uids, trace.eas)
                 if ea >= 0 and flat[u].is_load]
        assert len(loads) == 2
        assert [flat[u].opcode.name for u, _ in loads] == ["LD", "FLD"]

    def test_len_matches_steps(self, result):
        assert len(result.trace) == result.steps


class TestReporting:
    ROWS = [
        {"name": "a", "value": 1.23456, "count": 7},
        {"name": "bb", "value": 2.0, "count": 10},
    ]

    def test_precision(self):
        text = format_table(self.ROWS, precision=3)
        assert "1.235" in text
        assert "2.000" in text

    def test_column_selection(self):
        text = format_table(self.ROWS, columns=["name", "count"])
        assert "value" not in text
        assert "1.23" not in text

    def test_header_mapping(self):
        text = format_table(self.ROWS, headers={"name": "Benchmark"})
        assert "Benchmark" in text

    def test_alignment(self):
        lines = format_table(self.ROWS).splitlines()
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows padded to equal width


class TestWorkloadRegistry:
    def test_source_scale_substitution(self):
        workload = get_workload("023.eqntott")
        assert "__SCALE__" in workload.source_template
        assert "__SCALE__" not in workload.source(100)
        assert "100" in workload.source(100)

    def test_default_scale_used_when_none(self):
        workload = get_workload("023.eqntott")
        assert workload.source() == workload.source(workload.default_scale)

    def test_expected_output_respects_scale(self):
        workload = get_workload("134.perl")
        assert workload.expected_output(3) != workload.expected_output(7)

    def test_descriptions_nonempty(self):
        from repro.workloads import workload_names

        for name in workload_names():
            assert get_workload(name).description
