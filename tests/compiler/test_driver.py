"""Compilation-driver interface tests."""

import pytest

from repro.compiler.driver import CompileOptions, compile_source
from tests.compiler.corpus import WORKLOAD_NAMES, corpus_source

SRC = """
int helper(int x) { return x * 2; }
int main() { print_int(helper(21)); return 0; }
"""


def test_options_object_and_kwargs_are_exclusive():
    with pytest.raises(TypeError):
        compile_source(SRC, CompileOptions(), opt_level=1)


def test_default_options():
    opts = CompileOptions()
    assert opts.opt_level == 2
    assert opts.classify
    assert opts.inline


def test_classify_off_leaves_ld_n():
    result = compile_source(SRC, classify=False)
    counts = result.class_counts()
    assert counts["p"] == 0 and counts["e"] == 0


def test_listing_contains_all_functions():
    result = compile_source(SRC, inline=False)
    listing = result.listing()
    assert "main:" in listing
    assert "helper:" in listing


def test_inline_option_controls_call_sites():
    from repro.isa.opcodes import Opcode

    inlined = compile_source(SRC)  # helper is tiny: inlined
    kept = compile_source(SRC, inline=False)

    def calls(result):
        return sum(
            1
            for inst in result.program.functions["main"].instructions()
            if inst.opcode is Opcode.CALL
        )

    assert calls(inlined) == 0
    assert calls(kept) == 1


def test_result_program_is_laid_out():
    result = compile_source(SRC)
    assert result.program.laid_out
    assert result.program.flat


@pytest.mark.parametrize("level", [0, 1, 2])
def test_all_levels_produce_runnable_code(level):
    from repro.sim.executor import execute

    result = compile_source(SRC, opt_level=level)
    assert execute(result.program).output == [42]


def test_opt_level_reduces_code_size():
    naive = compile_source(SRC, opt_level=0)
    optimized = compile_source(SRC, opt_level=2)
    assert len(optimized.program.flat) < len(naive.program.flat)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_ir_verifier_leaves_the_listing_unchanged(name):
    """The verifier only checks the IR between passes: every workload at
    the harness's tables scale compiles to the same listing with it on
    (as the harness runs it) and off (the driver's default)."""
    source = corpus_source(name)
    verified = compile_source(source, CompileOptions(verify=True))
    assert verified.listing() == compile_source(
        source, CompileOptions()
    ).listing()
