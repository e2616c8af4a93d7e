"""The per-function analysis cache and the skipping of no-op passes.

Both are exact transforms of the pass pipeline: the tests here pin the
precondition they rest on (a pass reporting no change left the IR
byte-identical) and their equivalence with the plain pipeline (a hook
disables skipping and must not change a single listing).
"""

import functools
import hashlib
from collections import Counter

import pytest

import repro.compiler.driver as driver
from repro.compiler.driver import CompileOptions, compile_source
from repro.compiler.ir import FuncIR
from repro.isa.instruction import Imm, Instruction, Reg
from repro.isa.opcodes import Opcode
from tests.compiler.corpus import GEN_NAMES, WORKLOAD_NAMES, corpus_source
from tests.compiler.test_listing_pins import GEN_PINS, WORKLOAD_PINS

#: Every per-function pass the driver runs, in pipeline order.
FUNCTION_PASSES = (
    "simplify_control_flow",
    "promote_locals",
    "constant_propagation",
    "copy_propagation",
    "coalesce_moves",
    "redundant_load_elimination",
    "dead_code_elimination",
    "loop_invariant_code_motion",
    "strength_reduction",
)

CORPUS = WORKLOAD_NAMES + GEN_NAMES

LOOP_SRC = """
int a[16];
int main() {
    int i; int s = 0;
    for (i = 0; i < 16; i = i + 1) { a[i] = i * 4; }
    for (i = 0; i < 16; i = i + 1) { s = s + a[i]; }
    print_int(s);
    return 0;
}
"""


def _dump(fir) -> str:
    return "\n".join(map(str, fir.func.body))


def _wrap_passes(monkeypatch, around):
    """Replace every driver pass by ``around(pass_fn, fir)``."""
    for name in FUNCTION_PASSES:
        pass_fn = getattr(driver, name)

        @functools.wraps(pass_fn)
        def wrapper(fir, _pass_fn=pass_fn):
            return around(_pass_fn, fir)

        monkeypatch.setattr(driver, name, wrapper)


def _main_fir(source: str = LOOP_SRC) -> FuncIR:
    """``main`` of *source* straight after IR generation."""
    from repro.compiler.irgen import generate_ir
    from repro.lang.parser import parse
    from repro.lang.sema import analyze

    unit = parse(source)
    return generate_ir(unit, analyze(unit)).funcs["main"]


# -- the skip's precondition and its equivalence ---------------------------

@pytest.mark.parametrize("opt_level", [1, 2])
def test_no_op_pass_leaves_ir_byte_identical(monkeypatch, opt_level):
    violations = []
    no_ops = []

    def around(pass_fn, fir):
        before = _dump(fir)
        changed = pass_fn(fir)
        if not changed:
            no_ops.append(pass_fn.__name__)
            if _dump(fir) != before:
                violations.append((fir.func.name, pass_fn.__name__))
        return changed

    _wrap_passes(monkeypatch, around)
    for name in CORPUS:
        compile_source(corpus_source(name), opt_level=opt_level)
    assert no_ops
    assert violations == []


@pytest.mark.parametrize("opt_level", [1, 2])
def test_hook_disables_skipping_without_changing_listings(opt_level):
    # With a hook every pass runs every time; the listings must still
    # be the pinned ones, which the skipping pipeline also produces.
    pins = {name: WORKLOAD_PINS[name][opt_level] for name in WORKLOAD_PINS}
    if opt_level == 2:
        pins.update(GEN_PINS)
    hook_calls = []
    options = CompileOptions(
        opt_level=opt_level,
        post_pass_hook=lambda name, fir: hook_calls.append(name),
    )
    for name, pin in sorted(pins.items()):
        listing = compile_source(corpus_source(name), options).listing()
        assert hashlib.sha256(listing.encode()).hexdigest() == pin, name
    assert hook_calls


def test_hook_call_sequence_pinned():
    # The hook sees every pass call of the pipeline, none skipped: the
    # counts recorded for adpcm_decode before skipping existed.
    calls = []
    compile_source(
        corpus_source("adpcm_decode"),
        options=CompileOptions(
            post_pass_hook=lambda name, fir: calls.append(name)
        ),
    )
    assert len(calls) == 64
    assert Counter(calls) == {
        "inline_functions": 2,
        "simplify_control_flow": 11,
        "promote_locals": 2,
        "constant_propagation": 9,
        "copy_propagation": 9,
        "coalesce_moves": 9,
        "redundant_load_elimination": 9,
        "dead_code_elimination": 9,
        "loop_invariant_code_motion": 2,
        "strength_reduction": 2,
    }


def test_skipping_runs_fewer_passes(monkeypatch):
    runs = []

    def around(pass_fn, fir):
        runs.append(pass_fn.__name__)
        return pass_fn(fir)

    _wrap_passes(monkeypatch, around)
    source = corpus_source("adpcm_decode")
    compile_source(source)
    skipping = len(runs)
    runs.clear()
    compile_source(
        source, options=CompileOptions(post_pass_hook=lambda n, f: None)
    )
    # 62 per-function calls plus the two inline_functions hook calls.
    assert len(runs) == 62
    assert skipping < len(runs)


def test_pass_is_skipped_until_the_ir_changes():
    fir = _main_fir()
    options = CompileOptions()
    calls = []

    def idle(fir):
        calls.append("idle")
        return False

    def edits(fir):
        calls.append("edits")
        return True

    assert driver._run_pass(idle, fir, options) is False
    assert driver._run_pass(idle, fir, options) is False
    assert calls == ["idle"]
    assert driver._run_pass(edits, fir, options) is True
    assert driver._run_pass(idle, fir, options) is False
    assert calls == ["idle", "edits", "idle"]


def test_compile_leaves_no_cached_analysis():
    result = compile_source(LOOP_SRC)
    for fir in result.module.funcs.values():
        assert fir._analyses == {}
        assert fir.clean_passes == set()


# -- cache invalidation ----------------------------------------------------

def test_cache_holds_until_the_body_list_is_replaced():
    fir = _main_fir()
    cfg = fir.cfg()
    liveness, dom, loops = fir.liveness(), fir.dominators(), fir.loops()
    assert fir.cfg() is cfg
    assert liveness.cfg is cfg
    assert fir.liveness() is liveness
    assert fir.dominators() is dom
    assert fir.loops() is loops
    assert len(loops) == 2

    fir.func.body.append(fir.func.body.pop())  # same list, in place
    assert fir.cfg() is cfg

    fir.func.body = list(fir.func.body)
    fresh = fir.cfg()
    assert fresh is not cfg
    assert fir.liveness() is not liveness
    assert fir.liveness().cfg is fresh
    assert fir.dominators() is not dom
    assert fir.loops() is not loops


def test_cache_dropped_when_a_pass_reports_a_change():
    fir = _main_fir()
    options = CompileOptions()
    cfg = fir.cfg()

    driver._run_pass(lambda fir: False, fir, options)
    assert fir.cfg() is cfg

    def in_place_edit(fir):
        return True

    driver._run_pass(in_place_edit, fir, options)
    assert fir.cfg() is not cfg


def test_hook_edit_in_place_is_seen_by_the_next_pass(monkeypatch):
    inserted = []
    seen = []

    def hook(pass_name, fir):
        if pass_name != "constant_propagation" or inserted:
            return
        fir.cfg()  # make sure a cached CFG exists before the edit
        inst = Instruction(
            Opcode.MOV, Reg(fir.new_vreg_index(), virtual=True), [Imm(0)]
        )
        fir.func.body.insert(len(fir.func.body) - 1, inst)
        inserted.append(inst)

    def around(pass_fn, fir):
        if pass_fn.__name__ == "copy_propagation" and inserted and not seen:
            seen.append(any(
                inst is inserted[0]
                for _, _, inst in fir.cfg().instructions()
            ))
        return pass_fn(fir)

    _wrap_passes(monkeypatch, around)
    result = compile_source(
        LOOP_SRC, options=CompileOptions(verify=True, post_pass_hook=hook)
    )
    assert seen == [True]
    assert result.program.laid_out


def test_find_loops_reuses_given_dominators():
    from repro.compiler.dominators import dominators
    from repro.compiler.loops import find_loops

    fir = _main_fir()
    cfg = fir.cfg()
    fresh = find_loops(cfg)
    cached = find_loops(cfg, dominators(cfg))
    assert [(lp.header, lp.blocks) for lp in fresh] == [
        (lp.header, lp.blocks) for lp in cached
    ]


# -- per-compile label numbering --------------------------------------------

def test_listing_independent_of_process_history():
    source = corpus_source("adpcm_decode")
    first = compile_source(source).listing()
    compile_source(corpus_source("adpcm_encode"))
    compile_source(LOOP_SRC)
    assert compile_source(source).listing() == first
    assert "main__pre1:" in first
    assert "main__sr1:" in first
