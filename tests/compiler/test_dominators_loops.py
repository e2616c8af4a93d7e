"""Dominator and natural-loop analysis tests."""

from repro.compiler.cfg import CFG
from repro.compiler.dominators import dominators
from repro.compiler.loops import find_loops
from repro.isa import Function, Imm, Instruction, Label, Opcode, Reg


def I(op, dest=None, srcs=(), target=None):  # noqa: E743
    return Instruction(op, dest, srcs, target)


def make(items):
    f = Function("f")
    for item in items:
        f.append(item)
    return f


def diamond_cfg():
    return CFG(
        make(
            [
                I(Opcode.BEQ, None, [Reg(1), Imm(0)], "t"),
                I(Opcode.MOV, Reg(2), [Imm(1)]),
                I(Opcode.JMP, target="e"),
                Label("t"),
                I(Opcode.MOV, Reg(2), [Imm(2)]),
                Label("e"),
                I(Opcode.HALT),
            ]
        )
    )


def test_entry_dominates_everything():
    cfg = diamond_cfg()
    dom = dominators(cfg)
    for index in cfg.reachable():
        assert 0 in dom[index]


def test_diamond_join_not_dominated_by_arms():
    cfg = diamond_cfg()
    dom = dominators(cfg)
    join = cfg.label_block["e"]
    arm_t = cfg.label_block["t"]
    assert arm_t not in dom[join]
    assert dom[join] == {0, join}


def nested_loop_func():
    return make(
        [
            I(Opcode.MOV, Reg(1), [Imm(0)]),
            Label("outer"),
            I(Opcode.MOV, Reg(2), [Imm(0)]),
            Label("inner"),
            I(Opcode.ADD, Reg(2), [Reg(2), Imm(1)]),
            I(Opcode.BLT, None, [Reg(2), Imm(3)], "inner"),
            I(Opcode.ADD, Reg(1), [Reg(1), Imm(1)]),
            I(Opcode.BLT, None, [Reg(1), Imm(3)], "outer"),
            I(Opcode.HALT),
        ]
    )


def test_nested_loops_found_inner_first():
    cfg = CFG(nested_loop_func())
    loops = find_loops(cfg)
    assert len(loops) == 2
    inner, outer = loops
    assert len(inner.blocks) < len(outer.blocks)
    assert inner.blocks < outer.blocks
    assert inner.parent is outer
    assert inner.depth == 2
    assert outer.depth == 1


def test_loop_headers():
    cfg = CFG(nested_loop_func())
    loops = find_loops(cfg)
    headers = {cfg.blocks[lp.header].labels[0] for lp in loops}
    assert headers == {"inner", "outer"}


def test_no_loops_in_straight_line():
    cfg = diamond_cfg()
    assert find_loops(cfg) == []


def test_self_loop():
    cfg = CFG(
        make(
            [
                Label("spin"),
                I(Opcode.ADD, Reg(1), [Reg(1), Imm(1)]),
                I(Opcode.BLT, None, [Reg(1), Imm(9)], "spin"),
                I(Opcode.HALT),
            ]
        )
    )
    loops = find_loops(cfg)
    assert len(loops) == 1
    assert loops[0].blocks == {loops[0].header}


def test_two_back_edges_same_header_merge():
    cfg = CFG(
        make(
            [
                Label("head"),
                I(Opcode.BEQ, None, [Reg(1), Imm(0)], "alt"),
                I(Opcode.ADD, Reg(1), [Reg(1), Imm(1)]),
                I(Opcode.BLT, None, [Reg(1), Imm(5)], "head"),
                I(Opcode.JMP, target="out"),
                Label("alt"),
                I(Opcode.ADD, Reg(1), [Reg(1), Imm(2)]),
                I(Opcode.BLT, None, [Reg(1), Imm(5)], "head"),
                Label("out"),
                I(Opcode.HALT),
            ]
        )
    )
    loops = find_loops(cfg)
    assert len(loops) == 1  # merged: one loop with two latches
