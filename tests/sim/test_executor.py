"""Functional-emulator tests over hand-built programs."""

import pytest

from repro.isa import (
    DataItem,
    Function,
    Imm,
    Instruction,
    Label,
    Opcode,
    Program,
    Reg,
    Sym,
)
from repro.sim.executor import EmulationError, Executor, execute


def build(items, data=()):
    p = Program()
    f = Function("main")
    for item in items:
        f.append(item)
    p.add_function(f)
    for d in data:
        p.add_data(d)
    p.layout()
    return p


def I(op, dest=None, srcs=(), target=None):  # noqa: E743
    return Instruction(op, dest, srcs, target)


def run(items, data=()):
    return execute(build(items, data))


def alu_result(op, a, b):
    res = run(
        [
            I(Opcode.MOV, Reg(1), [Imm(a)]),
            I(op, Reg(2), [Reg(1), Imm(b)]),
            I(Opcode.OUT, None, [Reg(2)]),
            I(Opcode.HALT),
        ]
    )
    return res.output[0]


@pytest.mark.parametrize(
    "op,a,b,expected",
    [
        (Opcode.ADD, 3, 4, 7),
        (Opcode.ADD, 0x7FFFFFFF, 1, -(1 << 31)),  # wraparound
        (Opcode.SUB, 3, 10, -7),
        (Opcode.MUL, 100000, 100000, 1410065408),  # 10^10 mod 2^32
        (Opcode.DIV, 7, 2, 3),
        (Opcode.DIV, -7, 2, -3),  # truncation toward zero
        (Opcode.REM, -7, 2, -1),
        (Opcode.AND, 0b1100, 0b1010, 0b1000),
        (Opcode.OR, 0b1100, 0b1010, 0b1110),
        (Opcode.XOR, 0b1100, 0b1010, 0b0110),
        (Opcode.SLL, 1, 31, -(1 << 31)),
        (Opcode.SRL, -1, 28, 15),
        (Opcode.SRA, -8, 2, -2),
        (Opcode.CMPLT, 1, 2, 1),
        (Opcode.CMPLT, 2, 2, 0),
        (Opcode.CMPLE, 2, 2, 1),
        (Opcode.CMPGT, 3, 2, 1),
        (Opcode.CMPGE, 2, 3, 0),
        (Opcode.CMPEQ, 5, 5, 1),
        (Opcode.CMPNE, 5, 5, 0),
        (Opcode.CMPLTU, -1, 1, 0),  # unsigned: 0xFFFFFFFF > 1
    ],
)
def test_alu_semantics(op, a, b, expected):
    assert alu_result(op, a, b) == expected


def test_division_by_zero_raises():
    with pytest.raises(EmulationError):
        alu_result(Opcode.DIV, 1, 0)
    with pytest.raises(EmulationError):
        alu_result(Opcode.REM, 1, 0)


def test_r0_hardwired_zero():
    res = run(
        [
            I(Opcode.MOV, Reg(0), [Imm(99)]),  # architecturally discarded
            I(Opcode.OUT, None, [Reg(0)]),
            I(Opcode.HALT),
        ]
    )
    assert res.output == [0]


def test_load_store_word():
    res = run(
        [
            I(Opcode.MOV, Reg(1), [Imm(0x2000)]),
            I(Opcode.MOV, Reg(2), [Imm(-42)]),
            I(Opcode.ST, None, [Reg(2), Reg(1), Imm(4)]),
            I(Opcode.LD, Reg(3), [Reg(1), Imm(4)]),
            I(Opcode.OUT, None, [Reg(3)]),
            I(Opcode.HALT),
        ]
    )
    assert res.output == [-42]


def test_load_store_byte_unsigned():
    res = run(
        [
            I(Opcode.MOV, Reg(1), [Imm(0x2000)]),
            I(Opcode.MOV, Reg(2), [Imm(0x1FF)]),
            I(Opcode.STB, None, [Reg(2), Reg(1), Imm(0)]),
            I(Opcode.LDB, Reg(3), [Reg(1), Imm(0)]),
            I(Opcode.OUT, None, [Reg(3)]),
            I(Opcode.HALT),
        ]
    )
    assert res.output == [0xFF]


def test_reg_reg_addressing():
    res = run(
        [
            I(Opcode.MOV, Reg(1), [Imm(0x2000)]),
            I(Opcode.MOV, Reg(2), [Imm(8)]),
            I(Opcode.MOV, Reg(3), [Imm(77)]),
            I(Opcode.ST, None, [Reg(3), Reg(1), Reg(2)]),
            I(Opcode.LD, Reg(4), [Reg(1), Reg(2)]),
            I(Opcode.OUT, None, [Reg(4)]),
            I(Opcode.HALT),
        ]
    )
    assert res.output == [77]


def test_symbolic_absolute_load():
    res = run(
        [
            I(Opcode.LD, Reg(1), [Reg(0), Sym("tbl", 4)]),
            I(Opcode.OUT, None, [Reg(1)]),
            I(Opcode.HALT),
        ],
        data=[DataItem("tbl", 8, init=[10, 20])],
    )
    assert res.output == [20]


def test_lea_materializes_address():
    prog = build(
        [
            I(Opcode.LEA, Reg(1), [Sym("tbl")]),
            I(Opcode.LD, Reg(2), [Reg(1), Imm(0)]),
            I(Opcode.OUT, None, [Reg(2)]),
            I(Opcode.HALT),
        ],
        data=[DataItem("tbl", 4, init=[123])],
    )
    assert Executor(prog).run().output == [123]


def test_out_of_range_load_raises():
    with pytest.raises(EmulationError):
        run(
            [
                I(Opcode.MOV, Reg(1), [Imm(-100)]),
                I(Opcode.LD, Reg(2), [Reg(1), Imm(0)]),
                I(Opcode.HALT),
            ]
        )


def test_branches_and_loop():
    res = run(
        [
            I(Opcode.MOV, Reg(1), [Imm(0)]),
            I(Opcode.MOV, Reg(2), [Imm(0)]),
            Label("loop"),
            I(Opcode.ADD, Reg(2), [Reg(2), Reg(1)]),
            I(Opcode.ADD, Reg(1), [Reg(1), Imm(1)]),
            I(Opcode.BLT, None, [Reg(1), Imm(10)], "loop"),
            I(Opcode.OUT, None, [Reg(2)]),
            I(Opcode.HALT),
        ]
    )
    assert res.output == [45]


def test_call_and_ret():
    p = Program()
    main = Function("main")
    main.append(I(Opcode.MOV, Reg(2), [Imm(20)]))
    main.append(I(Opcode.CALL, target="double_it"))
    main.append(I(Opcode.OUT, None, [Reg(1)]))
    main.append(I(Opcode.HALT))
    p.add_function(main)
    callee = Function("double_it")
    callee.append(I(Opcode.ADD, Reg(1), [Reg(2), Reg(2)]))
    callee.append(I(Opcode.RET))
    p.add_function(callee)
    p.layout()
    assert Executor(p).run().output == [40]


def test_ret_from_main_halts():
    res = run([I(Opcode.MOV, Reg(1), [Imm(7)]), I(Opcode.RET)])
    assert res.steps == 2


def test_fp_arithmetic():
    import struct

    res = run(
        [
            I(Opcode.FLD, Reg(1, "fp"), [Reg(0), Sym("c")]),
            I(Opcode.CVTIF, Reg(2, "fp"), [Imm(3)]),
            I(Opcode.FMUL, Reg(3, "fp"), [Reg(1, "fp"), Reg(2, "fp")]),
            I(Opcode.CVTFI, Reg(1), [Reg(3, "fp")]),
            I(Opcode.OUT, None, [Reg(1)]),
            I(Opcode.HALT),
        ],
        data=[DataItem("c", 8, init=struct.pack("<d", 2.5), align=8)],
    )
    assert res.output == [7]  # int(7.5)


def test_fp_compare_and_store():
    import struct

    res = run(
        [
            I(Opcode.FLD, Reg(1, "fp"), [Reg(0), Sym("c")]),
            I(Opcode.CVTIF, Reg(2, "fp"), [Imm(2)]),
            I(Opcode.FCMPLT, Reg(3), [Reg(2, "fp"), Reg(1, "fp")]),
            I(Opcode.OUT, None, [Reg(3)]),
            I(Opcode.MOV, Reg(4), [Imm(0x3000)]),
            I(Opcode.FST, None, [Reg(1, "fp"), Reg(4), Imm(0)]),
            I(Opcode.FLD, Reg(5, "fp"), [Reg(4), Imm(0)]),
            I(Opcode.FCMPEQ, Reg(6), [Reg(5, "fp"), Reg(1, "fp")]),
            I(Opcode.OUT, None, [Reg(6)]),
            I(Opcode.HALT),
        ],
        data=[DataItem("c", 8, init=struct.pack("<d", 2.5), align=8)],
    )
    assert res.output == [1, 1]


def test_outc_builds_text():
    res = run(
        [
            I(Opcode.MOV, Reg(1), [Imm(72)]),
            I(Opcode.OUTC, None, [Reg(1)]),
            I(Opcode.OUTC, None, [Imm(105)]),
            I(Opcode.HALT),
        ]
    )
    assert res.text == "Hi"


def test_step_limit():
    prog = build(
        [
            Label("forever"),
            I(Opcode.JMP, target="forever"),
        ]
    )
    with pytest.raises(EmulationError):
        Executor(prog, max_steps=100).run()


def test_trace_records_uids_and_eas():
    res = run(
        [
            I(Opcode.MOV, Reg(1), [Imm(0x2000)]),
            I(Opcode.ST, None, [Reg(1), Reg(1), Imm(0)]),
            I(Opcode.LD, Reg(2), [Reg(1), Imm(0)]),
            I(Opcode.HALT),
        ]
    )
    trace = res.trace
    assert trace.uids == [0, 1, 2, 3]
    assert trace.eas == [-1, 0x2000, 0x2000, -1]
    flat = trace.program.flat
    assert [(uid, ea) for uid, ea in zip(trace.uids, trace.eas)
            if ea >= 0 and flat[uid].is_load] == [(2, 0x2000)]


def test_rerun_is_deterministic():
    prog = build(
        [
            I(Opcode.MOV, Reg(1), [Imm(5)]),
            I(Opcode.OUT, None, [Reg(1)]),
            I(Opcode.HALT),
        ]
    )
    ex = Executor(prog)
    assert ex.run().output == ex.run().output
