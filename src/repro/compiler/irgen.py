"""AST → virtual-register IR.

The generator is deliberately naive about memory: every local variable —
including scalars — lives in a stack slot, and every access is a load or
store.  The paper's prerequisite "virtual register allocation"
(:mod:`repro.compiler.opt.mem2reg`) then promotes unaddressed scalars to
registers; compiling with optimization off shows the paper's observation
that *"without these optimizations, almost all loads will be termed as
load-dependent loads thus the resultant classification will be useless"*.

Calling convention:

* integer/pointer arguments in ``r2..r7``, doubles in ``f1..f7``;
* integer/pointer results in ``r1``, double results in ``f0``;
* the callee copies incoming argument registers into stack slots at
  entry (promoted to registers by mem2reg like any other local);
* ``sp`` is adjusted by the register allocator's prologue; the body
  addresses locals as ``sp + offset`` relative to the adjusted ``sp``.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple, Union

from repro.compiler.opt.fold import fold, wrap
from repro.isa.instruction import Imm, Instruction, Reg, Sym
from repro.isa.opcodes import Opcode
from repro.isa.program import DataItem, Function, Label, Program
from repro.isa.registers import RV, SP, ZERO
from repro.lang import ast
from repro.lang.sema import SemanticAnalyzer, SymKind, Symbol
from repro.lang.types import (
    ArrayType,
    CharType,
    DoubleType,
    PtrType,
    StructType,
    Type,
    decay,
)
from repro.compiler.ir import FrameSlot, FuncIR, ModuleIR
from repro.sim.memory import HEAP_BASE

#: Integer argument registers (r2..r7) and double argument registers.
INT_ARG_REGS = (2, 3, 4, 5, 6, 7)
FP_ARG_REGS = (1, 2, 3, 4, 5, 6, 7)

_CMP_OPS = {
    "==": Opcode.CMPEQ,
    "!=": Opcode.CMPNE,
    "<": Opcode.CMPLT,
    "<=": Opcode.CMPLE,
    ">": Opcode.CMPGT,
    ">=": Opcode.CMPGE,
}
_BRANCH_OPS = {
    "==": Opcode.BEQ,
    "!=": Opcode.BNE,
    "<": Opcode.BLT,
    "<=": Opcode.BLE,
    ">": Opcode.BGT,
    ">=": Opcode.BGE,
}
_INT_ARITH = {
    "+": Opcode.ADD,
    "-": Opcode.SUB,
    "*": Opcode.MUL,
    "/": Opcode.DIV,
    "%": Opcode.REM,
    "&": Opcode.AND,
    "|": Opcode.OR,
    "^": Opcode.XOR,
    "<<": Opcode.SLL,
    ">>": Opcode.SRA,
}
_FP_ARITH = {
    "+": Opcode.FADD,
    "-": Opcode.FSUB,
    "*": Opcode.FMUL,
    "/": Opcode.FDIV,
}


class IRGenError(Exception):
    """Raised for constructs the generator cannot lower."""


class Addr:
    """A memory operand: ``base + disp`` where disp is Imm, Sym, or Reg."""

    __slots__ = ("base", "disp")

    def __init__(self, base: Reg, disp: Union[Imm, Sym, Reg]):
        self.base = base
        self.disp = disp


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class IRGenerator:
    """Lowers a checked translation unit into a :class:`ModuleIR`."""

    def __init__(self, unit: ast.TranslationUnit, analyzer: SemanticAnalyzer):
        self.unit = unit
        self.analyzer = analyzer
        self.module = ModuleIR(Program())
        self._strings: Dict[str, str] = {}
        self._floats: Dict[float, str] = {}
        self._data_counter = 0

    # -- data segment -----------------------------------------------------

    def _global_item(self, decl: ast.GlobalVar) -> DataItem:
        t, init = decl.var_type, decl.init
        if init is None:
            return DataItem(decl.name, max(t.size, 1), None, t.align)
        if isinstance(t, ArrayType):
            if isinstance(init, str):
                raw = init.encode("latin-1") + b"\x00"
                return DataItem(decl.name, t.size, raw, t.align)
            if isinstance(t.elem, DoubleType):
                raw = b"".join(struct.pack("<d", float(v)) for v in init)
                return DataItem(decl.name, t.size, raw, t.align)
            if isinstance(t.elem, CharType):
                raw = bytes(int(v) & 0xFF for v in init)
                return DataItem(decl.name, t.size, raw, t.align)
            return DataItem(
                decl.name, t.size, [int(v) for v in init], t.align
            )
        if isinstance(t, DoubleType):
            return DataItem(decl.name, 8, struct.pack("<d", float(init)), 8)
        if isinstance(t, CharType):
            return DataItem(decl.name, 1, bytes([int(init) & 0xFF]), 1)
        return DataItem(decl.name, 4, [int(init)], 4)

    def string_item(self, value: str) -> str:
        """Intern a string literal; returns its data-item name."""
        name = self._strings.get(value)
        if name is None:
            name = f"__str{self._data_counter}"
            self._data_counter += 1
            self._strings[value] = name
            raw = value.encode("latin-1") + b"\x00"
            self.module.program.add_data(DataItem(name, len(raw), raw, 1))
        return name

    def float_item(self, value: float) -> str:
        """Intern a double constant; returns its data-item name."""
        name = self._floats.get(value)
        if name is None:
            name = f"__fc{self._data_counter}"
            self._data_counter += 1
            self._floats[value] = name
            self.module.program.add_data(
                DataItem(name, 8, struct.pack("<d", value), 8)
            )
        return name

    # -- entry point -----------------------------------------------------

    def generate(self) -> ModuleIR:
        program = self.module.program
        program.add_data(DataItem("__heap_ptr", 4, [HEAP_BASE], 4))
        for decl in self.unit.decls:
            if isinstance(decl, ast.GlobalVar):
                program.add_data(self._global_item(decl))
        for decl in self.unit.decls:
            if isinstance(decl, ast.FuncDef):
                self.module.add(_FuncGen(self, decl).generate())
        return self.module


class _FuncGen:
    """Per-function lowering state."""

    def __init__(self, gen: IRGenerator, funcdef: ast.FuncDef):
        self.gen = gen
        self.funcdef = funcdef
        self.fir = FuncIR(Function(funcdef.name))
        self._label_counter = 0
        self._slot_of: Dict[int, FrameSlot] = {}  # id(symbol) -> slot
        self._break_labels: List[str] = []
        self._continue_labels: List[str] = []
        self.exit_label = f"{funcdef.name}__exit"

    # -- low-level emit helpers ------------------------------------------

    def emit(self, opcode: Opcode, dest: Optional[Reg] = None,
             srcs=(), target: Optional[str] = None) -> Instruction:
        inst = Instruction(opcode, dest, srcs, target)
        self.fir.func.append(inst)
        return inst

    def label(self, name: str) -> None:
        self.fir.func.append(Label(name))

    def new_label(self, hint: str = "L") -> str:
        self._label_counter += 1
        return f"{self.funcdef.name}__{hint}{self._label_counter}"

    def vreg(self, bank: str = "int") -> Reg:
        return Reg(self.fir.new_vreg_index(), bank, virtual=True)

    def as_reg(self, operand, bank: str = "int") -> Reg:
        """Materialize an operand into a register if it is not one."""
        if isinstance(operand, Reg):
            return operand
        dest = self.vreg(bank)
        if bank == "fp":
            raise IRGenError("fp immediates must come from the constant pool")
        if isinstance(operand, Sym):
            self.emit(Opcode.LEA, dest, [operand])
        else:
            self.emit(Opcode.MOV, dest, [operand])
        return dest

    # -- frame -------------------------------------------------------------

    def _alloc_slot(self, symbol: Symbol) -> FrameSlot:
        t = symbol.type
        size = max(t.size, 1)
        align = max(t.align, 1)
        offset = (self.fir.local_size + align - 1) // align * align
        slot = FrameSlot(
            symbol.unique_name,
            offset,
            size,
            promotable=t.is_scalar and not symbol.addr_taken,
            is_double=isinstance(t, DoubleType),
        )
        self.fir.local_size = offset + size
        self.fir.slots.append(slot)
        self._slot_of[id(symbol)] = slot
        return slot

    def _slot(self, symbol: Symbol) -> FrameSlot:
        slot = self._slot_of.get(id(symbol))
        if slot is None:
            slot = self._alloc_slot(symbol)
        return slot

    # -- memory access -----------------------------------------------------

    def load(self, addr: Addr, t: Type) -> Reg:
        t = decay(t)
        if isinstance(t, DoubleType):
            dest = self.vreg("fp")
            self.emit(Opcode.FLD, dest, [addr.base, addr.disp])
            return dest
        dest = self.vreg()
        opcode = Opcode.LDB if isinstance(t, CharType) else Opcode.LD
        self.emit(opcode, dest, [addr.base, addr.disp])
        return dest

    def store(self, value, addr: Addr, t: Type) -> None:
        t = decay(t)
        if isinstance(t, DoubleType):
            self.emit(Opcode.FST, None, [value, addr.base, addr.disp])
            return
        value = self.as_reg(value)
        opcode = Opcode.STB if isinstance(t, CharType) else Opcode.ST
        self.emit(opcode, None, [value, addr.base, addr.disp])

    def addr_plus(self, addr: Addr, offset: int) -> Addr:
        """``addr + constant`` without materializing when possible."""
        if offset == 0:
            return addr
        if isinstance(addr.disp, Imm):
            return Addr(addr.base, Imm(addr.disp.value + offset))
        if isinstance(addr.disp, Sym):
            return Addr(
                addr.base, Sym(addr.disp.name, addr.disp.offset + offset)
            )
        base = self.vreg()
        self.emit(Opcode.ADD, base, [addr.base, addr.disp])
        return Addr(base, Imm(offset))

    def addr_value(self, addr: Addr) -> Reg:
        """Materialize the address itself into a register."""
        if isinstance(addr.disp, Imm) and addr.disp.value == 0:
            return addr.base
        dest = self.vreg()
        if isinstance(addr.disp, Sym):
            if addr.base.index == ZERO and not addr.base.virtual:
                self.emit(Opcode.LEA, dest, [addr.disp])
            else:
                tmp = self.vreg()
                self.emit(Opcode.LEA, tmp, [addr.disp])
                self.emit(Opcode.ADD, dest, [addr.base, tmp])
        else:
            self.emit(Opcode.ADD, dest, [addr.base, addr.disp])
        return dest

    # -- lvalues ------------------------------------------------------------

    def gen_addr(self, expr: ast.Expr) -> Addr:
        """Address of an lvalue expression."""
        if isinstance(expr, ast.Ident):
            symbol = expr.symbol
            if symbol.kind is SymKind.GLOBAL:
                return Addr(Reg(ZERO), Sym(symbol.name))
            slot = self._slot(symbol)
            return Addr(Reg(SP), Imm(slot.offset))
        if isinstance(expr, ast.Unary) and expr.op == "*":
            pointer = self.as_reg(self.rvalue(expr.operand))
            return Addr(pointer, Imm(0))
        if isinstance(expr, ast.Index):
            return self._index_addr(expr)
        if isinstance(expr, ast.Member):
            struct, offset = self._member_info(expr)
            if expr.arrow:
                pointer = self.as_reg(self.rvalue(expr.base))
                return Addr(pointer, Imm(offset))
            base_addr = self.gen_addr(expr.base)
            return self.addr_plus(base_addr, offset)
        raise IRGenError(f"not an lvalue: {type(expr).__name__}")

    def _member_info(self, expr: ast.Member) -> Tuple[StructType, int]:
        base_t = decay(expr.base.type)
        struct = base_t.target if isinstance(base_t, PtrType) else base_t
        assert isinstance(struct, StructType)
        field = struct.field(expr.field)
        assert field is not None
        return struct, field[1]

    def _index_addr(self, expr: ast.Index) -> Addr:
        elem_t = decay(expr.base.type).target
        size = elem_t.size
        base = self.as_reg(self.rvalue(expr.base))
        index = self.rvalue(expr.index)
        if isinstance(index, Imm):
            return Addr(base, Imm(index.value * size))
        if size == 1:
            return Addr(base, index)
        scaled = self.vreg()
        if _is_pow2(size):
            self.emit(
                Opcode.SLL, scaled, [index, Imm(size.bit_length() - 1)]
            )
        else:
            self.emit(Opcode.MUL, scaled, [index, Imm(size)])
        return Addr(base, scaled)

    # -- rvalues --------------------------------------------------------------

    def rvalue(self, expr: ast.Expr):
        """Lower *expr* in value context; returns a Reg or Imm."""
        if isinstance(expr, ast.IntLit):
            # An int is 32 bits at every opt level, in a register or in
            # memory: a literal past 2**31 - 1 wraps here.
            return Imm(wrap(expr.value))
        if isinstance(expr, ast.SizeOf):
            return Imm(expr.target_type.size)
        if isinstance(expr, ast.FloatLit):
            name = self.gen.float_item(expr.value)
            dest = self.vreg("fp")
            self.emit(Opcode.FLD, dest, [Reg(ZERO), Sym(name)])
            return dest
        if isinstance(expr, ast.StrLit):
            name = self.gen.string_item(expr.value)
            dest = self.vreg()
            self.emit(Opcode.LEA, dest, [Sym(name)])
            return dest
        if isinstance(expr, ast.Ident):
            symbol = expr.symbol
            if isinstance(symbol.type, ArrayType):
                return self.addr_value(self.gen_addr(expr))
            return self.load(self.gen_addr(expr), symbol.type)
        if isinstance(expr, ast.Unary):
            return self._gen_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._gen_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._gen_assign(expr)
        if isinstance(expr, ast.Cond):
            return self._gen_ternary(expr)
        if isinstance(expr, ast.Call):
            value = self._gen_call(expr)
            if value is None:
                raise IRGenError(f"void call {expr.name} used as a value")
            return value
        if isinstance(expr, ast.Index):
            if isinstance(expr.type, ArrayType):
                return self.addr_value(self._index_addr(expr))
            return self.load(self._index_addr(expr), expr.type)
        if isinstance(expr, ast.Member):
            if isinstance(expr.type, ArrayType):
                return self.addr_value(self.gen_addr(expr))
            return self.load(self.gen_addr(expr), expr.type)
        if isinstance(expr, ast.Cast):
            return self._gen_cast(expr)
        raise IRGenError(f"cannot lower {type(expr).__name__}")

    def _gen_cast(self, expr: ast.Cast):
        source_t = decay(expr.operand.type)
        target_t = expr.target_type
        value = self.rvalue(expr.operand)
        if isinstance(target_t, DoubleType) and not isinstance(
            source_t, DoubleType
        ):
            dest = self.vreg("fp")
            self.emit(Opcode.CVTIF, dest, [value])
            return dest
        if isinstance(source_t, DoubleType) and not isinstance(
            target_t, DoubleType
        ):
            dest = self.vreg()
            self.emit(Opcode.CVTFI, dest, [value])
            return dest
        if isinstance(target_t, CharType) and not isinstance(
            source_t, CharType
        ):
            if isinstance(value, Imm):
                return Imm(value.value & 0xFF)
            dest = self.vreg()
            self.emit(Opcode.AND, dest, [value, Imm(0xFF)])
            return dest
        return value

    def _fp_const(self, value: float) -> Reg:
        name = self.gen.float_item(value)
        dest = self.vreg("fp")
        self.emit(Opcode.FLD, dest, [Reg(ZERO), Sym(name)])
        return dest

    def _gen_unary(self, expr: ast.Unary):
        op = expr.op
        if op == "&":
            return self.addr_value(self.gen_addr(expr.operand))
        if op == "*":
            if isinstance(expr.type, ArrayType):
                return self.as_reg(self.rvalue(expr.operand))
            return self.load(self.gen_addr(expr), expr.type)
        if op in ("++", "--"):
            return self._gen_incdec(expr)
        operand_t = decay(expr.operand.type)
        if op == "-":
            if isinstance(operand_t, DoubleType):
                value = self.rvalue(expr.operand)
                dest = self.vreg("fp")
                self.emit(Opcode.FSUB, dest, [self._fp_const(0.0), value])
                return dest
            value = self.rvalue(expr.operand)
            if isinstance(value, Imm):
                return Imm(fold(Opcode.SUB, 0, value.value))
            dest = self.vreg()
            self.emit(Opcode.SUB, dest, [Reg(ZERO), value])
            return dest
        if op == "~":
            value = self.as_reg(self.rvalue(expr.operand))
            dest = self.vreg()
            self.emit(Opcode.XOR, dest, [value, Imm(-1)])
            return dest
        if op == "!":
            if isinstance(operand_t, DoubleType):
                value = self.rvalue(expr.operand)
                dest = self.vreg()
                self.emit(Opcode.FCMPEQ, dest, [value, self._fp_const(0.0)])
                return dest
            value = self.as_reg(self.rvalue(expr.operand))
            dest = self.vreg()
            self.emit(Opcode.CMPEQ, dest, [value, Imm(0)])
            return dest
        raise IRGenError(f"unknown unary {op!r}")

    def _gen_incdec(self, expr: ast.Unary):
        t = decay(expr.operand.type)
        addr = self.gen_addr(expr.operand)
        old = self.load(addr, t)
        if isinstance(t, DoubleType):
            new = self.vreg("fp")
            opcode = Opcode.FADD if expr.op == "++" else Opcode.FSUB
            self.emit(opcode, new, [old, self._fp_const(1.0)])
        else:
            delta = t.target.size if isinstance(t, PtrType) else 1
            new = self.vreg()
            opcode = Opcode.ADD if expr.op == "++" else Opcode.SUB
            self.emit(opcode, new, [old, Imm(delta)])
        self.store(new, addr, t)
        return old if expr.postfix else new

    def _scale_index(self, index, size: int):
        """``index * size`` for pointer arithmetic."""
        if size == 1:
            return index
        if isinstance(index, Imm):
            return Imm(index.value * size)
        scaled = self.vreg()
        if _is_pow2(size):
            self.emit(Opcode.SLL, scaled, [index, Imm(size.bit_length() - 1)])
        else:
            self.emit(Opcode.MUL, scaled, [index, Imm(size)])
        return scaled

    def _gen_binary(self, expr: ast.Binary):
        op = expr.op
        if op in ("&&", "||"):
            return self._cond_value(expr)
        left_t = decay(expr.left.type)
        right_t = decay(expr.right.type)

        if op in _CMP_OPS:
            if isinstance(left_t, DoubleType) or isinstance(right_t, DoubleType):
                return self._gen_fp_compare(expr)
            left = self.as_reg(self.rvalue(expr.left))
            right = self.rvalue(expr.right)
            dest = self.vreg()
            self.emit(_CMP_OPS[op], dest, [left, right])
            return dest

        # Pointer arithmetic.
        if op in ("+", "-") and isinstance(left_t, PtrType):
            if isinstance(right_t, PtrType):  # ptr - ptr
                left = self.as_reg(self.rvalue(expr.left))
                right = self.as_reg(self.rvalue(expr.right))
                diff = self.vreg()
                self.emit(Opcode.SUB, diff, [left, right])
                size = left_t.target.size
                if size == 1:
                    return diff
                dest = self.vreg()
                if _is_pow2(size):
                    self.emit(
                        Opcode.SRA, dest, [diff, Imm(size.bit_length() - 1)]
                    )
                else:
                    self.emit(Opcode.DIV, dest, [diff, Imm(size)])
                return dest
            left = self.as_reg(self.rvalue(expr.left))
            offset = self._scale_index(
                self.rvalue(expr.right), left_t.target.size
            )
            dest = self.vreg()
            self.emit(
                Opcode.ADD if op == "+" else Opcode.SUB, dest, [left, offset]
            )
            return dest
        if op == "+" and isinstance(right_t, PtrType):
            right = self.as_reg(self.rvalue(expr.right))
            offset = self._scale_index(
                self.rvalue(expr.left), right_t.target.size
            )
            dest = self.vreg()
            self.emit(Opcode.ADD, dest, [right, offset])
            return dest

        if isinstance(left_t, DoubleType):
            left = self.rvalue(expr.left)
            right = self.rvalue(expr.right)
            dest = self.vreg("fp")
            self.emit(_FP_ARITH[op], dest, [left, right])
            return dest

        left = self.rvalue(expr.left)
        right = self.rvalue(expr.right)
        if isinstance(left, Imm) and isinstance(right, Imm):
            folded = fold(_INT_ARITH[op], left.value, right.value)
            if folded is not None:
                return Imm(folded)
        left = self.as_reg(left)
        dest = self.vreg()
        self.emit(_INT_ARITH[op], dest, [left, right])
        return dest

    def _gen_fp_compare(self, expr: ast.Binary) -> Reg:
        left = self.rvalue(expr.left)
        right = self.rvalue(expr.right)
        dest = self.vreg()
        op = expr.op
        if op == "==":
            self.emit(Opcode.FCMPEQ, dest, [left, right])
        elif op == "!=":
            tmp = self.vreg()
            self.emit(Opcode.FCMPEQ, tmp, [left, right])
            self.emit(Opcode.XOR, dest, [tmp, Imm(1)])
        elif op == "<":
            self.emit(Opcode.FCMPLT, dest, [left, right])
        elif op == "<=":
            self.emit(Opcode.FCMPLE, dest, [left, right])
        elif op == ">":
            self.emit(Opcode.FCMPLT, dest, [right, left])
        else:  # >=
            self.emit(Opcode.FCMPLE, dest, [right, left])
        return dest

    def _cond_value(self, expr: ast.Expr) -> Reg:
        """Materialize a boolean expression as 0/1 via branches."""
        l_true = self.new_label("bt")
        l_false = self.new_label("bf")
        l_end = self.new_label("be")
        dest = self.vreg()
        self.gen_cond(expr, l_true, l_false)
        self.label(l_true)
        self.emit(Opcode.MOV, dest, [Imm(1)])
        self.emit(Opcode.JMP, target=l_end)
        self.label(l_false)
        self.emit(Opcode.MOV, dest, [Imm(0)])
        self.label(l_end)
        return dest

    def _gen_ternary(self, expr: ast.Cond):
        bank = "fp" if isinstance(decay(expr.type), DoubleType) else "int"
        l_then = self.new_label("ct")
        l_other = self.new_label("cf")
        l_end = self.new_label("ce")
        dest = self.vreg(bank)
        self.gen_cond(expr.cond, l_then, l_other)
        self.label(l_then)
        then_val = self.rvalue(expr.then)
        if bank == "fp":
            self.emit(Opcode.FMOV, dest, [then_val])
        else:
            self.emit(Opcode.MOV, dest, [then_val])
        self.emit(Opcode.JMP, target=l_end)
        self.label(l_other)
        other_val = self.rvalue(expr.other)
        if bank == "fp":
            self.emit(Opcode.FMOV, dest, [other_val])
        else:
            self.emit(Opcode.MOV, dest, [other_val])
        self.label(l_end)
        return dest

    def _gen_assign(self, expr: ast.Assign):
        t = decay(expr.lhs.type)
        if expr.op == "=":
            value = self.rvalue(expr.rhs)
            if not isinstance(t, DoubleType):
                value = self.as_reg(value)
            addr = self.gen_addr(expr.lhs)
            self.store(value, addr, t)
            return value
        base_op = expr.op[:-1]
        addr = self.gen_addr(expr.lhs)
        old = self.load(addr, t)
        if isinstance(t, DoubleType):
            rhs = self.rvalue(expr.rhs)
            new = self.vreg("fp")
            self.emit(_FP_ARITH[base_op], new, [old, rhs])
        elif isinstance(t, PtrType):
            offset = self._scale_index(self.rvalue(expr.rhs), t.target.size)
            new = self.vreg()
            self.emit(
                Opcode.ADD if base_op == "+" else Opcode.SUB,
                new,
                [old, offset],
            )
        else:
            rhs = self.rvalue(expr.rhs)
            new = self.vreg()
            self.emit(_INT_ARITH[base_op], new, [old, rhs])
        self.store(new, addr, t)
        return new

    # -- calls -----------------------------------------------------------

    def _gen_malloc(self, expr: ast.Call) -> Reg:
        """Inline bump allocation from the ``__heap_ptr`` global."""
        size = self.rvalue(expr.args[0])
        heap = Addr(Reg(ZERO), Sym("__heap_ptr"))
        old = self.load(heap, PtrType(decay(expr.type)))
        if isinstance(size, Imm):
            aligned = Imm((size.value + 7) & ~7)
        else:
            bumped = self.vreg()
            self.emit(Opcode.ADD, bumped, [size, Imm(7)])
            aligned = self.vreg()
            self.emit(Opcode.AND, aligned, [bumped, Imm(~7)])
        new = self.vreg()
        self.emit(Opcode.ADD, new, [old, aligned])
        self.store(new, heap, PtrType(decay(expr.type)))
        return old

    def _gen_call(self, expr: ast.Call):
        if expr.name == "malloc":
            return self._gen_malloc(expr)
        if expr.name == "print_int":
            value = self.rvalue(expr.args[0])
            self.emit(Opcode.OUT, None, [value])
            return None
        if expr.name == "print_char":
            value = self.rvalue(expr.args[0])
            self.emit(Opcode.OUTC, None, [value])
            return None
        if expr.name == "halt":
            self.emit(Opcode.HALT)
            return None

        # Evaluate every argument before touching the argument registers,
        # so nested calls cannot clobber them.
        values = []
        for arg in expr.args:
            value = self.rvalue(arg)
            is_fp = isinstance(decay(arg.type), DoubleType)
            if not is_fp:
                value = self.as_reg(value)
            values.append((value, is_fp))

        int_idx = fp_idx = 0
        for value, is_fp in values:
            if is_fp:
                if fp_idx >= len(FP_ARG_REGS):
                    raise IRGenError("too many double arguments")
                self.emit(Opcode.FMOV, Reg(FP_ARG_REGS[fp_idx], "fp"), [value])
                fp_idx += 1
            else:
                if int_idx >= len(INT_ARG_REGS):
                    raise IRGenError("too many integer arguments")
                self.emit(Opcode.MOV, Reg(INT_ARG_REGS[int_idx]), [value])
                int_idx += 1

        self.emit(Opcode.CALL, target=expr.name)
        self.fir.has_calls = True

        ret_t = expr.type
        if ret_t is None or ret_t.size == 0:
            return None
        if isinstance(decay(ret_t), DoubleType):
            dest = self.vreg("fp")
            self.emit(Opcode.FMOV, dest, [Reg(0, "fp")])
            return dest
        dest = self.vreg()
        self.emit(Opcode.MOV, dest, [Reg(RV)])
        return dest

    # -- conditions ---------------------------------------------------------

    def gen_cond(self, expr: ast.Expr, l_true: str, l_false: str) -> None:
        """Branch to *l_true* / *l_false* on the truth of *expr*."""
        if isinstance(expr, ast.Unary) and expr.op == "!" and not expr.postfix:
            self.gen_cond(expr.operand, l_false, l_true)
            return
        if isinstance(expr, ast.Binary):
            if expr.op == "&&":
                mid = self.new_label("and")
                self.gen_cond(expr.left, mid, l_false)
                self.label(mid)
                self.gen_cond(expr.right, l_true, l_false)
                return
            if expr.op == "||":
                mid = self.new_label("or")
                self.gen_cond(expr.left, l_true, mid)
                self.label(mid)
                self.gen_cond(expr.right, l_true, l_false)
                return
            if expr.op in _BRANCH_OPS and not isinstance(
                decay(expr.left.type), DoubleType
            ) and not isinstance(decay(expr.right.type), DoubleType):
                left = self.as_reg(self.rvalue(expr.left))
                right = self.rvalue(expr.right)
                self.emit(
                    _BRANCH_OPS[expr.op], None, [left, right], target=l_true
                )
                self.emit(Opcode.JMP, target=l_false)
                return
        value = self.rvalue(expr)
        if isinstance(decay(expr.type), DoubleType):
            flag = self.vreg()
            self.emit(Opcode.FCMPEQ, flag, [value, self._fp_const(0.0)])
            self.emit(Opcode.BEQ, None, [flag, Imm(0)], target=l_true)
            self.emit(Opcode.JMP, target=l_false)
            return
        value = self.as_reg(value)
        self.emit(Opcode.BNE, None, [value, Imm(0)], target=l_true)
        self.emit(Opcode.JMP, target=l_false)

    # -- statements --------------------------------------------------------

    def gen_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                self.gen_stmt(inner)
        elif isinstance(stmt, ast.DeclList):
            for decl in stmt.decls:
                self.gen_stmt(decl)
        elif isinstance(stmt, ast.VarDecl):
            slot = self._slot(stmt.symbol)
            if stmt.init is not None:
                t = decay(stmt.symbol.type)
                value = self.rvalue(stmt.init)
                if not isinstance(t, DoubleType):
                    value = self.as_reg(value)
                self.store(value, Addr(Reg(SP), Imm(slot.offset)), t)
        elif isinstance(stmt, ast.ExprStmt):
            self.rvalue_discard(stmt.expr)
        elif isinstance(stmt, ast.If):
            l_then = self.new_label("it")
            l_end = self.new_label("ie")
            if stmt.other is None:
                self.gen_cond(stmt.cond, l_then, l_end)
                self.label(l_then)
                self.gen_stmt(stmt.then)
                self.label(l_end)
            else:
                l_else = self.new_label("ix")
                self.gen_cond(stmt.cond, l_then, l_else)
                self.label(l_then)
                self.gen_stmt(stmt.then)
                self.emit(Opcode.JMP, target=l_end)
                self.label(l_else)
                self.gen_stmt(stmt.other)
                self.label(l_end)
        elif isinstance(stmt, ast.While):
            # Rotated (bottom-test) form: one taken branch per iteration
            # instead of two.
            l_body = self.new_label("wb")
            l_cont = self.new_label("wc")
            l_end = self.new_label("we")
            self.gen_cond(stmt.cond, l_body, l_end)
            self.label(l_body)
            self._break_labels.append(l_end)
            self._continue_labels.append(l_cont)
            self.gen_stmt(stmt.body)
            self._break_labels.pop()
            self._continue_labels.pop()
            self.label(l_cont)
            self.gen_cond(stmt.cond, l_body, l_end)
            self.label(l_end)
        elif isinstance(stmt, ast.DoWhile):
            l_body = self.new_label("db")
            l_cond = self.new_label("dc")
            l_end = self.new_label("de")
            self.label(l_body)
            self._break_labels.append(l_end)
            self._continue_labels.append(l_cond)
            self.gen_stmt(stmt.body)
            self._break_labels.pop()
            self._continue_labels.pop()
            self.label(l_cond)
            self.gen_cond(stmt.cond, l_body, l_end)
            self.label(l_end)
        elif isinstance(stmt, ast.For):
            # Rotated (bottom-test) form, entry condition checked once.
            l_body = self.new_label("fb")
            l_step = self.new_label("fs")
            l_end = self.new_label("fe")
            if stmt.init is not None:
                self.gen_stmt(stmt.init)
            if stmt.cond is not None:
                self.gen_cond(stmt.cond, l_body, l_end)
            self.label(l_body)
            self._break_labels.append(l_end)
            self._continue_labels.append(l_step)
            self.gen_stmt(stmt.body)
            self._break_labels.pop()
            self._continue_labels.pop()
            self.label(l_step)
            if stmt.step is not None:
                self.rvalue_discard(stmt.step)
            if stmt.cond is not None:
                self.gen_cond(stmt.cond, l_body, l_end)
            else:
                self.emit(Opcode.JMP, target=l_body)
            self.label(l_end)
        elif isinstance(stmt, ast.Break):
            if not self._break_labels:
                raise IRGenError("break outside loop")
            self.emit(Opcode.JMP, target=self._break_labels[-1])
        elif isinstance(stmt, ast.Continue):
            if not self._continue_labels:
                raise IRGenError("continue outside loop")
            self.emit(Opcode.JMP, target=self._continue_labels[-1])
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self.rvalue(stmt.value)
                if isinstance(decay(stmt.value.type), DoubleType):
                    self.emit(Opcode.FMOV, Reg(0, "fp"), [value])
                else:
                    value = self.as_reg(value)
                    self.emit(Opcode.MOV, Reg(RV), [value])
            self.emit(Opcode.JMP, target=self.exit_label)
        else:  # pragma: no cover
            raise IRGenError(f"unknown statement {type(stmt).__name__}")

    def rvalue_discard(self, expr: ast.Expr) -> None:
        """Lower an expression for its side effects only."""
        if isinstance(expr, ast.Call):
            self._gen_call(expr)
            return
        self.rvalue(expr)

    # -- whole function ----------------------------------------------------

    def generate(self) -> FuncIR:
        int_idx = fp_idx = 0
        for param in self.funcdef.params:
            slot = self._slot(param.symbol)
            t = decay(param.symbol.type)
            if isinstance(t, DoubleType):
                if fp_idx >= len(FP_ARG_REGS):
                    raise IRGenError(
                        f"{self.funcdef.name}: too many double parameters "
                        f"(max {len(FP_ARG_REGS)})"
                    )
                src = Reg(FP_ARG_REGS[fp_idx], "fp")
                fp_idx += 1
                self.emit(Opcode.FST, None, [src, Reg(SP), Imm(slot.offset)])
            else:
                if int_idx >= len(INT_ARG_REGS):
                    raise IRGenError(
                        f"{self.funcdef.name}: too many integer parameters "
                        f"(max {len(INT_ARG_REGS)})"
                    )
                src = Reg(INT_ARG_REGS[int_idx])
                int_idx += 1
                self.store(src, Addr(Reg(SP), Imm(slot.offset)), t)
        self.gen_stmt(self.funcdef.body)
        self.emit(Opcode.JMP, target=self.exit_label)
        self.label(self.exit_label)
        self.emit(Opcode.RET)
        return self.fir


def generate_ir(unit: ast.TranslationUnit,
                analyzer: SemanticAnalyzer) -> ModuleIR:
    """Lower a checked translation unit to IR."""
    return IRGenerator(unit, analyzer).generate()
