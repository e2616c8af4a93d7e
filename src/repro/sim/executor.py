"""Functional emulator for the reproduction ISA.

The emulator executes a laid-out :class:`~repro.isa.program.Program`
against a flat :class:`~repro.sim.memory.Memory` and records a
:class:`~repro.sim.trace.Trace` (static uid + effective address per
dynamic instruction).  It is the "emulation" half of the paper's
emulation-driven simulator; all timing is left to
:mod:`repro.sim.pipeline`.

For speed, instructions are precompiled once into flat tuples and
dispatched through an integer-keyed ``if``/``elif`` chain; the two
register banks live in one 128-slot list (int registers 0..63, fp
registers 64..127).
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.errors import EmulationError, StepLimitExceeded
from repro.isa.instruction import Imm, Reg, Sym
from repro.isa.opcodes import Opcode
from repro.isa.program import CODE_BASE, Program
from repro.sim.memory import DEFAULT_MEM_SIZE, Memory, initial_sp, load_program
from repro.sim.trace import Trace

_MASK = 0xFFFFFFFF
_SIGN = 1 << 31
_WRAP = 1 << 32

#: Whether a ``memoryview(...).cast("I")`` over memory reads 32-bit
#: words in the simulated (little-endian) byte order.
_LITTLE = sys.byteorder == "little"

# Integer kind codes for the dispatch loop, ordered roughly by frequency.
(
    _K_LD,
    _K_ADD,
    _K_ST,
    _K_BEQ,
    _K_BNE,
    _K_BLT,
    _K_BLE,
    _K_BGT,
    _K_BGE,
    _K_MOV,
    _K_SUB,
    _K_MUL,
    _K_AND,
    _K_OR,
    _K_XOR,
    _K_SLL,
    _K_SRL,
    _K_SRA,
    _K_CMPEQ,
    _K_CMPNE,
    _K_CMPLT,
    _K_CMPLE,
    _K_CMPGT,
    _K_CMPGE,
    _K_CMPLTU,
    _K_LDB,
    _K_STB,
    _K_JMP,
    _K_CALL,
    _K_RET,
    _K_DIV,
    _K_REM,
    _K_OUT,
    _K_OUTC,
    _K_HALT,
    _K_NOP,
    _K_FADD,
    _K_FSUB,
    _K_FMUL,
    _K_FDIV,
    _K_FMOV,
    _K_FCMPEQ,
    _K_FCMPLT,
    _K_FCMPLE,
    _K_CVTIF,
    _K_CVTFI,
    _K_FLD,
    _K_FST,
) = range(48)

_KIND = {
    Opcode.LD: _K_LD,
    Opcode.ADD: _K_ADD,
    Opcode.ST: _K_ST,
    Opcode.BEQ: _K_BEQ,
    Opcode.BNE: _K_BNE,
    Opcode.BLT: _K_BLT,
    Opcode.BLE: _K_BLE,
    Opcode.BGT: _K_BGT,
    Opcode.BGE: _K_BGE,
    Opcode.MOV: _K_MOV,
    Opcode.SUB: _K_SUB,
    Opcode.MUL: _K_MUL,
    Opcode.AND: _K_AND,
    Opcode.OR: _K_OR,
    Opcode.XOR: _K_XOR,
    Opcode.SLL: _K_SLL,
    Opcode.SRL: _K_SRL,
    Opcode.SRA: _K_SRA,
    Opcode.CMPEQ: _K_CMPEQ,
    Opcode.CMPNE: _K_CMPNE,
    Opcode.CMPLT: _K_CMPLT,
    Opcode.CMPLE: _K_CMPLE,
    Opcode.CMPGT: _K_CMPGT,
    Opcode.CMPGE: _K_CMPGE,
    Opcode.CMPLTU: _K_CMPLTU,
    Opcode.LDB: _K_LDB,
    Opcode.STB: _K_STB,
    Opcode.JMP: _K_JMP,
    Opcode.CALL: _K_CALL,
    Opcode.RET: _K_RET,
    Opcode.DIV: _K_DIV,
    Opcode.REM: _K_REM,
    Opcode.OUT: _K_OUT,
    Opcode.OUTC: _K_OUTC,
    Opcode.HALT: _K_HALT,
    Opcode.NOP: _K_NOP,
    Opcode.FADD: _K_FADD,
    Opcode.FSUB: _K_FSUB,
    Opcode.FMUL: _K_FMUL,
    Opcode.FDIV: _K_FDIV,
    Opcode.FMOV: _K_FMOV,
    Opcode.FCMPEQ: _K_FCMPEQ,
    Opcode.FCMPLT: _K_FCMPLT,
    Opcode.FCMPLE: _K_FCMPLE,
    Opcode.CVTIF: _K_CVTIF,
    Opcode.CVTFI: _K_CVTFI,
    Opcode.FLD: _K_FLD,
    Opcode.FST: _K_FST,
}


__all__ = [
    "EmulationError",
    "ExecResult",
    "Executor",
    "StepLimitExceeded",
    "execute",
]


class ExecResult:
    """Outcome of one emulated run."""

    __slots__ = ("trace", "output", "text", "steps", "memory")

    def __init__(
        self,
        trace: Trace,
        output: List[int],
        text: str,
        steps: int,
        memory: Memory,
    ):
        #: Dynamic trace (uids + effective addresses).
        self.trace = trace
        #: Integers emitted by OUT, in order.
        self.output = output
        #: Characters emitted by OUTC, concatenated.
        self.text = text
        #: Dynamic instruction count.
        self.steps = steps
        #: Final memory image (useful in tests).
        self.memory = memory


#: Register-file slot that absorbs writes to the hard-wired zero register.
_TRASH_SLOT = 128


def _reg_slot(reg: Reg) -> int:
    if reg.virtual:
        raise EmulationError(f"virtual register reaches emulator: {reg!r}")
    return reg.index if reg.bank == "int" else 64 + reg.index


class Executor:
    """Precompiles and runs one program.

    The same Executor can be run multiple times; each :meth:`run` starts
    from a fresh memory image and register file.
    """

    def __init__(
        self,
        program: Program,
        mem_size: int = DEFAULT_MEM_SIZE,
        max_steps: int = 50_000_000,
    ):
        if not program.laid_out:
            program.layout()
        self.program = program
        self.mem_size = mem_size
        self.max_steps = max_steps
        self._code = self._precompile()

    # -- precompilation ----------------------------------------------------

    def _operand(self, op) -> tuple:
        """Lower an operand to ``(reg_slot_or_minus1, imm_value)``."""
        if isinstance(op, Reg):
            return (_reg_slot(op), 0)
        if isinstance(op, Imm):
            return (-1, op.value)
        if isinstance(op, Sym):
            return (-1, self.program.data_addr(op.name) + op.offset)
        raise EmulationError(f"bad operand: {op!r}")

    def _precompile(self) -> list:
        code = []
        resolve = self.program.resolve_label
        for inst in self.program.flat:
            kind = _KIND.get(inst.opcode)
            if kind is None and inst.opcode is not Opcode.LEA:
                raise EmulationError(f"unknown opcode: {inst!r}")
            dest = _reg_slot(inst.dest) if inst.dest is not None else -1
            if dest == 0:
                # Writes to r0 are architecturally discarded.
                dest = _TRASH_SLOT
            ops = [(-1, 0)] * 3
            if inst.opcode is Opcode.LEA:
                # LEA dest, sym  ->  MOV dest, #addr
                kind = _K_MOV
                sym = inst.srcs[0]
                assert isinstance(sym, Sym)
                ops[0] = (-1, self.program.data_addr(sym.name) + sym.offset)
            else:
                for i, src in enumerate(inst.srcs):
                    ops[i] = self._operand(src)
            tgt = resolve(inst.target) if inst.target is not None else -1
            (ai, av), (bi, bv), (ci, cv) = ops
            code.append((kind, dest, ai, av, bi, bv, ci, cv, tgt))
        return code

    # -- execution ------------------------------------------------------------

    def run(self, max_steps: Optional[int] = None) -> ExecResult:
        """Emulate from the entry function until HALT or top-level return."""
        program = self.program
        code = self._code
        ncode = len(code)
        if ncode == 0:
            raise EmulationError("empty program")
        limit = max_steps if max_steps is not None else self.max_steps

        mem = load_program(program, self.mem_size)
        mdata = mem.data
        msize = mem.size
        load_double = mem.load_double
        store_double = mem.store_double

        # Aligned word traffic dominates; serving it through a 32-bit
        # view of the same buffer avoids a bytes slice + int.from_bytes
        # (or to_bytes) per access.  Unaligned accesses and big-endian
        # hosts fall back to the byte path.
        mword = None
        if _LITTLE and not msize & 3:
            view = memoryview(mdata).cast("I")
            if view.itemsize == 4:
                mword = view

        regs: list = [0] * 64 + [0.0] * 64 + [0]  # last slot absorbs r0 writes
        regs[62] = initial_sp(self.mem_size)  # sp
        regs[63] = CODE_BASE - 4  # ra sentinel: RET from main halts

        uids: List[int] = []
        eas: List[int] = []
        uids_append = uids.append
        eas_append = eas.append
        output: List[int] = []
        chars: List[str] = []

        pc = program.func_index[program.entry]
        steps = 0

        while 0 <= pc < ncode:
            if steps >= limit:
                raise StepLimitExceeded(limit, pc, steps)
            steps += 1
            k, d, ai, av, bi, bv, ci, cv, tg = code[pc]
            uids_append(pc)

            if k == _K_LD:
                ea = regs[ai] + (regs[bi] if bi >= 0 else bv)
                eas_append(ea)
                if ea < 0 or ea + 4 > msize:
                    raise EmulationError(
                        f"load out of range at uid {pc}: {ea:#x}"
                    )
                if ea & 3 or mword is None:
                    v = int.from_bytes(mdata[ea : ea + 4], "little")
                else:
                    v = mword[ea >> 2]
                regs[d] = v - _WRAP if v >= _SIGN else v
                pc += 1
                continue
            if k == _K_ADD:
                v = regs[ai] + (regs[bi] if bi >= 0 else bv)
                v &= _MASK
                regs[d] = v - _WRAP if v >= _SIGN else v
                eas_append(-1)
                pc += 1
                continue
            if k == _K_ST:
                ea = regs[bi] + (regs[ci] if ci >= 0 else cv)
                eas_append(ea)
                if ea < 0 or ea + 4 > msize:
                    raise EmulationError(
                        f"store out of range at uid {pc}: {ea:#x}"
                    )
                value = regs[ai] if ai >= 0 else av
                if ea & 3 or mword is None:
                    mdata[ea : ea + 4] = (value & _MASK).to_bytes(4, "little")
                else:
                    mword[ea >> 2] = value & _MASK
                pc += 1
                continue
            if _K_BEQ <= k <= _K_BGE:
                a = regs[ai] if ai >= 0 else av
                b = regs[bi] if bi >= 0 else bv
                if k == _K_BEQ:
                    taken = a == b
                elif k == _K_BNE:
                    taken = a != b
                elif k == _K_BLT:
                    taken = a < b
                elif k == _K_BLE:
                    taken = a <= b
                elif k == _K_BGT:
                    taken = a > b
                else:
                    taken = a >= b
                eas_append(-1)
                pc = tg if taken else pc + 1
                continue
            eas_append(-1)
            if k == _K_MOV:
                regs[d] = regs[ai] if ai >= 0 else av
            elif k == _K_SUB:
                v = (regs[ai] if ai >= 0 else av) - (
                    regs[bi] if bi >= 0 else bv
                )
                v &= _MASK
                regs[d] = v - _WRAP if v >= _SIGN else v
            elif k == _K_MUL:
                v = (regs[ai] if ai >= 0 else av) * (
                    regs[bi] if bi >= 0 else bv
                )
                v &= _MASK
                regs[d] = v - _WRAP if v >= _SIGN else v
            elif k == _K_AND:
                regs[d] = (regs[ai] if ai >= 0 else av) & (
                    regs[bi] if bi >= 0 else bv
                )
            elif k == _K_OR:
                regs[d] = (regs[ai] if ai >= 0 else av) | (
                    regs[bi] if bi >= 0 else bv
                )
            elif k == _K_XOR:
                regs[d] = (regs[ai] if ai >= 0 else av) ^ (
                    regs[bi] if bi >= 0 else bv
                )
            elif k == _K_SLL:
                v = (regs[ai] if ai >= 0 else av) << (
                    (regs[bi] if bi >= 0 else bv) & 31
                )
                v &= _MASK
                regs[d] = v - _WRAP if v >= _SIGN else v
            elif k == _K_SRL:
                v = ((regs[ai] if ai >= 0 else av) & _MASK) >> (
                    (regs[bi] if bi >= 0 else bv) & 31
                )
                regs[d] = v - _WRAP if v >= _SIGN else v
            elif k == _K_SRA:
                regs[d] = (regs[ai] if ai >= 0 else av) >> (
                    (regs[bi] if bi >= 0 else bv) & 31
                )
            elif k == _K_CMPEQ:
                regs[d] = 1 if (regs[ai] if ai >= 0 else av) == (
                    regs[bi] if bi >= 0 else bv
                ) else 0
            elif k == _K_CMPNE:
                regs[d] = 1 if (regs[ai] if ai >= 0 else av) != (
                    regs[bi] if bi >= 0 else bv
                ) else 0
            elif k == _K_CMPLT:
                regs[d] = 1 if (regs[ai] if ai >= 0 else av) < (
                    regs[bi] if bi >= 0 else bv
                ) else 0
            elif k == _K_CMPLE:
                regs[d] = 1 if (regs[ai] if ai >= 0 else av) <= (
                    regs[bi] if bi >= 0 else bv
                ) else 0
            elif k == _K_CMPGT:
                regs[d] = 1 if (regs[ai] if ai >= 0 else av) > (
                    regs[bi] if bi >= 0 else bv
                ) else 0
            elif k == _K_CMPGE:
                regs[d] = 1 if (regs[ai] if ai >= 0 else av) >= (
                    regs[bi] if bi >= 0 else bv
                ) else 0
            elif k == _K_CMPLTU:
                regs[d] = 1 if ((regs[ai] if ai >= 0 else av) & _MASK) < (
                    (regs[bi] if bi >= 0 else bv) & _MASK
                ) else 0
            elif k == _K_LDB:
                ea = regs[ai] + (regs[bi] if bi >= 0 else bv)
                eas[-1] = ea
                if ea < 0 or ea >= msize:
                    raise EmulationError(
                        f"load out of range at uid {pc}: {ea:#x}"
                    )
                regs[d] = mdata[ea]
            elif k == _K_STB:
                ea = regs[bi] + (regs[ci] if ci >= 0 else cv)
                eas[-1] = ea
                if ea < 0 or ea >= msize:
                    raise EmulationError(
                        f"store out of range at uid {pc}: {ea:#x}"
                    )
                mdata[ea] = (regs[ai] if ai >= 0 else av) & 0xFF
            elif k == _K_JMP:
                pc = tg
                continue
            elif k == _K_CALL:
                regs[63] = CODE_BASE + 4 * (pc + 1)
                pc = tg
                continue
            elif k == _K_RET:
                pc = (regs[63] - CODE_BASE) >> 2
                continue
            elif k == _K_DIV or k == _K_REM:
                a = regs[ai] if ai >= 0 else av
                b = regs[bi] if bi >= 0 else bv
                if b == 0:
                    raise EmulationError(f"division by zero at uid {pc}")
                q = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    q = -q
                if k == _K_DIV:
                    v = q & _MASK
                else:
                    v = (a - q * b) & _MASK
                regs[d] = v - _WRAP if v >= _SIGN else v
            elif k == _K_OUT:
                output.append(regs[ai] if ai >= 0 else av)
            elif k == _K_OUTC:
                chars.append(chr((regs[ai] if ai >= 0 else av) & 0xFF))
            elif k == _K_HALT:
                break
            elif k == _K_NOP:
                pass
            elif k == _K_FADD:
                regs[d] = regs[ai] + regs[bi]
            elif k == _K_FSUB:
                regs[d] = regs[ai] - regs[bi]
            elif k == _K_FMUL:
                regs[d] = regs[ai] * regs[bi]
            elif k == _K_FDIV:
                b = regs[bi]
                if b == 0.0:
                    raise EmulationError(f"fp division by zero at uid {pc}")
                regs[d] = regs[ai] / b
            elif k == _K_FMOV:
                regs[d] = regs[ai]
            elif k == _K_FCMPEQ:
                regs[d] = 1 if regs[ai] == regs[bi] else 0
            elif k == _K_FCMPLT:
                regs[d] = 1 if regs[ai] < regs[bi] else 0
            elif k == _K_FCMPLE:
                regs[d] = 1 if regs[ai] <= regs[bi] else 0
            elif k == _K_CVTIF:
                regs[d] = float(regs[ai] if ai >= 0 else av)
            elif k == _K_CVTFI:
                v = int(regs[ai]) & _MASK
                regs[d] = v - _WRAP if v >= _SIGN else v
            elif k == _K_FLD:
                ea = regs[ai] + (regs[bi] if bi >= 0 else bv)
                eas[-1] = ea
                regs[d] = load_double(ea)
            elif k == _K_FST:
                ea = regs[bi] + (regs[ci] if ci >= 0 else cv)
                eas[-1] = ea
                store_double(ea, regs[ai])
            else:  # pragma: no cover - _KIND covers every opcode
                raise EmulationError(f"unhandled kind {k} at uid {pc}")
            pc += 1

        trace = Trace(self.program, uids, eas)
        return ExecResult(trace, output, "".join(chars), steps, mem)


def execute(program: Program, **kwargs) -> ExecResult:
    """Convenience wrapper: precompile and run *program* once."""
    return Executor(program, **kwargs).run()
