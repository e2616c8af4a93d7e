"""Local/global constant propagation over virtual registers.

A forward dataflow pass with the usual three-level lattice per virtual
register (unknown / constant c / not-a-constant).  Physical registers are
never tracked.  Constant conditional branches are folded into
unconditional jumps (or removed), and fully-constant ALU operations
become MOV-immediates.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.compiler.ir import FuncIR
from repro.compiler.opt.fold import fold, fold_branch
from repro.isa.instruction import Imm, Instruction, Reg
from repro.isa.opcodes import INT_ALU_OPS, Opcode

RegKey = Tuple[str, int, bool]

_NAC = object()  # not-a-constant marker


def _operand_value(operand, env: Dict[RegKey, object]):
    """Constant value of an operand under *env*, or None."""
    if isinstance(operand, Imm):
        return operand.value
    if isinstance(operand, Reg) and operand.virtual:
        value = env.get(operand.key)
        if value is not _NAC and value is not None:
            return value
    return None


def _transfer(inst: Instruction, env: Dict[RegKey, object]) -> None:
    """Update *env* with the effect of *inst* (no rewriting)."""
    dest = inst.dest
    if dest is None or not dest.virtual:
        return
    key = dest.key
    if inst.opcode is Opcode.MOV and isinstance(inst.srcs[0], Imm):
        env[key] = inst.srcs[0].value
        return
    if inst.opcode is Opcode.MOV:
        value = _operand_value(inst.srcs[0], env)
        env[key] = value if value is not None else _NAC
        return
    if inst.opcode in INT_ALU_OPS and len(inst.srcs) == 2:
        a = _operand_value(inst.srcs[0], env)
        b = _operand_value(inst.srcs[1], env)
        if a is not None and b is not None:
            value = fold(inst.opcode, a, b)
            if value is not None:
                env[key] = value
                return
    env[key] = _NAC


def _meet_into(target: Dict[RegKey, object], other: Dict[RegKey, object]) -> bool:
    """Meet *other* into *target* in place; True if *target* changed.

    Keys absent from *other* are unknown on that path and keep their
    *target* value, so only *other*'s entries need visiting — the
    common case (identical environments) touches no dict beyond the
    lookups.
    """
    changed = False
    get = target.get
    for key, value in other.items():
        current = get(key)
        if current is None:
            target[key] = value  # unknown on the target path: take
            changed = True
        elif current is _NAC or current == value:
            continue
        else:
            target[key] = _NAC
            changed = True
    return changed


def constant_propagation(fir: FuncIR) -> bool:
    """Run to a dataflow fixed point, then rewrite; returns changed."""
    cfg = fir.cfg()
    blocks = cfg.blocks
    n = len(blocks)
    in_env: list = [None] * n
    in_env[0] = {}

    # Iterate to a fixed point over block in-states.
    changed = True
    while changed:
        changed = False
        for block in blocks:
            env = in_env[block.index]
            if env is None:
                continue
            out = dict(env)
            for inst in block.instrs:
                _transfer(inst, out)
            for succ in block.succs:
                if in_env[succ] is None:
                    in_env[succ] = dict(out)
                    changed = True
                elif _meet_into(in_env[succ], out):
                    changed = True

    # Rewrite pass.
    rewrote = False
    for block in blocks:
        env = in_env[block.index]
        if env is None:
            continue
        env = dict(env)
        for i, inst in enumerate(block.instrs):
            new = _rewrite(inst, env)
            if new is not None:
                block.instrs[i] = new
                inst = new
                rewrote = True
            _transfer(inst, env)
    if rewrote:
        cfg.to_function()
    return rewrote


def _rewrite(inst: Instruction, env: Dict[RegKey, object]) -> Optional[Instruction]:
    """A replacement instruction under *env*, or None to keep."""
    op = inst.opcode
    if op in INT_ALU_OPS and inst.dest is not None and len(inst.srcs) == 2:
        a = _operand_value(inst.srcs[0], env)
        b = _operand_value(inst.srcs[1], env)
        if a is not None and b is not None:
            value = fold(op, a, b)
            if value is not None:
                return Instruction(Opcode.MOV, inst.dest, [Imm(value)])
        # Replace a constant second operand (one immediate per instruction).
        if (
            b is not None
            and isinstance(inst.srcs[1], Reg)
            and not isinstance(inst.srcs[0], Imm)
        ):
            return Instruction(op, inst.dest, [inst.srcs[0], Imm(b)])
        return None
    if op is Opcode.MOV and isinstance(inst.srcs[0], Reg):
        value = _operand_value(inst.srcs[0], env)
        if value is not None:
            return Instruction(Opcode.MOV, inst.dest, [Imm(value)])
        return None
    if inst.is_cond_branch:
        a = _operand_value(inst.srcs[0], env)
        b = _operand_value(inst.srcs[1], env)
        if a is not None and b is not None:
            taken = fold_branch(op, a, b)
            if taken is True:
                return Instruction(Opcode.JMP, target=inst.target)
            if taken is False:
                return Instruction(Opcode.NOP)
        elif (
            b is not None
            and isinstance(inst.srcs[1], Reg)
            and not isinstance(inst.srcs[0], Imm)
        ):
            return Instruction(
                op, None, [inst.srcs[0], Imm(b)], target=inst.target
            )
    return None
