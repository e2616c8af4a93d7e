"""Local/global copy propagation over virtual registers.

Forward dataflow of *available copies*: after ``MOV v1, v2`` (both
virtual), uses of ``v1`` can read ``v2`` until either register is
redefined.  The meet is intersection.  FMOV copies propagate the same way
in the floating-point bank.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.compiler.ir import FuncIR
from repro.isa.instruction import Instruction, Reg
from repro.isa.opcodes import Opcode

RegKey = Tuple[str, int, bool]


def _is_copy(inst: Instruction) -> bool:
    if inst.opcode not in (Opcode.MOV, Opcode.FMOV):
        return False
    src = inst.srcs[0]
    return (
        isinstance(src, Reg)
        and src.virtual
        and inst.dest is not None
        and inst.dest.virtual
        and src.key != inst.dest.key
    )


def _transfer(inst: Instruction, env: Dict[RegKey, RegKey]) -> None:
    dest = inst.dest
    if dest is None:
        return
    key = dest.key
    # Any redefinition kills copies involving the register.
    stale = [k for k, v in env.items() if k == key or v == key]
    for k in stale:
        del env[k]
    if _is_copy(inst):
        env[key] = inst.srcs[0].key


def copy_propagation(fir: FuncIR) -> bool:
    cfg = fir.cfg()
    blocks = cfg.blocks
    n = len(blocks)
    in_env: list = [None] * n
    in_env[0] = {}

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
                else:
                    merged = {
                        k: v
                        for k, v in in_env[succ].items()
                        if out.get(k) == v
                    }
                    if merged != in_env[succ]:
                        in_env[succ] = merged
                        changed = True

    rewrote = False
    reg_cache: Dict[RegKey, Reg] = {}
    for block in blocks:
        env = in_env[block.index]
        if env is None:
            continue
        env = dict(env)
        for inst in block.instrs:
            new_srcs = None
            for i, src in enumerate(inst.srcs):
                if isinstance(src, Reg) and src.virtual:
                    target = env.get(src.key)
                    # Chase copy chains.
                    seen = set()
                    while target is not None and target not in seen:
                        seen.add(target)
                        nxt = env.get(target)
                        if nxt is None:
                            break
                        target = nxt
                    if target is not None:
                        if new_srcs is None:
                            new_srcs = list(inst.srcs)
                        reg = reg_cache.get(target)
                        if reg is None:
                            reg = Reg(target[1], target[0], virtual=True)
                            reg_cache[target] = reg
                        new_srcs[i] = reg
                        rewrote = True
            if new_srcs is not None:
                inst.srcs = tuple(new_srcs)
            _transfer(inst, env)
    return rewrote
