"""Control-flow cleanup: dead blocks, jump threading, branch inversion.

Run after IR generation (which emits a fully explicit branch structure)
and after passes that fold branches.  Three rewrites:

* unreachable blocks are dropped (via a CFG round trip);
* ``JMP L`` immediately followed by ``L:`` disappears;
* ``bCC ..., L1; jmp L2; L1:`` becomes ``b!CC ..., L2; L1:`` so the
  frequent path falls through (loop bodies stay branch-free).
"""

from __future__ import annotations

from typing import List

from repro.compiler.ir import FuncIR
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Label

_INVERT = {
    Opcode.BEQ: Opcode.BNE,
    Opcode.BNE: Opcode.BEQ,
    Opcode.BLT: Opcode.BGE,
    Opcode.BGE: Opcode.BLT,
    Opcode.BLE: Opcode.BGT,
    Opcode.BGT: Opcode.BLE,
}


def _next_labels(body: List, index: int) -> List[str]:
    """Names of the labels immediately following position *index*."""
    names = []
    j = index + 1
    while j < len(body) and isinstance(body[j], Label):
        names.append(body[j].name)
        j += 1
    return names


def simplify_control_flow(fir: FuncIR) -> bool:
    """Iterate the cleanup rewrites to a fixed point; returns changed."""
    func = fir.func
    before_len = len(func.body)
    before_ops = sum(1 for _ in func.instructions())

    # Rebuild through the CFG to drop unreachable blocks.
    fir.cfg().to_function()

    body = func.body
    new_body: List = []
    i = 0
    while i < len(body):
        item = body[i]
        if isinstance(item, Instruction):
            if item.opcode is Opcode.JMP and item.target in _next_labels(
                body, i
            ):
                i += 1
                continue
            nxt = body[i + 1] if i + 1 < len(body) else None
            if (
                item.is_cond_branch
                and item.opcode in _INVERT
                and isinstance(nxt, Instruction)
                and nxt.opcode is Opcode.JMP
                and item.target in _next_labels(body, i + 1)
            ):
                inverted = Instruction(
                    _INVERT[item.opcode],
                    None,
                    item.srcs,
                    target=nxt.target,
                )
                new_body.append(inverted)
                i += 2
                continue
        new_body.append(item)
        i += 1
    func.body = new_body

    after_ops = sum(1 for _ in func.instructions())
    return after_ops != before_ops or len(func.body) != before_len
