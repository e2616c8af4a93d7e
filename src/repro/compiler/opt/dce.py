"""Dead-code elimination based on liveness.

Removes pure instructions (integer/FP ALU ops and loads) whose result is
dead.  Dead loads commonly appear after redundant-load elimination and
mem2reg; removing them matters for the paper's load statistics, which
count only loads that survive optimization.
"""

from __future__ import annotations

from repro.compiler.ir import FuncIR
from repro.isa.opcodes import FP_ALU_OPS, INT_ALU_OPS, LOAD_OPS, Opcode

_PURE = INT_ALU_OPS | FP_ALU_OPS | LOAD_OPS | {Opcode.NOP}


def dead_code_elimination(fir: FuncIR) -> bool:
    """Iterate liveness + removal until no instruction dies."""
    removed_any = False
    while True:
        cfg = fir.cfg()
        liveness = fir.liveness()
        removed = False
        for block in cfg.blocks:
            live_after = liveness.per_instruction(block.index)
            keep = []
            for i, inst in enumerate(block.instrs):
                if inst.opcode is Opcode.NOP:
                    removed = True
                    continue
                if (
                    inst.opcode in _PURE
                    and inst.dest is not None
                    and inst.dest.key not in live_after[i]
                ):
                    removed = True
                    continue
                keep.append(inst)
            block.instrs = keep
        cfg.to_function()
        removed_any = removed_any or removed
        if not removed:
            return removed_any
