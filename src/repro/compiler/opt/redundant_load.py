"""Local redundant-load elimination with store-to-load forwarding.

Within a basic block, a load from an address whose value is already in a
register (from an earlier load or store to the same base+displacement)
becomes a register move.  Aliasing is resolved conservatively:

* a store to ``base + imm`` kills available entries unless they use the
  *same* base register with a provably disjoint immediate range;
* a store with a register displacement, or to an unrelated base register,
  kills everything except entries based on a *different named global*
  (two distinct ``Sym`` displacements off ``r0`` cannot alias);
* calls kill everything (the callee may store anywhere).

Redefining a base register also kills entries built on it.
"""

from __future__ import annotations

from typing import Dict

from repro.compiler.ir import FuncIR
from repro.compiler.opt.alias import MemKey, may_alias, mem_key
from repro.isa.instruction import Instruction, Reg
from repro.isa.opcodes import Opcode


def redundant_load_elimination(fir: FuncIR) -> bool:
    cfg = fir.cfg()
    changed = False
    for block in cfg.blocks:
        avail: Dict[MemKey, Reg] = {}
        for i, inst in enumerate(block.instrs):
            replacement = None
            record = None
            if inst.is_load:
                key = mem_key(inst)
                if key is not None:
                    prev = avail.get(key)
                    if prev is not None and prev.key != inst.dest.key:
                        move = (
                            Opcode.FMOV
                            if inst.opcode is Opcode.FLD
                            else Opcode.MOV
                        )
                        replacement = Instruction(move, inst.dest, [prev])
                    else:
                        record = (key, inst.dest)
            elif inst.is_store:
                key = mem_key(inst)
                for entry in [e for e in avail if may_alias(key, e)]:
                    del avail[entry]
                value = inst.srcs[0]
                if key is not None and isinstance(value, Reg):
                    record = (key, value)  # store-to-load forwarding
            elif inst.opcode is Opcode.CALL:
                avail.clear()

            if replacement is not None:
                block.instrs[i] = replacement
                inst = replacement
                changed = True

            # A definition kills entries that mention the register...
            dest = inst.dest
            if dest is not None:
                stale = [
                    entry
                    for entry, reg in avail.items()
                    if entry[0] == dest.key or reg.key == dest.key
                ]
                for entry in stale:
                    del avail[entry]
            # ...and only then is the instruction's own result recorded.
            # A pointer-chasing load (dest == base) records nothing: its
            # key describes the old base value.
            if record is not None and not (
                dest is not None and record[0][0] == dest.key
            ):
                avail[record[0]] = record[1]
    if changed:
        cfg.to_function()
    return changed
