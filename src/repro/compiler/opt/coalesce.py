"""Move coalescing: fold ``op d, ...; mov v, d`` into ``op v, ...``.

The IR generator materializes every expression into a fresh virtual
register and then copies it into the variable's register, producing
pairs like::

    add v12, v10, 1
    mov v10, v12

When ``v12`` is dead after the copy, the pair collapses to
``add v10, v10, 1``.  Besides shrinking code, this restores the
``v = v + c`` shape that induction-variable strength reduction looks
for, and it curbs the register reuse that would otherwise inflate the
classification pass's S_load sets.
"""

from __future__ import annotations

from repro.compiler.ir import FuncIR
from repro.isa.instruction import Instruction, Reg
from repro.isa.opcodes import FP_ALU_OPS, INT_ALU_OPS, LOAD_OPS, Opcode

_FOLDABLE = (INT_ALU_OPS | FP_ALU_OPS | LOAD_OPS) - {Opcode.MOV, Opcode.FMOV}


def coalesce_moves(fir: FuncIR) -> bool:
    changed = _coalesce_dead_copies(fir)
    changed |= _coalesce_iv_updates(fir)
    return changed


def _coalesce_dead_copies(fir: FuncIR) -> bool:
    changed = False
    cfg = fir.cfg()
    liveness = fir.liveness()
    for block in cfg.blocks:
        live_after = liveness.per_instruction(block.index)
        new_instrs = []
        i = 0
        instrs = block.instrs
        while i < len(instrs):
            inst = instrs[i]
            nxt = instrs[i + 1] if i + 1 < len(instrs) else None
            if (
                nxt is not None
                and inst.opcode in _FOLDABLE
                and inst.dest is not None
                and inst.dest.virtual
                and nxt.opcode in (Opcode.MOV, Opcode.FMOV)
                and nxt.dest is not None
                and nxt.dest.virtual
                and len(nxt.srcs) == 1
                and isinstance(nxt.srcs[0], Reg)
                and nxt.srcs[0].key == inst.dest.key
                and inst.dest.key not in live_after[i + 1]
            ):
                inst.dest = nxt.dest
                new_instrs.append(inst)
                i += 2
                changed = True
                continue
            new_instrs.append(inst)
            i += 1
        block.instrs = new_instrs
    if changed:
        cfg.to_function()
    return changed


def _coalesce_iv_updates(fir: FuncIR) -> bool:
    """Merge the rotated-loop IV pattern even when the temp stays live.

    IR generation of a rotated loop leaves::

        add t, v, 1
        mov v, t
        ...
        blt t, N, body     ; t used after the copy

    ``t`` cannot be dead-copy-coalesced because of the later use, but
    when ``t`` has exactly one definition and every use of ``t`` is
    dominated by the pair, ``t`` and ``v`` hold equal values at all those
    uses, so the pair collapses to ``add v, v, 1`` with uses of ``t``
    renamed to ``v``.  This restores the ``v = v + c`` shape induction-
    variable strength reduction needs.
    """
    cfg = fir.cfg()
    defs: dict = {}
    use_blocks: dict = {}
    for block in cfg.blocks:
        for inst in block.instrs:
            if inst.dest is not None and inst.dest.virtual:
                defs.setdefault(inst.dest.key, []).append(inst)
            for src in inst.srcs:
                if isinstance(src, Reg) and src.virtual:
                    use_blocks.setdefault(src.key, []).append(
                        (block.index, inst)
                    )

    dom = None
    changed = False
    for block in cfg.blocks:
        instrs = block.instrs
        for i in range(len(instrs) - 1):
            first, second = instrs[i], instrs[i + 1]
            if not (
                first.opcode in INT_ALU_OPS
                and first.opcode not in (Opcode.MOV,)
                and first.dest is not None
                and first.dest.virtual
                and second.opcode is Opcode.MOV
                and second.dest is not None
                and second.dest.virtual
                and len(second.srcs) == 1
                and isinstance(second.srcs[0], Reg)
                and second.srcs[0].key == first.dest.key
                and second.dest.key != first.dest.key
            ):
                continue
            t_key = first.dest.key
            v_key = second.dest.key
            if len(defs.get(t_key, ())) != 1:
                continue
            if dom is None:
                dom = fir.dominators()

            # Soundness part 1: every use of t (other than the copy) is
            # dominated by the pair — in-block uses after the pair, or
            # uses in blocks dominated by this block.  Any path to such a
            # use re-executes the pair, which re-syncs v == t.
            ok = True
            for use_block, use_inst in use_blocks.get(t_key, ()):
                if use_inst is second:
                    continue
                if use_block == block.index:
                    try:
                        pos = next(
                            k
                            for k, inst in enumerate(instrs)
                            if inst is use_inst
                        )
                    except StopIteration:
                        ok = False
                        break
                    if pos <= i + 1:
                        ok = False
                        break
                elif block.index not in dom.get(use_block, ()):
                    ok = False
                    break
            if not ok:
                continue

            # Soundness part 2: every OTHER definition of v must live in
            # a strict dominator of this block (initialization code).  A
            # def of v in this block after the pair, in a dominated
            # block, or in an unrelated block could change v between the
            # pair and a use of t without re-executing the pair.
            for v_def in defs.get(v_key, ()):
                if v_def is second:
                    continue
                v_def_block = None
                for candidate in cfg.blocks:
                    if any(inst is v_def for inst in candidate.instrs):
                        v_def_block = candidate.index
                        break
                if (
                    v_def_block is None
                    or v_def_block == block.index
                    or v_def_block not in dom.get(block.index, ())
                ):
                    ok = False
                    break
            if not ok:
                continue
            v_reg = second.dest
            # Rewrite: add v, v?, c (first's sources stay), drop the MOV,
            # rename t's uses to v.
            first.dest = v_reg
            instrs[i + 1] = Instruction(Opcode.NOP)
            for _, use_inst in use_blocks.get(t_key, ()):
                if use_inst is second:
                    continue
                use_inst.srcs = tuple(
                    v_reg
                    if isinstance(s, Reg) and s.key == t_key
                    else s
                    for s in use_inst.srcs
                )
            changed = True
    if changed:
        cfg.to_function()
    return changed
