"""Linear-scan register allocation onto the 64+64 register file.

Pool layout (see :mod:`repro.isa.registers`):

* integer caller-saved pool  ``r8..r25``  — intervals not crossing a call
* integer callee-saved pool  ``r26..r57`` — intervals crossing a call
* integer spill scratch      ``r58..r61``
* fp caller-saved pool       ``f8..f31``
* fp callee-saved pool       ``f32..f59``
* fp spill scratch           ``f60..f63``

Argument registers (``r2..r7``, ``f1..f7``), return-value registers
(``r1``/``f0``), ``r0``, ``sp``, and ``ra`` are never allocated, so the
physical registers already present in the IR (argument moves, return
copies) cannot conflict with assignments.

After assignment the allocator finalizes the stack frame — locals, spill
slots, saved callee-registers, saved ``ra`` — and emits the prologue and
epilogue.  Callee-saved save/restore sequences are real loads and stores
and show up in the paper's load statistics, as they would in IMPACT
output.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.compiler.cfg import CFG
from repro.compiler.dataflow import Liveness
from repro.compiler.ir import FuncIR
from repro.isa.instruction import Imm, Instruction, Reg
from repro.isa.opcodes import Opcode
from repro.isa.program import Label
from repro.isa.registers import RA, SP

INT_CALLER_POOL = tuple(range(8, 26))
INT_CALLEE_POOL = tuple(range(26, 58))
INT_SCRATCH = (58, 59, 60, 61)
FP_CALLER_POOL = tuple(range(8, 32))
FP_CALLEE_POOL = tuple(range(32, 60))
FP_SCRATCH = (60, 61, 62, 63)

RegKey = Tuple[str, int, bool]


class RegAllocError(Exception):
    """Raised when rewriting hits an unallocatable situation."""


class _Interval:
    __slots__ = ("key", "start", "end", "crosses_call", "assigned", "spilled")

    def __init__(self, key: RegKey, start: int):
        self.key = key
        self.start = start
        self.end = start
        self.crosses_call = False
        self.assigned: Optional[int] = None
        self.spilled = False


def allocate_registers(fir: FuncIR) -> List[Instruction]:
    """Allocate, rewrite, and add the prologue/epilogue in place.

    Returns the load instructions the allocator itself created (spill
    reloads and epilogue restores) so the driver can hand them to the
    late classification pass — they did not exist when the Section 4
    heuristics ran.
    """
    created_loads: List[Instruction] = []
    cfg = CFG(fir.func)
    liveness = Liveness(cfg)

    # ---- build live intervals over linearized positions -------------------
    intervals: Dict[RegKey, _Interval] = {}
    call_positions: List[int] = []
    position = 0
    block_bounds: Dict[int, Tuple[int, int]] = {}

    def touch(key: RegKey, pos: int) -> None:
        interval = intervals.get(key)
        if interval is None:
            intervals[key] = _Interval(key, pos)
        else:
            if pos < interval.start:
                interval.start = pos
            if pos > interval.end:
                interval.end = pos

    for block in cfg.blocks:
        first = position
        for inst in block.instrs:
            if inst.opcode is Opcode.CALL:
                call_positions.append(position)
            for src in inst.srcs:
                if isinstance(src, Reg) and src.virtual:
                    touch(src.key, position)
            if inst.dest is not None and inst.dest.virtual:
                touch(inst.dest.key, position)
            position += 1
        block_bounds[block.index] = (first, position - 1 if position > first else first)

    for block in cfg.blocks:
        first, last = block_bounds[block.index]
        for key in liveness.live_out[block.index]:
            if key[2] and key in intervals:  # virtual
                if last > intervals[key].end:
                    intervals[key].end = last
        for key in liveness.live_in[block.index]:
            if key[2] and key in intervals:
                if first < intervals[key].start:
                    intervals[key].start = first

    for interval in intervals.values():
        interval.crosses_call = any(
            interval.start < p < interval.end for p in call_positions
        )

    # ---- linear scan ------------------------------------------------------
    used_callee: Set[Tuple[str, int]] = set()
    for bank, caller_pool, callee_pool in (
        ("int", INT_CALLER_POOL, INT_CALLEE_POOL),
        ("fp", FP_CALLER_POOL, FP_CALLEE_POOL),
    ):
        bank_intervals = sorted(
            (iv for iv in intervals.values() if iv.key[0] == bank),
            key=lambda iv: (iv.start, iv.end),
        )
        free_caller = list(reversed(caller_pool))
        free_callee = list(reversed(callee_pool))
        active: List[_Interval] = []

        def expire(current_start: int) -> None:
            still_active = []
            for iv in active:
                if iv.end < current_start:
                    if iv.assigned is not None:
                        if iv.assigned in caller_pool:
                            free_caller.append(iv.assigned)
                        else:
                            free_callee.append(iv.assigned)
                else:
                    still_active.append(iv)
            active[:] = still_active

        for iv in bank_intervals:
            expire(iv.start)
            register: Optional[int] = None
            if iv.crosses_call:
                if free_callee:
                    register = free_callee.pop()
            else:
                if free_caller:
                    register = free_caller.pop()
                elif free_callee:
                    register = free_callee.pop()
            if register is None:
                # Spill the furthest-ending compatible interval.
                candidates = [
                    other
                    for other in active
                    if other.assigned is not None
                    and (
                        not iv.crosses_call
                        or other.assigned in callee_pool
                    )
                ]
                victim = max(
                    candidates, key=lambda o: o.end, default=None
                )
                if victim is not None and victim.end > iv.end:
                    register = victim.assigned
                    victim.assigned = None
                    victim.spilled = True
                    active.remove(victim)
                else:
                    iv.spilled = True
                    continue
            iv.assigned = register
            if register in callee_pool:
                used_callee.add((bank, register))
            active.append(iv)

    # ---- frame layout ------------------------------------------------------
    spill_offsets: Dict[RegKey, Tuple[int, bool]] = {}
    offset = (fir.local_size + 3) & ~3
    for interval in intervals.values():
        if interval.spilled:
            is_fp = interval.key[0] == "fp"
            if is_fp:
                offset = (offset + 7) & ~7
                spill_offsets[interval.key] = (offset, True)
                offset += 8
            else:
                spill_offsets[interval.key] = (offset, False)
                offset += 4

    save_offsets: List[Tuple[str, int, int]] = []  # (bank, reg, offset)
    for bank, register in sorted(used_callee):
        if bank == "fp":
            offset = (offset + 7) & ~7
            save_offsets.append((bank, register, offset))
            offset += 8
        else:
            save_offsets.append((bank, register, offset))
            offset += 4
    ra_offset = None
    if fir.has_calls:
        ra_offset = offset
        offset += 4
    frame_size = (offset + 15) & ~15

    # ---- rewrite -----------------------------------------------------------
    phys_cache: Dict[Tuple[str, int], Reg] = {}

    def phys(bank: str, index: int) -> Reg:
        reg = phys_cache.get((bank, index))
        if reg is None:
            reg = Reg(index, bank)
            phys_cache[(bank, index)] = reg
        return reg

    sp_reg = phys("int", SP)

    new_body: List = []
    for item in fir.func.body:
        if isinstance(item, Label):
            new_body.append(item)
            continue
        inst = item
        pre: List[Instruction] = []
        post: List[Instruction] = []
        scratch_idx = {"int": 0, "fp": 0}

        def rewrite(reg: Reg, is_def: bool) -> Reg:
            if not reg.virtual:
                return reg
            interval = intervals[reg.key]
            if interval.assigned is not None:
                return phys(reg.bank, interval.assigned)
            slot_offset, is_fp = spill_offsets[reg.key]
            pool = FP_SCRATCH if is_fp else INT_SCRATCH
            index = scratch_idx[reg.bank]
            if index >= len(pool):
                raise RegAllocError("out of spill scratch registers")
            scratch_idx[reg.bank] += 1
            scratch = phys(reg.bank, pool[index])
            if is_def:
                store_op = Opcode.FST if is_fp else Opcode.ST
                post.append(
                    Instruction(
                        store_op, None, [scratch, sp_reg, Imm(slot_offset)]
                    )
                )
            else:
                load_op = Opcode.FLD if is_fp else Opcode.LD
                reload = Instruction(
                    load_op, scratch, [sp_reg, Imm(slot_offset)]
                )
                pre.append(reload)
                created_loads.append(reload)
            return scratch

        # Reuse one scratch when the same spilled vreg is read twice.
        seen_scratch: Dict[RegKey, Reg] = {}

        def rewrite_cached(reg: Reg, is_def: bool) -> Reg:
            if not reg.virtual:
                return reg
            interval = intervals[reg.key]
            if interval.assigned is not None:
                return phys(reg.bank, interval.assigned)
            if not is_def and reg.key in seen_scratch:
                return seen_scratch[reg.key]
            scratch = rewrite(reg, is_def)
            if not is_def:
                seen_scratch[reg.key] = scratch
            return scratch

        new_srcs = tuple(
            rewrite_cached(s, False) if isinstance(s, Reg) else s
            for s in inst.srcs
        )
        new_dest = (
            rewrite_cached(inst.dest, True) if inst.dest is not None else None
        )
        inst.srcs = new_srcs
        inst.dest = new_dest
        new_body.extend(pre)
        new_body.append(inst)
        new_body.extend(post)

    # ---- prologue / epilogue -----------------------------------------------
    prologue: List[Instruction] = []
    epilogue: List[Instruction] = []
    if frame_size:
        prologue.append(
            Instruction(Opcode.SUB, sp_reg, [sp_reg, Imm(frame_size)])
        )
    if ra_offset is not None:
        prologue.append(
            Instruction(
                Opcode.ST, None, [phys("int", RA), sp_reg, Imm(ra_offset)]
            )
        )
        ra_reload = Instruction(
            Opcode.LD, phys("int", RA), [sp_reg, Imm(ra_offset)]
        )
        epilogue.append(ra_reload)
        created_loads.append(ra_reload)
    for bank, register, save_offset in save_offsets:
        if bank == "fp":
            prologue.append(
                Instruction(
                    Opcode.FST, None,
                    [phys("fp", register), sp_reg, Imm(save_offset)],
                )
            )
            restore = Instruction(
                Opcode.FLD, phys("fp", register), [sp_reg, Imm(save_offset)]
            )
            epilogue.append(restore)
            created_loads.append(restore)
        else:
            prologue.append(
                Instruction(
                    Opcode.ST, None,
                    [phys("int", register), sp_reg, Imm(save_offset)],
                )
            )
            restore = Instruction(
                Opcode.LD, phys("int", register), [sp_reg, Imm(save_offset)]
            )
            epilogue.append(restore)
            created_loads.append(restore)
    if frame_size:
        epilogue.append(
            Instruction(Opcode.ADD, sp_reg, [sp_reg, Imm(frame_size)])
        )

    final_body: List = list(prologue)
    for item in new_body:
        if isinstance(item, Instruction) and item.opcode is Opcode.RET:
            final_body.extend(epilogue)
        final_body.append(item)
    fir.func.body = final_body
    return created_loads
