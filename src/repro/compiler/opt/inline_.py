"""Function inlining at the IR level.

Inlining happens before every other pass, on the naive IR, which makes
the mechanics simple and position-independent:

* the caller's argument-register moves (``MOV r2, ...``) stay in place;
* the callee body is cloned with renamed virtual registers and labels;
  its entry parameter stores read the argument registers exactly as the
  out-of-line version would;
* the callee's frame slots are appended to the caller's frame and every
  ``sp + offset`` access in the clone is shifted accordingly;
* the clone's final RET disappears (control falls through to the
  instruction after the former CALL), and the caller's ``MOV vd, r1``
  result copy still reads the value the clone left in ``r1``.

Self-recursive functions are never inlined; callee size and caller
growth are bounded.  The paper leans on inlining to "remove frequently
executed function calls in the loop" so that loads can be classified in
loop context.
"""

from __future__ import annotations

from typing import Dict, List

from repro.compiler.ir import FrameSlot, FuncIR, ModuleIR
from repro.isa.instruction import Imm, Instruction, Reg
from repro.isa.opcodes import Opcode
from repro.isa.program import Function, Label
from repro.isa.registers import SP

#: Callees at or below this instruction count are inline candidates.
DEFAULT_CALLEE_LIMIT = 60
#: Stop growing a caller beyond this many instructions.
DEFAULT_CALLER_LIMIT = 4000


def inline_functions(
    module: ModuleIR,
    callee_limit: int = DEFAULT_CALLEE_LIMIT,
    caller_limit: int = DEFAULT_CALLER_LIMIT,
    rounds: int = 3,
) -> bool:
    """Inline eligible call sites across the module; returns changed."""
    changed = False
    for _ in range(rounds):
        round_changed = False
        for fir in module.funcs.values():
            if _inline_into(module, fir, callee_limit, caller_limit):
                round_changed = True
        if not round_changed:
            break
        changed = True
    return changed


def _size(func: Function) -> int:
    return sum(1 for _ in func.instructions())


def _is_self_recursive(fir: FuncIR) -> bool:
    return any(
        inst.opcode is Opcode.CALL and inst.target == fir.func.name
        for inst in fir.func.instructions()
    )


def _inline_into(
    module: ModuleIR, caller: FuncIR, callee_limit: int, caller_limit: int
) -> bool:
    changed = False
    body = caller.func.body
    i = 0
    counter = 0
    while i < len(body):
        item = body[i]
        if (
            isinstance(item, Instruction)
            and item.opcode is Opcode.CALL
            and item.target in module.funcs
        ):
            callee = module.funcs[item.target]
            if (
                callee.func.name != caller.func.name
                and _size(callee.func) <= callee_limit
                and not _is_self_recursive(callee)
                and _size(caller.func) <= caller_limit
            ):
                counter += 1
                clone = _clone_body(caller, callee, counter)
                body[i : i + 1] = clone
                caller.has_calls = caller.has_calls or callee.has_calls
                changed = True
                i += len(clone)
                continue
        i += 1
    return changed


def _clone_body(caller: FuncIR, callee: FuncIR, counter: int) -> List:
    """Clone the callee body for splicing into the caller."""
    prefix = f"{caller.func.name}__in{counter}_"
    label_map: Dict[str, str] = {}
    vreg_map: Dict[tuple, Reg] = {}

    # Merge frame slots: shift the callee's offsets above caller locals.
    shift = (caller.local_size + 7) & ~7
    new_local_size = shift
    for slot in callee.slots:
        clone_slot = FrameSlot(
            prefix + slot.name,
            shift + slot.offset,
            slot.size,
            slot.promotable,
            slot.is_double,
        )
        caller.slots.append(clone_slot)
        new_local_size = max(
            new_local_size, clone_slot.offset + clone_slot.size
        )
    caller.local_size = max(caller.local_size, new_local_size)

    def map_reg(reg: Reg) -> Reg:
        if not reg.virtual:
            return reg
        mapped = vreg_map.get(reg.key)
        if mapped is None:
            mapped = Reg(caller.new_vreg_index(), reg.bank, virtual=True)
            vreg_map[reg.key] = mapped
        return mapped

    def map_operand(operand):
        if isinstance(operand, Reg):
            return map_reg(operand)
        return operand

    out: List = []
    for item in callee.func.body:
        if isinstance(item, Label):
            new_name = label_map.setdefault(item.name, prefix + item.name)
            out.append(Label(new_name))
            continue
        inst = item
        if inst.opcode is Opcode.RET:
            # Fall through to the caller.  The callee has exactly one
            # RET (at its exit label), so nothing follows it.
            continue
        new_srcs = [map_operand(s) for s in inst.srcs]
        # Shift sp-relative frame accesses (loads, stores, and the
        # ADD-of-sp address materializations for address-taken locals).
        if shift:
            if inst.is_load or inst.is_store:
                base = inst.mem_base
                if not base.virtual and base.bank == "int" and base.index == SP:
                    disp_index = 1 if inst.is_load else 2
                    disp = new_srcs[disp_index]
                    if isinstance(disp, Imm):
                        new_srcs[disp_index] = Imm(disp.value + shift)
            elif inst.opcode is Opcode.ADD and len(new_srcs) == 2:
                base, disp = new_srcs
                if (
                    isinstance(base, Reg)
                    and not base.virtual
                    and base.bank == "int"
                    and base.index == SP
                    and isinstance(disp, Imm)
                ):
                    new_srcs[1] = Imm(disp.value + shift)
        new_target = None
        if inst.target is not None:
            if inst.opcode is Opcode.CALL:
                new_target = inst.target  # function names are global
            else:
                new_target = label_map.setdefault(
                    inst.target, prefix + inst.target
                )
        new_dest = map_reg(inst.dest) if inst.dest is not None else None
        out.append(
            Instruction(inst.opcode, new_dest, new_srcs, new_target, inst.lspec)
        )
    return out
