"""The paper's load-classification heuristics (Section 4).

Runs on register-allocated code and rewrites each load's scheme
specifier (:class:`~repro.isa.opcodes.LoadSpec`):

**Cyclic code** (Section 4.1) — loops are analyzed innermost-first:

1. ``S_load`` starts as the destination registers of every load in the
   loop.
2. Arithmetic instructions whose sources intersect ``S_load`` add their
   destinations, to a fixed point.  ``S_load`` now holds the registers
   whose contents were loaded from memory or derived from loaded values.
3. Loads whose base (or index) register is in ``S_load`` are
   *load-dependent*; the rest are *arithmetic-dependent* and get
   ``ld_p``.  Load-dependent loads using register+register addressing
   get ``ld_n``.  The remaining load-dependent loads are grouped by base
   register; the largest group gets ``ld_e`` (it wins the single
   ``R_addr``), the rest get ``ld_n``.

**Acyclic code** (Section 4.2) — loads outside every loop:

* loads from absolute locations get ``ld_p``;
* the rest are grouped by base register; the largest group gets
  ``ld_e``, the remaining loads ``ld_n``.

Loads classified by an inner loop are not reclassified by enclosing
loops.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.compiler.cfg import CFG
from repro.compiler.ir import FuncIR
from repro.compiler.loops import find_loops
from repro.isa.instruction import Instruction, Reg
from repro.isa.opcodes import ARITHMETIC_OPS, LoadSpec
from repro.isa.program import Function, Program

RegKey = Tuple[str, int, bool]


def compute_s_load(instrs: List[Instruction]) -> Set[RegKey]:
    """The S_load fixed point over a region's instructions."""
    s_load: Set[RegKey] = set()
    for inst in instrs:
        if inst.is_load and inst.dest is not None:
            s_load.add(inst.dest.key)
    changed = True
    while changed:
        changed = False
        for inst in instrs:
            if inst.opcode not in ARITHMETIC_OPS or inst.dest is None:
                continue
            if inst.dest.key in s_load:
                continue
            for src in inst.srcs:
                if isinstance(src, Reg) and src.key in s_load:
                    s_load.add(inst.dest.key)
                    changed = True
                    break
    return s_load


def _is_load_dependent(inst: Instruction, s_load: Set[RegKey]) -> bool:
    """Base *or* index register derived from a load (Figure 4's op3)."""
    if inst.mem_base.key in s_load:
        return True
    disp = inst.mem_disp
    return isinstance(disp, Reg) and disp.key in s_load


def _assign_groups(
    loads: List[Instruction], classified: Set[int]
) -> None:
    """Group reg+offset loads by base register; largest group -> ld_e."""
    groups: Dict[RegKey, List[Instruction]] = {}
    for inst in loads:
        groups.setdefault(inst.mem_base.key, []).append(inst)
    if not groups:
        return
    winner = max(groups, key=lambda key: (len(groups[key]), key))
    for key, members in groups.items():
        spec = LoadSpec.E if key == winner else LoadSpec.N
        for inst in members:
            inst.lspec = spec
            classified.add(id(inst))


def classify_function(func: Function) -> None:
    """Classify every load in *func* in place."""
    cfg = CFG(func)
    loops = find_loops(cfg)
    classified: Set[int] = set()

    for loop in loops:
        instrs = [
            inst
            for index in sorted(loop.blocks)
            for inst in cfg.blocks[index].instrs
        ]
        s_load = compute_s_load(instrs)
        pending_groups: List[Instruction] = []
        for inst in instrs:
            if not inst.is_load or id(inst) in classified:
                continue
            if not _is_load_dependent(inst, s_load):
                inst.lspec = LoadSpec.P
                classified.add(id(inst))
            elif not inst.is_reg_offset:
                inst.lspec = LoadSpec.N
                classified.add(id(inst))
            else:
                pending_groups.append(inst)
        _assign_groups(pending_groups, classified)

    # Acyclic region: every load not classified by a loop.
    acyclic_pending: List[Instruction] = []
    for inst in func.instructions():
        if not inst.is_load or id(inst) in classified:
            continue
        if inst.is_absolute:
            inst.lspec = LoadSpec.P
            classified.add(id(inst))
        elif not inst.is_reg_offset:
            inst.lspec = LoadSpec.N
            classified.add(id(inst))
        else:
            acyclic_pending.append(inst)
    _assign_groups(acyclic_pending, classified)


def classify_program(program: Program) -> None:
    """Run the Section 4 heuristics over every function."""
    for func in program.functions.values():
        classify_function(func)


def classify_late_loads(
    func: Function, created: List[Instruction]
) -> None:
    """Classify allocator-created loads (spill reloads, restores).

    These loads did not exist when the Section 4 heuristics ran on
    virtual-register code.  They are all ``sp + offset`` accesses, so the
    heuristics degenerate to simple rules:

    * a spill reload inside a loop is arithmetic-dependent (``sp`` is
      never in S_load) with a constant address → ``ld_p``;
    * epilogue restores form an acyclic base-register group on ``sp``; if
      that group outnumbers the acyclic group that previously won
      ``ld_e``, the heuristic's largest-group rule hands ``R_addr`` to
      the restores and demotes the old winner to ``ld_n``.
    """
    if not created:
        return
    created_ids = {id(inst) for inst in created}
    cfg = CFG(func)
    cyclic_ids = set()
    for loop in find_loops(cfg):
        for index in loop.blocks:
            for inst in cfg.blocks[index].instrs:
                cyclic_ids.add(id(inst))

    acyclic_created = []
    for inst in created:
        if id(inst) in cyclic_ids:
            inst.lspec = LoadSpec.P
        else:
            acyclic_created.append(inst)
    if not acyclic_created:
        return

    old_e_group = [
        inst
        for inst in func.instructions()
        if inst.is_load
        and id(inst) not in created_ids
        and id(inst) not in cyclic_ids
        and inst.lspec is LoadSpec.E
    ]
    if len(acyclic_created) > len(old_e_group):
        for inst in acyclic_created:
            inst.lspec = LoadSpec.E
        for inst in old_e_group:
            inst.lspec = LoadSpec.N
    else:
        for inst in acyclic_created:
            inst.lspec = LoadSpec.N


def class_counts(program: Program) -> Dict[str, int]:
    """Static load counts per class: ``{"n": .., "p": .., "e": ..}``."""
    counts = {"n": 0, "p": 0, "e": 0}
    for func in program.functions.values():
        for inst in func.instructions():
            if inst.is_load:
                counts[inst.lspec.value] += 1
    return counts
