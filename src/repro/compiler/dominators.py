"""Dominator computation (iterative bit-set algorithm)."""

from __future__ import annotations

from typing import Dict, Set

from repro.compiler.cfg import CFG


def dominators(cfg: CFG) -> Dict[int, Set[int]]:
    """``dom[b]`` = set of blocks dominating *b* (including itself).

    Unreachable blocks get an empty dominator set.
    """
    reachable = cfg.reachable()
    reach_set = set(reachable)
    all_blocks = set(reachable)
    dom: Dict[int, Set[int]] = {
        b.index: set() for b in cfg.blocks
    }
    dom[0] = {0}
    for index in reachable:
        if index != 0:
            dom[index] = set(all_blocks)

    changed = True
    while changed:
        changed = False
        for index in reachable:
            if index == 0:
                continue
            preds = [p for p in cfg.blocks[index].preds if p in reach_set]
            if preds:
                new = set.intersection(*(dom[p] for p in preds))
            else:
                new = set()
            new.add(index)
            if new != dom[index]:
                dom[index] = new
                changed = True
    return dom


def immediate_dominators(cfg: CFG) -> Dict[int, int]:
    """``idom[b]`` for every reachable block except the entry."""
    dom = dominators(cfg)
    idom: Dict[int, int] = {}
    for index, dominator_set in dom.items():
        if index == 0 or not dominator_set:
            continue
        strict = dominator_set - {index}
        # The immediate dominator is the strict dominator dominated by
        # every other strict dominator.
        for candidate in strict:
            if all(candidate in dom[other] for other in strict):
                idom[index] = candidate
                break
    return idom
