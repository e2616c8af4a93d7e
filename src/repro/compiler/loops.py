"""Natural-loop detection and nesting.

A back edge ``n -> h`` (where ``h`` dominates ``n``) defines a natural
loop: ``h`` plus every block that can reach ``n`` without passing through
``h``.  Loops sharing a header are merged.  :func:`find_loops` returns
loops sorted innermost-first, which is the order the paper's cyclic
classification heuristics require ("nested loops are sorted and inner
loops are analyzed first").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.compiler.cfg import CFG
from repro.compiler.dominators import dominators


class Loop:
    """One natural loop."""

    __slots__ = ("header", "blocks", "parent", "depth")

    def __init__(self, header: int, blocks: Set[int]):
        self.header = header
        self.blocks = blocks
        #: Innermost enclosing loop, set by :func:`find_loops`.
        self.parent: Optional["Loop"] = None
        self.depth = 1

    def __contains__(self, block_index: int) -> bool:
        return block_index in self.blocks

    def __repr__(self) -> str:
        return f"Loop(header=BB{self.header}, blocks={sorted(self.blocks)})"


def find_loops(
    cfg: CFG, dom: Optional[Dict[int, Set[int]]] = None
) -> List[Loop]:
    """All natural loops of *cfg*, innermost first.

    *dom* is :func:`dominators` of *cfg*, computed here when omitted.
    """
    if dom is None:
        dom = dominators(cfg)
    reach = set(cfg.reachable())

    merged: Dict[int, Set[int]] = {}
    for block in cfg.blocks:
        if block.index not in reach:
            continue
        for succ in block.succs:
            if succ in dom.get(block.index, ()):  # back edge -> succ is header
                body = _natural_loop(cfg, succ, block.index)
                merged.setdefault(succ, set()).update(body)

    loops = [Loop(header, blocks) for header, blocks in merged.items()]
    # Nesting: loop A is inside loop B if A's blocks are a subset of B's.
    for loop in loops:
        candidates = [
            other
            for other in loops
            if other is not loop
            and loop.blocks < other.blocks
        ]
        if candidates:
            loop.parent = min(candidates, key=lambda o: len(o.blocks))
    for loop in loops:
        depth = 1
        parent = loop.parent
        while parent is not None:
            depth += 1
            parent = parent.parent
        loop.depth = depth
    loops.sort(key=lambda lp: (len(lp.blocks), -lp.depth))
    return loops


def _natural_loop(cfg: CFG, header: int, tail: int) -> Set[int]:
    body = {header, tail}
    stack = [tail]
    while stack:
        index = stack.pop()
        if index == header:
            continue
        for pred in cfg.blocks[index].preds:
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body

