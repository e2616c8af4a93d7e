"""Compile-unit containers shared by the compiler passes.

The IR is the machine ISA with virtual registers
(:class:`repro.isa.instruction.Reg` with ``virtual=True``).  A
:class:`ModuleIR` bundles the :class:`~repro.isa.program.Program` under
construction with per-function bookkeeping that the passes and the
register allocator need (frame slots, virtual-register counters).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.compiler.cfg import CFG
from repro.compiler.dataflow import Liveness
from repro.compiler.dominators import dominators
from repro.compiler.loops import Loop, find_loops
from repro.isa.program import Function, Program


class FrameSlot:
    """One stack-frame slot of a function."""

    __slots__ = ("name", "offset", "size", "promotable", "is_double")

    def __init__(self, name: str, offset: int, size: int,
                 promotable: bool, is_double: bool = False):
        self.name = name
        self.offset = offset
        self.size = size
        #: True for scalar locals that are never address-taken; the
        #: mem2reg pass rewrites their loads/stores to register moves
        #: (the paper's "virtual register allocation").
        self.promotable = promotable
        self.is_double = is_double

    def __repr__(self) -> str:
        flag = " promotable" if self.promotable else ""
        return f"FrameSlot({self.name}@{self.offset}, {self.size}B{flag})"


class FuncIR:
    """A function plus its compile-time metadata.

    It also caches the analyses the passes share: :meth:`cfg`,
    :meth:`liveness`, :meth:`dominators` and :meth:`loops` are each
    built on first use.  The cache holds only while ``func.body`` is
    the list object it was built from, so a pass that rebuilds the body
    (:meth:`CFG.to_function`) invalidates it.  A pass that edits
    instructions in place must report ``changed``; the driver then
    calls :meth:`invalidate`.
    """

    def __init__(self, func: Function):
        self.func = func
        self.slots: List[FrameSlot] = []
        #: Bytes of locals (before spill/save areas are appended).
        self.local_size = 0
        self.next_vreg = 1
        self.has_calls = False
        #: Names of the passes that returned ``changed=False`` since
        #: the IR last changed (maintained by the driver).
        self.clean_passes: Set[str] = set()
        #: Per-hint counters behind :meth:`fresh_label`; shared by all
        #: functions of a module (see :meth:`ModuleIR.add`).
        self.label_counts: Dict[str, int] = {}
        self._analyses: Dict[str, object] = {}
        self._analyses_body: Optional[list] = None

    def slot_by_offset(self, offset: int) -> Optional[FrameSlot]:
        for slot in self.slots:
            if slot.offset == offset:
                return slot
        return None

    def new_vreg_index(self) -> int:
        index = self.next_vreg
        self.next_vreg += 1
        return index

    def fresh_label(self, hint: str) -> str:
        """A new label ``<func>__<hint><n>``, numbered per compile unit."""
        n = self.label_counts.get(hint, 0) + 1
        self.label_counts[hint] = n
        return f"{self.func.name}__{hint}{n}"

    # -- analysis cache ----------------------------------------------------

    def invalidate(self) -> None:
        """Forget the cached analyses and the clean passes: the IR changed."""
        self._analyses = {}
        self._analyses_body = None
        self.clean_passes.clear()

    def _cached(self, kind: str, build):
        if self._analyses_body is not self.func.body:
            self._analyses = {}
            self._analyses_body = self.func.body
        value = self._analyses.get(kind)
        if value is None:
            value = self._analyses[kind] = build()
        return value

    def cfg(self) -> CFG:
        return self._cached("cfg", lambda: CFG(self.func))

    def liveness(self) -> Liveness:
        return self._cached("liveness", lambda: Liveness(self.cfg()))

    def dominators(self) -> Dict[int, Set[int]]:
        return self._cached("dominators", lambda: dominators(self.cfg()))

    def loops(self) -> List[Loop]:
        return self._cached(
            "loops", lambda: find_loops(self.cfg(), self.dominators())
        )


class ModuleIR:
    """The whole compile unit in virtual-register form."""

    def __init__(self, program: Program):
        self.program = program
        self.funcs: Dict[str, FuncIR] = {}
        #: Label counters behind every function's :meth:`FuncIR.fresh_label`.
        self.label_counts: Dict[str, int] = {}

    def add(self, fir: FuncIR) -> FuncIR:
        fir.label_counts = self.label_counts
        self.program.add_function(fir.func)
        self.funcs[fir.func.name] = fir
        return fir
