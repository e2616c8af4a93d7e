"""Deterministic fault injection for the robustness layer.

The :class:`FaultInjector` makes a chosen workload crash, hang, corrupt
its IR mid-compilation, or corrupt its emulated output — so the
runner's timeout and degradation machinery, the result-store resume and
the IR verifier can be exercised end to end, from unit tests and from
the CLI (``--inject WORKLOAD=MODE``).

Supported modes:

==================  ====================================================
``crash``           raise :class:`~repro.errors.InjectedFault` when the
                    workload's task starts
``hang``            block when the workload's task starts until the
                    runner's deadline kills the worker running it
                    (exercises the wall-clock timeout; needs one)
``corrupt-ir``      corrupt the virtual-register IR after a chosen
                    optimization pass (default ``constant_propagation``;
                    ``corrupt-ir:PASSNAME`` picks another) so the IR
                    verifier must catch it and name that pass
``corrupt-output``  append a bogus value to the emulated OUT stream so
                    reference verification fails
==================  ====================================================
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.errors import InjectedFault
from repro.isa.instruction import Imm, Instruction, Reg
from repro.isa.opcodes import Opcode

#: Pass corrupted by default; it runs at every opt level >= 1.
DEFAULT_CORRUPT_PASS = "constant_propagation"

#: Virtual-register index used for the deliberately-undefined operand;
#: far above anything the IR generator allocates.
_BOGUS_VREG = 0x6_0000

_MODES = ("crash", "hang", "corrupt-ir", "corrupt-output")


class _Fault:
    """Parsed injection spec for one workload."""

    __slots__ = ("mode", "arg", "fired")

    def __init__(self, mode: str, arg: Optional[str] = None):
        self.mode = mode
        self.arg = arg
        self.fired = False


class FaultInjector:
    """Holds per-workload fault specs and applies them on demand.

    The harness context carries one injector into every worker; it is
    inert for workloads without a spec, so production runs simply pass
    ``None`` (or an empty injector) and take no hooks.
    """

    def __init__(self) -> None:
        self._faults: Dict[str, _Fault] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, entries: List[str]) -> "FaultInjector":
        """Build an injector from CLI ``WORKLOAD=MODE`` entries."""
        injector = cls()
        for entry in entries:
            name, sep, mode = entry.partition("=")
            if not sep or not name or not mode:
                raise ValueError(
                    f"bad --inject entry {entry!r}; expected "
                    "WORKLOAD=MODE"
                )
            injector.add(name, mode)
        return injector

    def add(self, workload: str, mode: str) -> "FaultInjector":
        base, _, arg = mode.partition(":")
        if base not in _MODES:
            raise ValueError(
                f"unknown fault mode {mode!r}; known: {', '.join(_MODES)}"
            )
        self._faults[workload] = _Fault(base, arg or None)
        return self

    def __bool__(self) -> bool:
        return bool(self._faults)

    def mode(self, workload: str) -> Optional[str]:
        fault = self._faults.get(workload)
        return fault.mode if fault else None

    # -- task-start faults ------------------------------------------------

    def fire(self, workload: str) -> None:
        """The start hook of *workload*'s task: raises for ``crash``
        and blocks for ``hang``."""
        fault = self._faults.get(workload)
        if fault is None:
            return
        if fault.mode == "crash":
            raise InjectedFault(
                "injected crash", workload=workload
            )
        if fault.mode == "hang":
            while True:  # until the runner's deadline kills the worker
                time.sleep(3600)

    # -- compile-time faults ----------------------------------------------

    def post_pass_hook(self, workload: str):
        """Driver hook corrupting the IR after the configured pass.

        Returns ``None`` when *workload* has no ``corrupt-ir`` fault, so
        unaffected compilations take no per-pass overhead.
        """
        fault = self._faults.get(workload)
        if fault is None or fault.mode != "corrupt-ir":
            return None
        target = fault.arg or DEFAULT_CORRUPT_PASS

        def hook(pass_name: str, fir) -> None:
            if fault.fired or pass_name != target:
                return
            fault.fired = True
            # Use an undefined virtual register: a def-before-use
            # violation the verifier must pin on `target`.
            fir.func.body.insert(
                0,
                Instruction(
                    Opcode.ADD,
                    Reg(_BOGUS_VREG + 1, virtual=True),
                    [Reg(_BOGUS_VREG, virtual=True), Imm(1)],
                ),
            )

        return hook

    # -- emulation-time faults --------------------------------------------

    def corrupt_output(self, workload: str, output: List[int]) -> List[int]:
        """Return *output*, corrupted if so configured."""
        fault = self._faults.get(workload)
        if fault is None or fault.mode != "corrupt-output":
            return output
        return list(output) + [0xBAD]
