"""Deterministic fault injection for the robustness layer.

The :class:`FaultInjector` makes a chosen workload crash, hang, fail
transiently, corrupt its IR mid-compilation, or corrupt its emulated
output — so the runner's timeout/retry/degradation machinery and the IR
verifier can be exercised end to end, from unit tests and from the CLI
(``--inject WORKLOAD=MODE``).

Supported modes:

==================  ====================================================
``crash``           raise :class:`~repro.errors.InjectedFault` at the
                    start of every attempt (a deterministic failure)
``flaky:N``         raise on the first *N* attempts, then succeed
                    (a transient failure; exercises retry/backoff)
``hang``            block at the start of the attempt until the
                    injector's ``stop_event`` is set (exercises the
                    wall-clock timeout; the runner sets the event when
                    it gives up on the attempt)
``corrupt-ir``      corrupt the virtual-register IR after a chosen
                    optimization pass (default ``constant_propagation``;
                    ``corrupt-ir:PASSNAME`` picks another) so the IR
                    verifier must catch it and name that pass
``corrupt-output``  append a bogus value to the emulated OUT stream so
                    reference verification fails
==================  ====================================================
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.errors import InjectedFault
from repro.isa.instruction import Imm, Instruction, Reg
from repro.isa.opcodes import Opcode

#: Pass corrupted by default; it runs at every opt level >= 1.
DEFAULT_CORRUPT_PASS = "constant_propagation"

#: Virtual-register index used for the deliberately-undefined operand;
#: far above anything the IR generator allocates.
_BOGUS_VREG = 0x6_0000

_MODES = ("crash", "flaky", "hang", "corrupt-ir", "corrupt-output")


class _Fault:
    """Parsed injection spec for one workload."""

    __slots__ = ("mode", "arg", "fired")

    def __init__(self, mode: str, arg: Optional[str] = None):
        self.mode = mode
        self.arg = arg
        self.fired = False


class FaultInjector:
    """Holds per-workload fault specs and applies them on demand.

    One injector is shared by the harness context and the runner; it is
    inert for workloads without a spec, so production runs simply pass
    ``None`` (or an empty injector) and take no hooks.
    """

    def __init__(self) -> None:
        self._faults: Dict[str, _Fault] = {}
        self._attempts: Dict[str, int] = {}
        #: Set by the runner when it abandons a timed-out attempt, so a
        #: ``hang`` loop exits instead of leaking a spinning thread.
        self.stop_event = threading.Event()

    def __getstate__(self) -> dict:
        # The injector crosses process boundaries when attempts run in
        # worker processes.  ``threading.Event`` does not pickle; each
        # process gets its own event (a hanging child is killed by the
        # parent's deadline, not released through the event).
        state = self.__dict__.copy()
        state["stop_event"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.stop_event = threading.Event()

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
        if base == "flaky":
            times = int(arg) if arg else 1
            if times < 1:
                raise ValueError("flaky:N requires N >= 1")
            self._faults[workload] = _Fault(base, str(times))
        else:
            self._faults[workload] = _Fault(base, arg or None)
        return self

    def __bool__(self) -> bool:
        return bool(self._faults)

    def mode(self, workload: str) -> Optional[str]:
        fault = self._faults.get(workload)
        return fault.mode if fault else None

    # -- attempt-start faults ---------------------------------------------

    def fire(self, workload: str, attempt: Optional[int] = None) -> None:
        """Apply crash/flaky/hang faults at the start of an attempt.

        ``attempt`` is the 1-based attempt number.  When omitted the
        injector counts attempts itself (the original in-process
        behavior); callers that run attempts in worker processes must
        pass it explicitly, because a child's copy of the injector
        cannot advance the parent's counters.
        """
        fault = self._faults.get(workload)
        if fault is None:
            return
        if fault.mode == "crash":
            raise InjectedFault(
                "injected crash", workload=workload
            )
        if fault.mode == "flaky":
            if attempt is None:
                attempt = self._attempts.get(workload, 0) + 1
                self._attempts[workload] = attempt
            if attempt <= int(fault.arg):
                raise InjectedFault(
                    f"injected transient failure (attempt {attempt})",
                    workload=workload,
                )
        elif fault.mode == "hang":
            # Block until the runner abandons the attempt; a daemon
            # worker thread parks here instead of spinning, then dies.
            self.stop_event.wait()
            raise InjectedFault("injected hang", workload=workload)

    def prime(self, workload: str, attempt: int) -> None:
        """Restore attempt-dependent state in a fresh process copy.

        ``corrupt-ir`` fires once: the first attempt that reaches the
        target pass corrupts it and sets ``fired``, so in-process
        retries recompile cleanly.  A retry running in a new worker
        process starts from an unfired copy; priming with the attempt
        number reproduces the sticky flag.
        """
        fault = self._faults.get(workload)
        if fault is not None and fault.mode == "corrupt-ir":
            fault.fired = attempt > 1

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
