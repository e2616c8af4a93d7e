"""Common exception hierarchy for the reproduction.

Every failure the harness knows how to degrade gracefully derives from
:class:`ReproError`, which carries structured context (workload name,
offending optimization pass, program counter, ...) so that a failure
deep in the compile→emulate→simulate pipeline surfaces with enough
information to be actionable instead of as a bare message.

The hierarchy::

    ReproError
    ├── EmulationError          illegal execution in the functional emulator
    │   └── StepLimitExceeded   emulator hit its dynamic step budget
    ├── IRVerificationError     structural IR invariant violated after a pass
    ├── OutputMismatchError     emulated output != pure-Python reference
    └── InjectedFault           deliberately raised by the FaultInjector

:class:`~repro.sim.executor.EmulationError` is re-exported from its
historical home in ``repro.sim.executor`` so existing imports keep
working.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for all reproduction failures.

    Keyword arguments become structured context rendered into the
    message, e.g. ``ReproError("boom", workload="132.ijpeg", pc=17)``
    stringifies as ``boom [pc=17, workload=132.ijpeg]``.
    """

    def __init__(self, message: str = "", **context: Any):
        super().__init__(message)
        self.message = message
        self.context: Dict[str, Any] = {
            key: value for key, value in context.items() if value is not None
        }

    def add_context(self, **context: Any) -> "ReproError":
        """Attach more context in place (later callers know more)."""
        for key, value in context.items():
            if value is not None and key not in self.context:
                self.context[key] = value
        return self

    @property
    def workload(self) -> Optional[str]:
        return self.context.get("workload")

    @property
    def pass_name(self) -> Optional[str]:
        return self.context.get("pass_name")

    @property
    def pc(self) -> Optional[int]:
        return self.context.get("pc")

    def __str__(self) -> str:
        if not self.context:
            return self.message
        rendered = ", ".join(
            f"{key}={value}" for key, value in sorted(self.context.items())
        )
        return f"{self.message} [{rendered}]"


class EmulationError(ReproError):
    """Raised on illegal execution (bad register, div-by-zero, runaway)."""


class StepLimitExceeded(EmulationError):
    """The functional emulator hit its dynamic step budget.

    Carries the budget, the last program counter (flat instruction
    index), and the number of steps actually executed, so callers can
    distinguish a genuinely runaway program from a budget that is simply
    too small for the workload scale.
    """

    def __init__(self, limit: int, last_pc: int, steps: int, **context: Any):
        super().__init__(
            f"step limit exceeded ({limit})",
            pc=last_pc,
            steps=steps,
            **context,
        )
        self.limit = limit
        self.last_pc = last_pc
        self.steps = steps


class IRVerificationError(ReproError):
    """A structural IR invariant does not hold.

    Raised by :mod:`repro.compiler.verify`; when the driver runs the
    verifier between optimization passes, ``pass_name`` names the pass
    whose output first violated the invariant.
    """

    def __init__(self, message: str, *, func: Optional[str] = None,
                 pass_name: Optional[str] = None, **context: Any):
        super().__init__(message, func=func, pass_name=pass_name, **context)
        self.func = func

    @property
    def func_name(self) -> Optional[str]:
        return self.context.get("func")


class OutputMismatchError(ReproError):
    """Emulated output diverged from the pure-Python reference."""


class InjectedFault(ReproError):
    """Deliberate failure raised by the test-only fault injector."""
