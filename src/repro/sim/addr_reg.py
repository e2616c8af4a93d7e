"""Cached base registers for the early address calculation path.

Two variants are modeled:

* :class:`RAddr` — the paper's single special addressing register.  The
  binding between ``R_addr`` and a general-purpose register is set up by
  each ``ld_e`` instruction: at decode, the load's base register content
  is cached.  A load can use the early-calculated address only when the
  binding *already* matches its base register (a load that just switched
  the binding reads a stale value — the paper's "the binding has just
  been switched by the current load" hazard).

* :class:`RegisterCache` — a BRIC-style cache of N base registers with
  LRU replacement, modeling the hardware-only early calculation schemes
  of Figure 5b (4–16 cached registers with register write multicasting).

Both track *which* registers are cached, not their values: the timing
model separately checks that the register's latest value has been
written back by ID1 (the ``R_addr`` interlock), and the functional trace
supplies the true effective address.  Neither keeps statistics: the
timing model counts the outcomes it charges.
"""

from __future__ import annotations

from typing import Optional


class RAddr:
    """The single compiler-directed special addressing register."""

    __slots__ = ("bound",)

    def __init__(self):
        #: Register index currently bound, or None.
        self.bound: Optional[int] = None

    def probe(self, base_reg: int) -> bool:
        """True if ``R_addr`` is currently bound to *base_reg*."""
        return self.bound == base_reg

    def bind(self, base_reg: int) -> None:
        """Cache *base_reg*'s content (performed by every ``ld_e``)."""
        self.bound = base_reg


class RegisterCache:
    """A BRIC-style LRU cache of N base register identities.

    ``regs`` lists the cached registers from least to most recently
    used.  BRIC caches 1–16 registers, so a list scan is the cheapest
    lookup.  :meth:`touch` is the one LRU rule: the timing model's
    probes and inserts go through it, and so does the calc-path stream
    builder of :mod:`repro.sim.precompute`.
    """

    __slots__ = ("capacity", "regs")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("register cache capacity must be positive")
        self.capacity = capacity
        self.regs: list = []

    def touch(self, reg: int) -> bool:
        """Make *reg* the most recently used entry; returns whether it
        was cached.  An uncached *reg* is inserted, evicting the least
        recently used entry if the cache is full."""
        regs = self.regs
        if reg in regs:
            if regs[-1] != reg:
                regs.remove(reg)
                regs.append(reg)
            return True
        if len(regs) >= self.capacity:
            del regs[0]
        regs.append(reg)
        return False

    def probe(self, reg: int) -> bool:
        """True if *reg* is cached; refreshes its LRU position."""
        if reg in self.regs:
            self.touch(reg)
            return True
        return False

    def insert(self, reg: int) -> None:
        """Cache *reg*, evicting the least recently used entry if full."""
        self.touch(reg)

    def __contains__(self, reg: int) -> bool:
        return reg in self.regs

    def __len__(self) -> int:
        return len(self.regs)
