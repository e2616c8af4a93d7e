"""Statistics collected by one timing-simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class SimStats:
    """Cycle counts and early-address-generation event counters."""

    cycles: int = 0
    instructions: int = 0

    loads: int = 0
    stores: int = 0

    # Prediction path.
    pred_loads: int = 0  # dynamic loads routed to the prediction path
    pred_spec_dispatched: int = 0  # speculative accesses issued in ID2
    pred_success: int = 0  # loads whose latency dropped to 1 cycle
    pred_wrong_address: int = 0  # dispatched but PA != CA

    # Early calculation path.
    calc_loads: int = 0  # dynamic loads routed to the calc path
    calc_spec_dispatched: int = 0
    calc_success: int = 0  # loads whose latency dropped to 0 cycles
    calc_success_partial: int = 0  # reg+reg BRIC hits (latency 1)

    # Shared speculation blockers.
    spec_no_port: int = 0
    spec_mem_interlock: int = 0
    spec_dcache_miss: int = 0

    dcache_hits: int = 0
    dcache_misses: int = 0
    icache_misses: int = 0
    btb_mispredicts: int = 0

    #: Dynamic load count per scheme actually applied, keyed "n"/"p"/"e".
    scheme_counts: Dict[str, int] = field(default_factory=dict)

    #: Per-dynamic-instruction ``(uid, issue_cycle, note)`` records; only
    #: populated when the simulator ran with ``collect_timeline=True``.
    timeline: Optional[list] = None

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def summary(self) -> str:
        lines = [
            f"cycles             {self.cycles}",
            f"instructions       {self.instructions}",
            f"IPC                {self.ipc:.3f}",
            f"loads/stores       {self.loads}/{self.stores}",
            f"dcache hit rate    "
            f"{self.dcache_hits / max(1, self.dcache_hits + self.dcache_misses):.3f}",
            f"btb mispredicts    {self.btb_mispredicts}",
        ]
        if self.pred_loads:
            lines.append(
                f"predict path       {self.pred_loads} loads, "
                f"{self.pred_spec_dispatched} dispatched, "
                f"{self.pred_success} hits"
            )
        if self.calc_loads:
            lines.append(
                f"early-calc path    {self.calc_loads} loads, "
                f"{self.calc_spec_dispatched} dispatched, "
                f"{self.calc_success} zero-cycle hits"
            )
        return "\n".join(lines)
