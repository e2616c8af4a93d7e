"""Machine and early-address-generation configuration.

:class:`MachineConfig` describes the paper's base architecture (Section
5.1): a 6-issue in-order superscalar with 4 integer ALUs, 2 memory ports,
2 FP ALUs, 1 branch unit, 64 KB direct-mapped split caches with 64-byte
blocks and a 12-cycle miss penalty, and a 1K-entry BTB with 2-bit
counters.

:class:`EarlyGenConfig` selects which early-address-generation hardware
exists and who chooses between the paths:

* ``table_entries`` — size of the PC-indexed address prediction table
  (0 disables the prediction path),
* ``cached_regs`` — number of cached base registers for the early
  calculation path (0 disables it; 1 models the paper's single
  compiler-directed ``R_addr``),
* ``selection`` — :attr:`SelectionMode.COMPILER` obeys the load's
  ``ld_n``/``ld_p``/``ld_e`` specifier; :attr:`SelectionMode.HARDWARE`
  ignores specifiers and selects at run time (all loads use whichever
  single path is enabled; with both paths enabled the
  Eickemeyer–Vassiliadis heuristic allocates prediction entries only for
  loads whose base register is interlocked at decode).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.sim.predictors import BACKENDS


class SelectionMode(enum.Enum):
    """Who selects the early-generation path for each load."""

    COMPILER = "compiler"
    HARDWARE = "hardware"


@dataclass(frozen=True)
class CacheConfig:
    """A direct-mapped cache (the paper's design)."""

    size: int = 64 * 1024
    block_size: int = 64
    miss_penalty: int = 12

    def __post_init__(self) -> None:
        # The tag arrays and the precompute split addresses with a
        # block shift, which only a power of two gives.
        b = self.block_size
        if b <= 0 or b & (b - 1):
            raise ValueError("block size must be a positive power of two")
        if self.size % self.block_size:
            raise ValueError("cache size must be a multiple of block size")
        num_blocks = self.size // self.block_size
        if num_blocks & (num_blocks - 1):
            raise ValueError("number of blocks must be a power of two")

    @property
    def num_blocks(self) -> int:
        return self.size // self.block_size

    # The one address split of the tag arrays and the precompute: an
    # address's block is ``addr >> block_shift``, which maps to set
    # ``block & index_mask`` with tag ``block >> tag_shift``.

    @property
    def block_shift(self) -> int:
        return self.block_size.bit_length() - 1

    @property
    def index_mask(self) -> int:
        return self.num_blocks - 1

    @property
    def tag_shift(self) -> int:
        return self.num_blocks.bit_length() - 1


@dataclass(frozen=True)
class EarlyGenConfig:
    """Early-address-generation hardware present in the machine."""

    table_entries: int = 0
    cached_regs: int = 0
    selection: SelectionMode = SelectionMode.COMPILER
    #: Speculation backend filling the prediction path: a name from
    #: :data:`repro.sim.predictors.BACKENDS`.  ``"stride"`` is the
    #: paper's Fig. 3 table; ``"perceptron"`` and ``"cache-level"``
    #: reproduce its descendants (Hermes, Jalili & Erez).
    predictor: str = "stride"

    def __post_init__(self) -> None:
        if self.table_entries < 0 or self.cached_regs < 0:
            raise ValueError("negative hardware sizes")
        if self.table_entries and self.table_entries & (self.table_entries - 1):
            raise ValueError("table_entries must be a power of two")
        if self.predictor not in BACKENDS:
            raise ValueError(
                f"unknown predictor backend {self.predictor!r} "
                f"(known: {', '.join(sorted(BACKENDS))})")

    @property
    def enabled(self) -> bool:
        return bool(self.table_entries or self.cached_regs)


#: No early generation hardware at all (the speedup baseline).
BASELINE = EarlyGenConfig(0, 0)

#: The paper's proposed configuration: 256-entry direct-mapped table plus
#: one compiler-directed special addressing register.
PROPOSED = EarlyGenConfig(table_entries=256, cached_regs=1,
                          selection=SelectionMode.COMPILER)


@dataclass(frozen=True)
class MachineConfig:
    """The simulated processor and memory system."""

    issue_width: int = 6
    int_alus: int = 4
    mem_ports: int = 2
    fp_alus: int = 2
    branch_units: int = 1
    icache: CacheConfig = field(default_factory=CacheConfig)
    dcache: CacheConfig = field(default_factory=CacheConfig)
    btb_entries: int = 1024
    #: Result latency of a load that hits the cache (PA-7100-like).
    load_latency: int = 2
    #: Extra cycles after a mispredicted conditional branch (front-end refill
    #: from IF to EXE of the 6-stage pipeline).
    mispredict_penalty: int = 3
    #: Fetch bubble for an unconditional direct jump/call missing the BTB
    #: (target becomes known at decode).  Returns predict through the
    #: BTB, as in the paper's machine.
    jump_bubble: int = 1
    earlygen: EarlyGenConfig = field(default_factory=lambda: BASELINE)

    def load_latencies(self) -> tuple:
        """``(ld_lat, ld_hit_lat, miss_lat)`` writeback latencies.

        Read by the timing loop in :mod:`repro.sim.precompute`.
        ``ld_hit_lat`` is the ``ld_p`` forwarded latency (the paper's
        single-cycle use of a predicted address), capped by the demand
        latency for degenerate sub-cycle configs.
        """
        ld = self.load_latency
        return ld, min(1, ld), ld + self.dcache.miss_penalty

    def with_earlygen(self, earlygen: EarlyGenConfig) -> "MachineConfig":
        """A copy of this machine with different early-gen hardware."""
        return replace(self, earlygen=earlygen)
