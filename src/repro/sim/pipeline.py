"""In-order scoreboard timing model of the paper's 6-stage pipeline.

The simulator replays a functional :class:`~repro.sim.trace.Trace`
through a cycle-accounting model of the base architecture (Section 5.1):
six-stage in-order pipeline (IF, ID1, ID2, EXE, MEM, WB), up to six
operations issued per cycle, bounded by 4 integer ALUs, 2 memory ports,
2 FP ALUs, and 1 branch unit, with 64 KB direct-mapped split caches and a
1K-entry BTB.

Timing conventions (``t`` is the cycle an instruction's EXE occupies):

* operands must be ready at ``t``; in-order issue means a stalled
  instruction blocks all later ones;
* ALU results are ready at ``t + 1``; loads at ``t + 2`` on a hit,
  ``t + 2 + miss_penalty`` on a miss;
* a load's normal cache access occupies a memory port at ``t + 1``
  (MEM); speculative early accesses occupy a port at ``t - 1`` (ID2);
* conditional branches resolve at the end of EXE; a mispredict costs the
  front-end refill.

Early-generation success conditions follow Section 3.2 of the paper:

* ``ld_p`` (prediction path) forwards when the table probe produced a
  *functioning* prediction, a data-cache port was free one cycle early,
  the predicted address matches the computed address, the data cache
  hits, and no store interlock exists — the load's latency becomes 1.
* ``ld_e`` (early calculation) forwards when ``R_addr`` is bound to the
  load's base register, the register value was written back by ID1 (no
  ``R_addr`` interlock), the addressing mode is register+offset, a port
  was free, the cache hits, and no store interlock exists — latency 0.
  Every ``ld_e`` also rebinds ``R_addr`` to its base register, so a load
  that just switched the binding cannot itself forward.
* In hardware-only mode the specifiers are ignored: with one path
  enabled every load uses it; with both enabled the run-time selection
  follows Eickemeyer and Vassiliadis — loads whose base register is
  interlocked at decode go to the prediction table, the rest to the
  register cache (a BRIC-style LRU cache filled by executed loads).

Neither path requires recovery: forwarding is gated by the verification
formulas, and the mis-speculation penalty is only the wasted cache port
(plus cache pollution for wrong-address prediction accesses).

This module holds the timing conventions above, :class:`TimingSimulator`
and the :func:`simulate` / :func:`speedup` entry points.  Everything the
trace fixes — the decoded records, the front end (i-cache, BTB)
and the demand D-cache stream — is built in one pass by
:class:`~repro.sim.precompute.TracePrecompute`, and the timing loop
itself, shared by :meth:`TimingSimulator.run` and config sweeps, lives
in :mod:`repro.sim.precompute` too.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.isa.opcodes import LoadSpec
from repro.sim.machine import BASELINE, EarlyGenConfig, MachineConfig
from repro.sim.stats import SimStats
from repro.sim.trace import Trace


class TimingSimulator:
    """Replays a trace against one machine configuration.

    :meth:`run` feeds the one timing loop,
    :func:`repro.sim.precompute._replay`, the trace's precomputed
    outcome streams through :func:`repro.sim.precompute.run_streams`,
    the same path every config of a
    :func:`repro.sim.precompute.simulate_many` sweep takes.  Its
    results are byte-identical to the seed implementation kept in
    :mod:`repro.sim._pipeline_reference` (golden snapshots, the
    randomized parity suite, and the ``python -m repro.sim.parity``
    CI gate enforce that).

    With a :mod:`repro.obs` tracer configured, each simulation emits a
    ``sim.counters`` event carrying a flat dict of event counters
    (ld_p hits/misses, ``R_addr`` interlocks, dcache/BTB outcomes, and
    the per-specifier-class scheme counts).  It is assembled strictly
    after the simulation loop, so the golden SimStats snapshots are
    untouched when tracing is off.
    """

    def __init__(
        self,
        trace: Trace,
        config: MachineConfig,
        spec_override: Optional[Dict[int, LoadSpec]] = None,
        collect_timeline: bool = False,
    ):
        self.trace = trace
        self.config = config
        #: Optional uid -> LoadSpec map that overrides the specifiers
        #: compiled into the program (used by profile-guided runs so a
        #: single emulation serves every classification variant).
        self.spec_override = spec_override
        #: When set, :meth:`run` records one ``(uid, issue_cycle, note)``
        #: tuple per dynamic instruction in ``SimStats.timeline`` —
        #: useful for the debug view, too heavy for experiments.
        self.collect_timeline = collect_timeline

    def run(self) -> SimStats:
        """Simulate the whole trace; returns the collected statistics.

        Replays the precomputed streams of the trace's shared precompute
        (built on first use, cached on the Program), as one config of a
        :func:`~repro.sim.precompute.simulate_many` sweep would.
        """
        # Deferred: repro.sim.precompute imports this module.
        from repro.sim.precompute import run_streams

        return run_streams(self)

    @staticmethod
    def _event_counters(stats: SimStats, ra_interlock: int) -> dict:
        """Flat event-counter payload of the ``sim.counters`` event."""
        return {
            "cycles": stats.cycles,
            "instructions": stats.instructions,
            "loads": stats.loads,
            "stores": stats.stores,
            "scheme_n": stats.scheme_counts.get("n", 0),
            "scheme_p": stats.scheme_counts.get("p", 0),
            "scheme_e": stats.scheme_counts.get("e", 0),
            "pred_loads": stats.pred_loads,
            "pred_dispatched": stats.pred_spec_dispatched,
            "pred_success": stats.pred_success,
            "pred_wrong_address": stats.pred_wrong_address,
            "calc_loads": stats.calc_loads,
            "calc_dispatched": stats.calc_spec_dispatched,
            "calc_success": stats.calc_success,
            "calc_success_partial": stats.calc_success_partial,
            "raddr_interlock": ra_interlock,
            "spec_no_port": stats.spec_no_port,
            "spec_mem_interlock": stats.spec_mem_interlock,
            "spec_dcache_miss": stats.spec_dcache_miss,
            "dcache_hits": stats.dcache_hits,
            "dcache_misses": stats.dcache_misses,
            "icache_misses": stats.icache_misses,
            "btb_mispredicts": stats.btb_mispredicts,
        }


def simulate(
    trace: Trace,
    config: Optional[MachineConfig] = None,
    earlygen: Optional[EarlyGenConfig] = None,
    spec_override: Optional[Dict[int, LoadSpec]] = None,
) -> SimStats:
    """Simulate *trace* on *config* (optionally overriding early-gen)."""
    if config is None:
        config = MachineConfig()
    if earlygen is not None:
        config = config.with_earlygen(earlygen)
    return TimingSimulator(trace, config, spec_override).run()


def speedup(
    trace: Trace,
    earlygen: EarlyGenConfig,
    config: Optional[MachineConfig] = None,
    spec_override: Optional[Dict[int, LoadSpec]] = None,
) -> tuple[float, SimStats, SimStats]:
    """Speedup of *earlygen* over the no-early-generation baseline.

    Returns ``(speedup, stats, baseline_stats)``.
    """
    if config is None:
        config = MachineConfig()
    base_stats = TimingSimulator(trace, config.with_earlygen(BASELINE)).run()
    stats = TimingSimulator(
        trace, config.with_earlygen(earlygen), spec_override
    ).run()
    return base_stats.cycles / stats.cycles, stats, base_stats
