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

This module holds the machine's static side — the decode-once
instruction facts, the trace-static front end (i-cache, BTB, RAS) and
:class:`TimingSimulator` — while the timing loop itself, shared by
:meth:`TimingSimulator.run` and config sweeps, lives in
:mod:`repro.sim.precompute`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.isa.instruction import Reg as _REG_TYPE
from repro.isa.opcodes import (
    COND_BRANCH_OPS,
    FP_ALU_OPS,
    LoadSpec,
    Opcode,
    latency_of,
)
from repro.isa.program import Program
from repro.sim.btb import BranchTargetBuffer
from repro.sim.cache import DirectMappedCache
from repro.sim.machine import BASELINE, EarlyGenConfig, MachineConfig
from repro.sim.stats import SimStats
from repro.sim.trace import Trace

#: Pipeline drain after the last issue (EXE -> MEM -> WB).
_DRAIN = 3

# Instruction kinds: produced by :func:`_decode_program` and carried by
# the scheduler records of :mod:`repro.sim.precompute`.  Three kinds
# exist only in records: loads and stores whose outcomes the scheduler
# computes as they issue, and the watch mark that follows every record
# of a run that collects a timeline.  Branch kinds come last so the
# scheduler tests for them with one comparison.  The scheduler spells
# these values as literals (cheaper than a global lookup in its loop):
# renumber both together.
_K_LOAD = 0
_K_STORE = 1
_K_ALU = 2
_K_FP = 3
_K_FREE = 4  # HALT/NOP: issue-width bound only
_K_LIVE_LOAD = 5
_K_LIVE_STORE = 6
_K_WATCH = 7
_K_CBRANCH = 8
_K_JUMP = 9
_K_RET = 10
_K_CALL = 11


def _decode_program(program: Program):
    """Decode-once static facts per uid, cached on the Program.

    Returns ``(dec, load_uids)`` where ``dec[uid]`` is the tuple
    ``(kind, iblock, src_slots, dest_slot, base_slot, reg_offset,
    disp_slot, alu_latency, addr)``; the scheduler reads at most three
    source slots per instruction.  Everything here is immutable
    across timing runs — load-scheme specifiers (``lspec``) are
    deliberately excluded because profile feedback rewrites them in
    place on laid-out programs; every run resolves them afresh
    (``_scheme_bytes`` in :mod:`repro.sim.precompute`).  The cache is
    keyed on the identity of ``program.flat``, which ``Program.layout``
    replaces wholesale.
    """
    cached = getattr(program, "_timing_decode", None)
    flat = program.flat
    if cached is not None and cached[0] is flat:
        return cached[1], cached[2]

    dec = []
    load_uids = []
    for uid, inst in enumerate(flat):
        op = inst.opcode
        srcs = tuple(
            s.index if s.bank == "int" else 64 + s.index
            for s in inst.srcs
            if type(s) is _REG_TYPE
        )
        dest = inst.dest
        dest_slot = (
            -1 if dest is None
            else dest.index if dest.bank == "int" else 64 + dest.index
        )
        base_slot = -1
        reg_offset = 0
        disp_slot = -1
        lat = 0
        if inst.is_load:
            kind = _K_LOAD
            base = inst.mem_base
            base_slot = (
                base.index if base.bank == "int" else 64 + base.index
            )
            if inst.is_reg_offset:
                reg_offset = 1
            else:
                disp = inst.mem_disp
                disp_slot = (
                    disp.index if disp.bank == "int" else 64 + disp.index
                )
            load_uids.append(uid)
        elif inst.is_store:
            kind = _K_STORE
        elif inst.is_branch:
            if op in COND_BRANCH_OPS:
                kind = _K_CBRANCH
            elif op is Opcode.CALL:
                kind = _K_CALL
            elif op is Opcode.RET:
                kind = _K_RET
                srcs += (63,)  # RET reads the link register
            else:
                kind = _K_JUMP
        else:
            if op in FP_ALU_OPS:
                kind = _K_FP
            elif op is Opcode.HALT or op is Opcode.NOP:
                kind = _K_FREE
            else:
                kind = _K_ALU
            if dest is not None:
                lat = latency_of(op)
        if len(srcs) > 3:
            raise AssertionError(
                f"uid {uid}: {len(srcs)} source registers; the "
                f"scheduler records hold at most three"
            )
        dec.append((kind, inst.addr >> 6, srcs, dest_slot, base_slot,
                    reg_offset, disp_slot, lat, inst.addr))
    program._timing_decode = (flat, dec, load_uids)
    return dec, load_uids


def _precompute_frontend(program: Program, trace, cfg, dec):
    """Trace-static front-end penalties, shared across config replays.

    I-cache fetch stalls and branch redirects (BTB training, RAS)
    depend only on the instruction-address sequence and the branch
    outcomes in the trace plus the front-end configuration — never on
    the early-generation config.  Replaying the same trace under many
    ``EarlyGenConfig`` sweeps therefore reuses one precomputed pass:

    * ``ifetch[i]`` — cycles added before decode of instruction *i*
      (the i-cache miss penalty, 0 on a hit or a same-block fetch),
    * ``imiss_total`` — i-cache miss count (penalty may be zero),
    * ``br_extra[i]`` — ``t_next - t_issue`` for the branch at *i*,
    * ``misp_total`` — BTB/RAS mispredict count.

    The cache lives on the Program, keyed by trace identity plus the
    front-end parameters, exactly mirroring the seed per-run logic in
    :mod:`repro.sim._pipeline_reference`.
    """
    uids = trace.uids
    cached = getattr(program, "_frontend_pre", None)
    if cached is None or cached[0] is not uids:
        cached = (uids, {})
        program._frontend_pre = cached
    key = (cfg.icache, cfg.btb_entries, cfg.ras_entries,
           cfg.mispredict_penalty, cfg.jump_bubble)
    inner = cached[1]
    hit = inner.get(key)
    if hit is not None:
        return hit

    n = len(uids)
    ifetch = [0] * n
    imiss_total = 0
    icache = DirectMappedCache(cfg.icache)
    ic_access = icache.access
    i_miss = cfg.icache.miss_penalty
    last_iblock = -1

    br_extra = [0] * n
    misp_total = 0
    btb = BranchTargetBuffer(cfg.btb_entries)
    btb_predict = btb.predict
    btb_update = btb.update
    ras: list = []
    ras_depth = cfg.ras_entries
    mp1 = 1 + cfg.mispredict_penalty
    jb1 = 1 + cfg.jump_bubble

    for i in range(n):
        uid = uids[i]
        d = dec[uid]
        iblock = d[1]
        if iblock != last_iblock:
            last_iblock = iblock
            if not ic_access(d[8]):
                imiss_total += 1
                ifetch[i] = i_miss
        kind = d[0]
        if kind >= _K_CBRANCH:
            addr = d[8]
            next_uid = uids[i + 1] if i + 1 < n else uid + 1
            if kind == _K_CBRANCH:
                taken = next_uid != uid + 1
                target = dec[next_uid][8] if taken else 0
                ptaken, ptarget = btb_predict(addr)
                wrong = (ptaken != taken) or (taken and ptarget != target)
                btb_update(addr, taken, target, wrong)
                if wrong:
                    misp_total += 1
                    br_extra[i] = mp1
                elif taken:
                    br_extra[i] = 1
            else:
                # JMP/CALL/RET: always taken.
                target = dec[next_uid][8] if i + 1 < n else 0
                if kind == _K_RET and ras_depth:
                    predicted = ras.pop() if ras else 0
                    if predicted == target:
                        br_extra[i] = 1
                    else:
                        misp_total += 1
                        br_extra[i] = mp1
                else:
                    ptaken, ptarget = btb_predict(addr)
                    correct = ptaken and ptarget == target
                    btb_update(addr, True, target, not correct)
                    if correct:
                        br_extra[i] = 1
                    elif kind == _K_RET:
                        misp_total += 1
                        br_extra[i] = mp1
                    else:
                        # Direct target, known at decode: short bubble.
                        br_extra[i] = jb1
                if kind == _K_CALL and ras_depth:
                    if len(ras) >= ras_depth:
                        ras.pop(0)
                    ras.append(addr + 4)

    result = (ifetch, imiss_total, br_extra, misp_total)
    # Bounded (FIFO) so a sweep over many front-end variants of one
    # trace cannot grow the Program-attached cache without limit; a
    # fresh trace identity already resets the dict.
    while len(inner) >= _FRONTEND_CACHE_LIMIT:
        del inner[next(iter(inner))]
    inner[key] = result
    return result

#: Bound on cached front-end variants per (program, trace) identity.
_FRONTEND_CACHE_LIMIT = 8


class TimingSimulator:
    """Replays a trace against one machine configuration.

    :meth:`run` is the live outcome source of the one timing loop,
    :func:`repro.sim.precompute._replay`: each load probes and updates
    the predictor backend, the d-cache and ``R_addr`` (or the BRIC
    register cache) as it issues.  Config sweeps go through
    :func:`repro.sim.precompute.simulate_many`, which feeds the same
    loop precomputed outcome streams where it can.  Both are
    byte-identical to the seed implementation kept in
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

        Runs the timing loop on live outcomes over the trace's shared
        precompute (built on first use, cached on the Program).  A
        plain run never takes the precomputed-stream path.
        """
        # Deferred: repro.sim.precompute imports this module.
        from repro.sim.precompute import run_live

        return run_live(self)

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
