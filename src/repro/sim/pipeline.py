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
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro import obs
from repro.errors import SimulationHang
from repro.isa.instruction import Reg as _REG_TYPE
from repro.isa.opcodes import (
    COND_BRANCH_OPS,
    FP_ALU_OPS,
    LoadSpec,
    Opcode,
    latency_of,
)
from repro.isa.program import Program
from repro.sim.addr_reg import RegisterCache
from repro.sim.btb import BranchTargetBuffer
from repro.sim.cache import DirectMappedCache
from repro.sim.machine import BASELINE, EarlyGenConfig, MachineConfig, SelectionMode
from repro.sim.stats import SimStats
from repro.sim.predictors import create as _create_predictor
from repro.sim.predictors.stride import TableEntry
from repro.sim.trace import Trace

#: Pipeline drain after the last issue (EXE -> MEM -> WB).
_DRAIN = 3

#: Ring-buffer size for the per-cycle scoreboards.  Correctness does not
#: depend on it (every slot carries the cycle it counts, so stale slots
#: read as zero); it only has to be a power of two.
_RING = 4096
_RING_MASK = _RING - 1

# Instruction kind codes produced by :func:`_decode_program`.
_K_LOAD = 0
_K_STORE = 1
_K_CBRANCH = 2
_K_JUMP = 3
_K_CALL = 4
_K_RET = 5
_K_FP = 6
_K_FREE = 7  # HALT/NOP: issue-width bound only
_K_ALU = 8


def _decode_program(program: Program):
    """Decode-once static facts per uid, cached on the Program.

    Returns ``(dec, load_uids)`` where ``dec[uid]`` is the tuple
    ``(kind, iblock, src_slots, dest_slot, base_slot, reg_offset,
    disp_slot, alu_latency, addr, s1, s2, s3)`` — the trailing three
    entries are ``src_slots`` padded to exactly three with the
    always-ready sentinel slot 128, so the issue loop reads operand
    readiness with three unconditional indexed loads instead of
    iterating a variable-length tuple.  Everything here is immutable
    across timing runs — load-scheme specifiers (``lspec``) are
    deliberately excluded because profile feedback rewrites them in
    place on laid-out programs; :meth:`TimingSimulator.run` resolves
    them per run.  The cache is keyed on the identity of
    ``program.flat``, which ``Program.layout`` replaces wholesale.
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
                f"uid {uid}: {len(srcs)} source registers; the padded "
                f"readiness slots assume at most three"
            )
        dec.append((kind, inst.addr >> 6, srcs, dest_slot, base_slot,
                    reg_offset, disp_slot, lat, inst.addr)
                   + srcs + (128,) * (3 - len(srcs)))
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
        if 2 <= kind <= 5:
            addr = d[8]
            next_uid = uids[i + 1] if i + 1 < n else uid + 1
            if kind == 2:
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
                if kind == 5 and ras_depth:
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
                    elif kind == 5:
                        misp_total += 1
                        br_extra[i] = mp1
                    else:
                        # Direct target, known at decode: short bubble.
                        br_extra[i] = jb1
                if kind == 4 and ras_depth:
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

#: Watchdog default: no single instruction may wait this many cycles to
#: issue.  Legitimate stalls are bounded by a few cache-miss penalties
#: (tens of cycles); anything near this bound means a wedged scoreboard.
DEFAULT_STALL_LIMIT = 100_000

#: Watchdog default cycle budget per dynamic instruction (plus a fixed
#: grace amount); the worst legitimate CPI in this model is ~30.
_CYCLES_PER_INSTRUCTION_BOUND = 1_000
_CYCLE_BUDGET_GRACE = 100_000


class TimingSimulator:
    """Replays a trace against one machine configuration.

    Two watchdogs guard against a wedged scoreboard (which, before this
    layer existed, surfaced as an apparently-hung full-scale run):

    * ``max_cycles`` — total cycle budget; ``None`` derives a generous
      bound from the trace length (1000 cycles per instruction), and
      ``0`` disables the check.
    * ``stall_limit`` — the most cycles a single instruction may wait
      between becoming the oldest unissued instruction and issuing;
      ``0`` disables the check.

    Both raise :class:`~repro.errors.SimulationHang` carrying a
    pipeline-state dump (cycle, trace index, uid, opcode, queue depths).

    ``event_hook`` is the observability seam: when set, it is called
    once at the end of :meth:`run` with a flat dict of event counters
    (ld_p hits/misses, ``R_addr`` interlocks, dcache/BTB outcomes, and
    the per-specifier-class scheme counts).  Without a hook, the same
    payload is emitted as a ``sim.counters`` event on the ambient
    :mod:`repro.obs` tracer when one is configured.  Both paths run
    strictly after the simulation loop, so the fast path — and the
    golden SimStats snapshots — are untouched when disabled.
    """

    def __init__(
        self,
        trace: Trace,
        config: MachineConfig,
        spec_override: Optional[Dict[int, LoadSpec]] = None,
        collect_timeline: bool = False,
        max_cycles: Optional[int] = None,
        stall_limit: int = DEFAULT_STALL_LIMIT,
        event_hook: Optional[Callable[[dict], None]] = None,
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
        if max_cycles is None:
            max_cycles = (
                len(trace.uids) * _CYCLES_PER_INSTRUCTION_BOUND
                + _CYCLE_BUDGET_GRACE
            )
        self.max_cycles = max_cycles
        self.stall_limit = stall_limit
        self.event_hook = event_hook

    def _hang_dump(self, i: int, uid: int, op, t_next: int,
                   store_q: list) -> dict:
        """Pipeline-state snapshot embedded in SimulationHang."""
        return {
            "cycle": t_next,
            "trace_index": i,
            "trace_length": len(self.trace.uids),
            "uid": uid,
            "opcode": getattr(op, "name", str(op)),
            "pending_stores": len(store_q),
        }

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _slot(reg) -> int:
        return reg.index if reg.bank == "int" else 64 + reg.index

    def run(self) -> SimStats:
        """Simulate the whole trace; returns the collected statistics.

        A one-shot run is the inline loop (:meth:`_run_inline`) and
        never builds a trace precompute.  Config sweeps go through
        :func:`repro.sim.precompute.simulate_many`, which shares one
        precompute across the sweep and replays each config on the
        precomputed-stream path where it can, byte-identical to this
        loop (golden snapshots, the randomized parity suite, and the
        ``python -m repro.sim.precompute`` CI gate enforce that).
        """
        return self._run_inline()

    def _run_inline(self) -> SimStats:
        """The full event-by-event simulation loop.

        This is the restructured fast path: static per-instruction facts
        come from the decode-once arrays (:func:`_decode_program`), the
        per-cycle scoreboards are cycle-tagged ring buffers instead of
        dicts, and every hot callable is bound to a local.  It is
        cycle-for-cycle identical to the seed implementation preserved
        in :mod:`repro.sim._pipeline_reference` — the golden-stats and
        parity tests enforce that.
        """
        cfg = self.config
        eg = cfg.earlygen
        program: Program = self.trace.program
        flat = program.flat
        dec, load_uids = _decode_program(program)
        ifetch, imiss_total, br_extra, misp_total = _precompute_frontend(
            program, self.trace, cfg, dec
        )
        uids = self.trace.uids
        eas = self.trace.eas
        n = len(uids)
        override = self.spec_override

        stats = SimStats()
        stats.instructions = n
        timeline: Optional[list] = [] if self.collect_timeline else None
        tl_append = timeline.append if timeline is not None else None

        dcache = DirectMappedCache(cfg.dcache)
        dc_probe = dcache.probe
        dc_access = dcache.access
        dc_write = dcache.write_access
        # The paper's 1-way dcache is hot enough to inline: operate on
        # its tag list directly and count misses in a local (folded back
        # into the stats below).  Multi-way configs keep the method path.
        if type(dcache) is DirectMappedCache:
            dct = dcache._tags
            dbs = dcache._block_shift
            dim = dcache._index_mask
            dts = dcache._tag_shift
        else:
            dct = None
            dbs = dim = dts = 0
        dc_miss = 0

        # All backends come from the predictor registry; the stride
        # reference backend is what the registry returns for the default
        # EarlyGenConfig, so this is byte-identical to constructing the
        # AddressPredictionTable directly.
        table = _create_predictor(eg)
        tb_probe = table.probe if table is not None else None
        tb_update = table.update if table is not None else None
        # Backends that train on the demand d-cache outcome get it as an
        # extra update argument (probed before the update; exact because
        # nothing touches the cache between here and the demand access).
        tb_demand = table is not None and table.trains_on_demand
        # Same treatment for the paper's confidence-free prediction
        # table: drive the entry state machines in place.  (The table's
        # own probe/hit counters never reach SimStats, so the inlined
        # path does not maintain them.)  Confidence-counter configs and
        # non-stride backends use the method path.
        tb_inline = (table is not None and eg.predictor == "stride"
                     and not table.confidence_bits)
        if tb_inline:
            tbl = table._table
            t_im = table._index_mask
            t_ib = table._index_bits
        else:
            tbl = None
            t_im = t_ib = 0
        use_compiler = eg.selection is SelectionMode.COMPILER
        regcache: Optional[RegisterCache] = None
        rc_probe = rc_insert = None
        use_raddr = False
        ra_bound = None  # R_addr binding (a bare register slot)
        # A 1-entry BRIC cache (the paper's hardware dual-path point) is
        # a single slot: probe == equality, insert == assignment, and
        # LRU refresh is a no-op.  Keep it in a local instead of paying
        # two OrderedDict method calls per calc-path load.
        rc1 = False
        rc_slot = -1
        if eg.cached_regs:
            if use_compiler:
                use_raddr = True
            elif eg.cached_regs == 1:
                rc1 = True
            else:
                regcache = RegisterCache(eg.cached_regs)
                rc_probe = regcache.probe
                rc_insert = regcache.insert

        # Scheme plan: 0 = "n", 1 = "p", 2 = "e".  Compiler mode is fully
        # static per run, so it becomes a per-uid array — rebuilt every
        # run (never cached on the program) because ``spec_override`` and
        # in-place ``lspec`` rewrites change it between runs.  Hardware
        # dual-path mode stays dynamic (interlock test at decode).
        scheme_map: Optional[list] = None
        hw_dual = False
        hw_scheme = 0
        if eg.table_entries or eg.cached_regs:
            if use_compiler:
                scheme_map = [0] * len(dec)
                has_table = table is not None
                has_reg = use_raddr or regcache is not None
                get_override = (
                    override.get if override is not None else None
                )
                for u in load_uids:
                    lspec = flat[u].lspec
                    if get_override is not None:
                        lspec = get_override(u, lspec)
                    if lspec is LoadSpec.P and has_table:
                        scheme_map[u] = 1
                    elif lspec is LoadSpec.E and has_reg:
                        scheme_map[u] = 2
            elif table is not None and (regcache is not None or rc1):
                hw_dual = True
            elif table is not None:
                hw_scheme = 1
            else:
                hw_scheme = 2

        width = cfg.issue_width
        n_ports = cfg.mem_ports
        n_alus = cfg.int_alus
        n_fpus = cfg.fp_alus
        n_brus = cfg.branch_units
        ld_lat, ld_hit_lat, miss_lat = cfg.load_latencies()

        reg_ready = [0] * 129

        # Cycle-tagged ring scoreboards: slot ``c & _RING_MASK`` counts
        # cycle ``c`` only while its tag equals ``c``; anything else
        # reads as zero.  Tags start at -2 because cycle -1 is probed
        # legitimately (a speculative access at t0 - 1 on the first
        # instruction) and must count as empty.
        mask = _RING_MASK
        issue_c = [0] * _RING
        issue_t = [-2] * _RING
        alu_c = [0] * _RING
        alu_t = [-2] * _RING
        fp_c = [0] * _RING
        fp_t = [-2] * _RING
        br_c = [0] * _RING
        br_t = [-2] * _RING
        port_c = [0] * _RING
        port_t = [-2] * _RING

        # In-flight stores: (issue_cycle, word_index); appended in issue
        # order, pruned from the front once they can no longer interlock.
        store_q: list = []
        sq_append = store_q.append

        t_next = 0
        max_cycles = self.max_cycles
        stall_limit = self.stall_limit
        # Watchdog thresholds as plain compares (0 = disabled becomes an
        # unreachable sentinel, so the loop pays one comparison, not a
        # truthiness test plus a comparison).
        slim = stall_limit if stall_limit else (1 << 62)
        mcyc = max_cycles if max_cycles else (1 << 62)

        # Decode rows in trace order, cached on the program: one indexed
        # fetch per record instead of the uids[i] -> dec[uid] double hop.
        cached_rows = getattr(program, "_trace_decode", None)
        if (cached_rows is not None and cached_rows[0] is uids
                and cached_rows[1] is flat):
            drows = cached_rows[2]
        else:
            drows = [dec[u] for u in uids]
            program._trace_decode = (uids, flat, drows)

        # Local stat counters (folded into ``stats`` after the loop).
        n_loads = n_stores = 0
        pred_loads = pred_disp = pred_succ = pred_wrong = 0
        calc_loads = calc_disp = calc_succ = calc_part = 0
        ra_interlock = 0  # R_addr not written back by ID1 (obs only)
        sp_noport = sp_interlock = sp_dmiss = 0
        dhits = dmisses = 0
        sc_n = sc_p = sc_e = 0

        for i, d in enumerate(drows):
            kind = d[0]
            t_enter = t_next

            # ---- instruction fetch (precomputed stall) -----------------
            pen = ifetch[i]
            if pen:
                t_next += pen

            # ---- operand readiness (three padded slots; 128 is the
            # always-ready sentinel) -------------------------------------
            t0 = t_next
            r = reg_ready[d[9]]
            if r > t0:
                t0 = r
            r = reg_ready[d[10]]
            if r > t0:
                t0 = r
            r = reg_ready[d[11]]
            if r > t0:
                t0 = r

            # ---- dispatch by class ----------------------------------------
            if kind > 5:  # ALU / FP / HALT / NOP
                t = t0
                if kind == 6:
                    while True:
                        ti = t & mask
                        if issue_t[ti] == t and issue_c[ti] >= width:
                            t += 1
                            continue
                        if fp_t[ti] == t and fp_c[ti] >= n_fpus:
                            t += 1
                            continue
                        break
                    if fp_t[ti] == t:
                        fp_c[ti] += 1
                    else:
                        fp_t[ti] = t
                        fp_c[ti] = 1
                elif kind == 7:
                    ti = t & mask
                    while issue_t[ti] == t and issue_c[ti] >= width:
                        t += 1
                        ti = t & mask
                else:
                    while True:
                        ti = t & mask
                        if issue_t[ti] == t and issue_c[ti] >= width:
                            t += 1
                            continue
                        if alu_t[ti] == t and alu_c[ti] >= n_alus:
                            t += 1
                            continue
                        break
                    if alu_t[ti] == t:
                        alu_c[ti] += 1
                    else:
                        alu_t[ti] = t
                        alu_c[ti] = 1
                if issue_t[ti] == t:
                    issue_c[ti] += 1
                else:
                    issue_t[ti] = t
                    issue_c[ti] = 1
                dest = d[3]
                if dest >= 0:
                    reg_ready[dest] = t + d[7]
                t_next = t
                if tl_append is not None:
                    tl_append((uids[i], t, ""))

            elif kind == 0:  # load
                n_loads += 1
                ea = eas[i]

                # Scheme selection.
                if scheme_map is not None:
                    scheme = scheme_map[uids[i]]
                elif hw_dual:
                    # Eickemeyer-Vassiliadis: prediction only for loads
                    # with a register interlock at decode.
                    scheme = 1 if reg_ready[d[4]] > t_next - 2 else 2
                else:
                    scheme = hw_scheme

                # Prune the store queue: a store issued at s writes at
                # s + 1; it can only interlock a speculative access at
                # cycle c if s + 1 >= c.  The earliest future spec access
                # is at t0 - 1.
                if store_q:
                    cutoff = t0 - 2
                    k = 0
                    while k < len(store_q) and store_q[k][0] < cutoff:
                        k += 1
                    if k:
                        del store_q[:k]

                success = False
                latency = ld_lat

                if scheme == 1:
                    sc_p += 1
                    pred_loads += 1
                    addr = d[8]
                    if tbl is not None:
                        tword = addr >> 2
                        t_idx = tword & t_im
                        t_tag = tword >> t_ib
                        entry = tbl[t_idx]
                        if (
                            entry is None
                            or entry.tag != t_tag
                            or entry.state  # learning: no prediction
                        ):
                            predicted = None
                        else:
                            predicted = entry.pa
                    else:
                        predicted = tb_probe(addr)
                    if predicted is not None:
                        c = t0 - 1  # ID2-stage speculative access
                        ci = c & mask
                        if (port_c[ci] if port_t[ci] == c else 0) < n_ports:
                            if port_t[ci] == c:
                                port_c[ci] += 1
                            else:
                                port_t[ci] = c
                                port_c[ci] = 1
                            pred_disp += 1
                            if predicted == ea:
                                word = ea >> 2
                                interlocked = False
                                for s_cyc, s_word in store_q:
                                    if s_word == word and s_cyc + 1 > c:
                                        interlocked = True
                                        break
                                if interlocked:
                                    sp_interlock += 1
                                else:
                                    if dct is not None:
                                        cblk = ea >> dbs
                                        dc_hit = (
                                            dct[cblk & dim]
                                            == cblk >> dts
                                        )
                                    else:
                                        dc_hit = dc_probe(ea)
                                    if dc_hit:
                                        success = True
                                        latency = ld_hit_lat
                                        pred_succ += 1
                                    else:
                                        sp_dmiss += 1
                            else:
                                pred_wrong += 1
                                # The wrong-address access still fetches
                                # its block (the paper's "extra load").
                                if dct is not None:
                                    cblk = predicted >> dbs
                                    cidx = cblk & dim
                                    ctag = cblk >> dts
                                    if dct[cidx] != ctag:
                                        dct[cidx] = ctag
                                        dc_miss += 1
                                else:
                                    dc_access(predicted)
                        else:
                            sp_noport += 1
                    if tbl is not None:
                        if entry is None:
                            tbl[t_idx] = TableEntry(t_tag, ea)
                        elif entry.tag != t_tag:
                            entry.allocate(t_tag, ea)
                        elif entry.state == 0:  # functioning
                            if entry.pa == ea:
                                entry.pa = ea + entry.st  # Correct
                            else:
                                entry.st = ea - entry.pa  # New_Stride
                                entry.stc = 0
                                entry.pa = ea
                                entry.state = 1
                        elif ea - entry.pa == entry.st:
                            entry.pa = ea + entry.st  # Verified_Stride
                            entry.stc = 1
                            entry.state = 0
                        else:
                            entry.st = ea - entry.pa
                            entry.pa = ea
                    elif tb_demand:
                        if dct is not None:
                            cblk = ea >> dbs
                            dm_hit = dct[cblk & dim] == cblk >> dts
                        else:
                            dm_hit = dc_probe(ea)
                        tb_update(addr, ea, predicted, dm_hit)
                    else:
                        tb_update(addr, ea, predicted)

                elif scheme == 2:
                    sc_e += 1
                    calc_loads += 1
                    base_slot = d[4]
                    partial = False
                    if use_raddr:
                        hit = ra_bound == base_slot
                    elif rc1:
                        hit = rc_slot == base_slot
                        if hit and not d[5]:
                            # register+register: the index register must
                            # be cached too — with one entry, only when
                            # it is the base register itself.
                            hit = rc_slot == d[6]
                            partial = True
                    else:
                        hit = rc_probe(base_slot)
                        if hit and not d[5]:
                            # register+register: the index register must
                            # be cached too, and the best case saves only
                            # one cycle (access slides to MEM).
                            hit = rc_probe(d[6])
                            partial = True
                    if hit and (d[5] or partial):
                        c = t0 - 1
                        ci = c & mask
                        if (port_c[ci] if port_t[ci] == c else 0) < n_ports:
                            if port_t[ci] == c:
                                port_c[ci] += 1
                            else:
                                port_t[ci] = c
                                port_c[ci] = 1
                            calc_disp += 1
                            # R_addr interlock: the base value must have
                            # been written back by ID1 (two cycles before
                            # EXE).
                            if reg_ready[base_slot] > t0 - 2:
                                ra_interlock += 1
                            else:
                                word = ea >> 2
                                interlocked = False
                                for s_cyc, s_word in store_q:
                                    if s_word == word and s_cyc + 1 > c:
                                        interlocked = True
                                        break
                                if interlocked:
                                    sp_interlock += 1
                                else:
                                    if dct is not None:
                                        cblk = ea >> dbs
                                        dc_hit = (
                                            dct[cblk & dim]
                                            == cblk >> dts
                                        )
                                    else:
                                        dc_hit = dc_probe(ea)
                                    if dc_hit:
                                        success = True
                                        if partial:
                                            latency = 1
                                            calc_part += 1
                                        else:
                                            latency = 0
                                        calc_succ += 1
                                    else:
                                        sp_dmiss += 1
                        else:
                            sp_noport += 1
                    # Binding/fill happens for every load on this path.
                    if use_raddr:
                        ra_bound = base_slot
                    elif rc1:
                        rc_slot = base_slot
                    else:
                        rc_insert(base_slot)

                else:
                    sc_n += 1

                # Issue: successful speculation frees the MEM-stage port.
                t = t0
                if success:
                    ti = t & mask
                    while issue_t[ti] == t and issue_c[ti] >= width:
                        t += 1
                        ti = t & mask
                    # The block is present (probed hit); the access only
                    # touches the tag array.
                    if dct is not None:
                        cblk = ea >> dbs
                        cidx = cblk & dim
                        ctag = cblk >> dts
                        if dct[cidx] != ctag:
                            dct[cidx] = ctag
                            dc_miss += 1
                    else:
                        dc_access(ea)
                    dhits += 1
                else:
                    while True:
                        ti = t & mask
                        if issue_t[ti] == t and issue_c[ti] >= width:
                            t += 1
                            continue
                        p = t + 1
                        pi = p & mask
                        if port_t[pi] == p and port_c[pi] >= n_ports:
                            t += 1
                            continue
                        break
                    if port_t[pi] == p:
                        port_c[pi] += 1
                    else:
                        port_t[pi] = p
                        port_c[pi] = 1
                    if dct is not None:
                        cblk = ea >> dbs
                        cidx = cblk & dim
                        ctag = cblk >> dts
                        if dct[cidx] == ctag:
                            dhits += 1
                        else:
                            dct[cidx] = ctag
                            dc_miss += 1
                            dmisses += 1
                            latency = miss_lat
                    elif dc_access(ea):
                        dhits += 1
                    else:
                        dmisses += 1
                        latency = miss_lat
                if issue_t[ti] == t:
                    issue_c[ti] += 1
                else:
                    issue_t[ti] = t
                    issue_c[ti] = 1
                dest = d[3]
                if dest >= 0:
                    reg_ready[dest] = t + latency
                t_next = t
                if tl_append is not None:
                    scheme_ch = "n" if scheme == 0 else (
                        "p" if scheme == 1 else "e"
                    )
                    if success:
                        note = f"{scheme_ch}-hit lat={latency}"
                    elif scheme != 0:
                        note = f"{scheme_ch}-miss lat={latency}"
                    else:
                        note = f"load lat={latency}"
                    tl_append((uids[i], t, note))

            elif kind == 1:  # store
                n_stores += 1
                ea = eas[i]
                t = t0
                while True:
                    ti = t & mask
                    if issue_t[ti] == t and issue_c[ti] >= width:
                        t += 1
                        continue
                    p = t + 1
                    pi = p & mask
                    if port_t[pi] == p and port_c[pi] >= n_ports:
                        t += 1
                        continue
                    break
                if issue_t[ti] == t:
                    issue_c[ti] += 1
                else:
                    issue_t[ti] = t
                    issue_c[ti] = 1
                if port_t[pi] == p:
                    port_c[pi] += 1
                else:
                    port_t[pi] = p
                    port_c[pi] = 1
                # Write-through, no-allocate: misses count, nothing fills.
                if dct is not None:
                    cblk = ea >> dbs
                    if dct[cblk & dim] != cblk >> dts:
                        dc_miss += 1
                else:
                    dc_write(ea)
                sq_append((t, ea >> 2))
                t_next = t
                if tl_append is not None:
                    tl_append((uids[i], t, "store"))

            else:  # branches (2 cond, 3 jump, 4 call, 5 ret)
                t = t0
                while True:
                    ti = t & mask
                    if issue_t[ti] == t and issue_c[ti] >= width:
                        t += 1
                        continue
                    if br_t[ti] == t and br_c[ti] >= n_brus:
                        t += 1
                        continue
                    break
                if issue_t[ti] == t:
                    issue_c[ti] += 1
                else:
                    issue_t[ti] = t
                    issue_c[ti] = 1
                if br_t[ti] == t:
                    br_c[ti] += 1
                else:
                    br_t[ti] = t
                    br_c[ti] = 1

                # Resolution outcome is trace-static: precomputed.
                t_next = t + br_extra[i]
                if kind == 4:
                    reg_ready[63] = t + 1
                if tl_append is not None:
                    note = "branch"
                    if t_next > t + 1:
                        note = "branch mispredict"
                    tl_append((uids[i], t, note))

            if t_next - t_enter > slim:
                raise SimulationHang(
                    f"no retirement for {t_next - t_enter} cycles "
                    f"(stall limit {stall_limit})",
                    dump=self._hang_dump(
                        i, uids[i], flat[uids[i]].opcode, t_next, store_q
                    ),
                )
            if t_next > mcyc:
                raise SimulationHang(
                    f"cycle budget exceeded ({max_cycles})",
                    dump=self._hang_dump(
                        i, uids[i], flat[uids[i]].opcode, t_next, store_q
                    ),
                )

        # Issue cycles never move backwards (each iteration seeds its
        # ready time from the previous ``t_next``), so the last value is
        # the maximum — no per-record tracking needed.
        t_last = t_next
        stats.cycles = t_last + 1 + _DRAIN
        stats.loads = n_loads
        stats.stores = n_stores
        stats.pred_loads = pred_loads
        stats.pred_spec_dispatched = pred_disp
        stats.pred_success = pred_succ
        stats.pred_wrong_address = pred_wrong
        stats.calc_loads = calc_loads
        stats.calc_spec_dispatched = calc_disp
        stats.calc_success = calc_succ
        stats.calc_success_partial = calc_part
        stats.spec_no_port = sp_noport
        stats.spec_mem_interlock = sp_interlock
        stats.spec_dcache_miss = sp_dmiss
        stats.dcache_hits = dhits
        stats.icache_misses = imiss_total
        stats.btb_mispredicts = misp_total
        stats.scheme_counts = {"n": sc_n, "p": sc_p, "e": sc_e}
        stats.dcache_misses = dcache.misses + dc_miss
        stats.timeline = timeline

        # Observability seam: strictly post-loop, zero-cost when neither
        # a hook nor a tracer is installed.
        hook = self.event_hook
        tracer = obs.current()
        if hook is not None or tracer.enabled:
            payload = self._event_counters(stats, ra_interlock)
            if hook is not None:
                hook(payload)
            if tracer.enabled:
                tracer.event(
                    "sim.counters",
                    counters=payload,
                    table=eg.table_entries,
                    regs=eg.cached_regs,
                    selection=eg.selection.value,
                )
        return stats

    @staticmethod
    def _event_counters(stats: SimStats, ra_interlock: int) -> dict:
        """Flat event-counter payload handed to the observability hook."""
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

    @staticmethod
    def _mem_interlock(store_q: list, c: int, ea: int) -> bool:
        """Mem_Interlock at speculative-access cycle *c* for address *ea*.

        The forwarding formulas are evaluated at verification time (end
        of EXE), when every program-order-earlier store has computed its
        address, so the check is precise: the speculatively loaded data
        is stale only if an earlier store writes the same word at MEM
        (cycle ``s + 1``) *after* the speculative read at ``c``.
        """
        word = ea >> 2
        for s, sword in store_q:
            if sword == word and s + 1 > c:
                return True
        return False


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
