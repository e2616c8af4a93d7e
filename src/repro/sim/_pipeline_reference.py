"""The seed (pre-fast-path) TimingSimulator.run, kept as an executable
specification.

``reference_run(sim)`` is the original dict-scoreboard implementation of
:meth:`repro.sim.pipeline.TimingSimulator.run`, verbatim.  The
scheduler that now runs it, ``precompute._replay``, must produce
bit-identical :class:`~repro.sim.stats.SimStats` (including
timelines); the property test ``tests/sim/test_pipeline_parity.py``
checks the two against each other on randomized programs and configs.

Do not optimize this module.  Its value is being the obviously-faithful
transcription of the timing conventions documented in ``pipeline.py``;
any behaviour change belongs in both implementations plus a regenerated
golden snapshot.
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
from repro.sim.addr_reg import RAddr, RegisterCache
from repro.sim.btb import BranchTargetBuffer
from repro.sim.cache import DirectMappedCache
from repro.sim.machine import SelectionMode
from repro.sim.stats import SimStats
from repro.sim.predictors import create as _create_predictor

#: Pipeline drain after the last issue (EXE -> MEM -> WB).
_DRAIN = 3


def _slot(reg) -> int:
    return reg.index if reg.bank == "int" else 64 + reg.index


def _mem_interlock(store_q: list, c: int, ea: int) -> bool:
    """Mem_Interlock at speculative-access cycle *c* for address *ea*."""
    word = ea >> 2
    for s, sword in store_q:
        if sword == word and s + 1 > c:
            return True
    return False


def reference_run(sim) -> SimStats:
    """The seed implementation of ``TimingSimulator.run``, verbatim."""
    cfg = sim.config
    eg = cfg.earlygen
    program: Program = sim.trace.program
    flat = program.flat
    uids = sim.trace.uids
    eas = sim.trace.eas
    n = len(uids)
    override = sim.spec_override

    stats = SimStats()
    stats.instructions = n
    scheme_counts = {"n": 0, "p": 0, "e": 0}
    timeline: Optional[list] = [] if sim.collect_timeline else None

    icache = DirectMappedCache(cfg.icache)
    dcache = DirectMappedCache(cfg.dcache)
    btb = BranchTargetBuffer(cfg.btb_entries)

    # The registry returns the paper's AddressPredictionTable for the
    # default (stride) backend; other backends drop in behind the same
    # probe/update surface.
    table = _create_predictor(eg)
    table_demand = table is not None and table.trains_on_demand
    use_compiler = eg.selection is SelectionMode.COMPILER
    raddr: Optional[RAddr] = None
    regcache: Optional[RegisterCache] = None
    if eg.cached_regs:
        if use_compiler:
            raddr = RAddr()
        else:
            regcache = RegisterCache(eg.cached_regs)

    width = cfg.issue_width
    n_ports = cfg.mem_ports
    n_alus = cfg.int_alus
    n_fpus = cfg.fp_alus
    n_brus = cfg.branch_units
    d_miss = cfg.dcache.miss_penalty
    ld_lat = cfg.load_latency
    i_miss = cfg.icache.miss_penalty
    mp_penalty = cfg.mispredict_penalty
    j_bubble = cfg.jump_bubble

    reg_ready = [0] * 129
    issue_cnt: Dict[int, int] = {}
    alu_cnt: Dict[int, int] = {}
    fp_cnt: Dict[int, int] = {}
    br_cnt: Dict[int, int] = {}
    port_cnt: Dict[int, int] = {}

    store_q: list = []

    ras: list = []
    ras_depth = cfg.ras_entries

    last_iblock = -1

    t_next = 0
    t_last = 0
    fp_ops = FP_ALU_OPS
    cond_ops = COND_BRANCH_OPS

    for i in range(n):
        uid = uids[i]
        inst = flat[uid]
        op = inst.opcode

        # ---- instruction fetch -------------------------------------
        iblock = inst.addr >> 6
        if iblock != last_iblock:
            last_iblock = iblock
            if not icache.access(inst.addr):
                stats.icache_misses += 1
                t_next += i_miss

        # ---- operand readiness -------------------------------------
        t0 = t_next
        for src in inst.srcs:
            if type(src) is not _REG_TYPE:
                continue
            r = reg_ready[
                src.index if src.bank == "int" else 64 + src.index
            ]
            if r > t0:
                t0 = r
        if op is Opcode.RET:
            r = reg_ready[63]
            if r > t0:
                t0 = r

        # ---- dispatch by class ----------------------------------------
        if inst.is_load:
            stats.loads += 1
            ea = eas[i]
            base_slot = _slot(inst.mem_base)

            scheme = "n"
            if eg.table_entries or eg.cached_regs:
                if use_compiler:
                    lspec = (
                        override.get(uid, inst.lspec)
                        if override is not None
                        else inst.lspec
                    )
                    if lspec is LoadSpec.P and table is not None:
                        scheme = "p"
                    elif lspec is LoadSpec.E and (
                        raddr is not None or regcache is not None
                    ):
                        scheme = "e"
                else:
                    if table is not None and regcache is not None:
                        interlock = reg_ready[base_slot] > t_next - 2
                        scheme = "p" if interlock else "e"
                    elif table is not None:
                        scheme = "p"
                    else:
                        scheme = "e"
            scheme_counts[scheme] += 1

            if store_q:
                cutoff = t0 - 2
                k = 0
                while k < len(store_q) and store_q[k][0] < cutoff:
                    k += 1
                if k:
                    del store_q[:k]

            success = False
            latency = ld_lat

            if scheme == "p":
                stats.pred_loads += 1
                predicted = table.probe(inst.addr)
                if predicted is not None:
                    c = t0 - 1
                    if port_cnt.get(c, 0) < n_ports:
                        port_cnt[c] = port_cnt.get(c, 0) + 1
                        stats.pred_spec_dispatched += 1
                        if predicted == ea:
                            if _mem_interlock(store_q, c, ea):
                                stats.spec_mem_interlock += 1
                            elif dcache.probe(ea):
                                success = True
                                latency = min(1, ld_lat)
                                stats.pred_success += 1
                            else:
                                stats.spec_dcache_miss += 1
                        else:
                            stats.pred_wrong_address += 1
                            dcache.access(predicted)
                    else:
                        stats.spec_no_port += 1
                if table_demand:
                    # Demand-outcome training signal, probed before the
                    # demand access below mutates the cache (the update
                    # itself never touches the cache, so this equals
                    # the access outcome).
                    table.update(inst.addr, ea, predicted,
                                 dcache.probe(ea))
                else:
                    table.update(inst.addr, ea, predicted)

            elif scheme == "e":
                stats.calc_loads += 1
                reg_offset = inst.is_reg_offset
                partial = False
                hit = False
                if raddr is not None:
                    hit = raddr.probe(base_slot)
                else:
                    hit = regcache.probe(base_slot)
                    if hit and not reg_offset:
                        disp = inst.mem_disp
                        hit = regcache.probe(_slot(disp))
                        partial = True
                if hit and (reg_offset or partial):
                    c = t0 - 1
                    if port_cnt.get(c, 0) < n_ports:
                        port_cnt[c] = port_cnt.get(c, 0) + 1
                        stats.calc_spec_dispatched += 1
                        if reg_ready[base_slot] > t0 - 2:
                            pass
                        elif _mem_interlock(store_q, c, ea):
                            stats.spec_mem_interlock += 1
                        elif dcache.probe(ea):
                            success = True
                            if partial:
                                latency = 1
                                stats.calc_success_partial += 1
                            else:
                                latency = 0
                            stats.calc_success += 1
                        else:
                            stats.spec_dcache_miss += 1
                    else:
                        stats.spec_no_port += 1
                if raddr is not None:
                    raddr.bind(base_slot)
                else:
                    regcache.insert(base_slot)

            t = t0
            if success:
                while issue_cnt.get(t, 0) >= width:
                    t += 1
                dcache.access(ea)
                stats.dcache_hits += 1
            else:
                while (
                    issue_cnt.get(t, 0) >= width
                    or port_cnt.get(t + 1, 0) >= n_ports
                ):
                    t += 1
                port_cnt[t + 1] = port_cnt.get(t + 1, 0) + 1
                if dcache.access(ea):
                    stats.dcache_hits += 1
                else:
                    stats.dcache_misses += 1
                    latency = ld_lat + d_miss
            issue_cnt[t] = issue_cnt.get(t, 0) + 1
            if inst.dest is not None:
                reg_ready[_slot(inst.dest)] = t + latency
            t_next = t
            if timeline is not None:
                if success:
                    note = f"{scheme}-hit lat={latency}"
                elif scheme != "n":
                    note = f"{scheme}-miss lat={latency}"
                else:
                    note = f"load lat={latency}"
                timeline.append((uid, t, note))

        elif inst.is_store:
            stats.stores += 1
            ea = eas[i]
            t = t0
            while (
                issue_cnt.get(t, 0) >= width
                or port_cnt.get(t + 1, 0) >= n_ports
            ):
                t += 1
            issue_cnt[t] = issue_cnt.get(t, 0) + 1
            port_cnt[t + 1] = port_cnt.get(t + 1, 0) + 1
            dcache.write_access(ea)
            store_q.append((t, ea >> 2))
            t_next = t
            if timeline is not None:
                timeline.append((uid, t, "store"))

        elif inst.is_branch:
            t = t0
            while (
                issue_cnt.get(t, 0) >= width
                or br_cnt.get(t, 0) >= n_brus
            ):
                t += 1
            issue_cnt[t] = issue_cnt.get(t, 0) + 1
            br_cnt[t] = br_cnt.get(t, 0) + 1

            next_uid = uids[i + 1] if i + 1 < n else uid + 1
            if op in cond_ops:
                taken = next_uid != uid + 1
                target = flat[next_uid].addr if taken else 0
                ptaken, ptarget = btb.predict(inst.addr)
                wrong = (ptaken != taken) or (
                    taken and ptarget != target
                )
                btb.update(inst.addr, taken, target, wrong)
                if wrong:
                    stats.btb_mispredicts += 1
                    t_next = t + 1 + mp_penalty
                else:
                    t_next = t + 1 if taken else t
            else:
                target = flat[next_uid].addr if i + 1 < n else 0
                if op is Opcode.RET and ras_depth:
                    predicted = ras.pop() if ras else 0
                    if predicted == target:
                        t_next = t + 1
                    else:
                        stats.btb_mispredicts += 1
                        t_next = t + 1 + mp_penalty
                else:
                    ptaken, ptarget = btb.predict(inst.addr)
                    correct = ptaken and ptarget == target
                    btb.update(inst.addr, True, target, not correct)
                    if correct:
                        t_next = t + 1
                    elif op is Opcode.RET:
                        stats.btb_mispredicts += 1
                        t_next = t + 1 + mp_penalty
                    else:
                        t_next = t + 1 + j_bubble
                if op is Opcode.CALL:
                    reg_ready[63] = t + 1
                    if ras_depth:
                        if len(ras) >= ras_depth:
                            ras.pop(0)
                        ras.append(inst.addr + 4)
            if timeline is not None:
                note = "branch"
                if t_next > t + 1:
                    note = "branch mispredict"
                timeline.append((uid, t, note))

        else:
            is_fp = op in fp_ops
            t = t0
            if is_fp:
                while (
                    issue_cnt.get(t, 0) >= width
                    or fp_cnt.get(t, 0) >= n_fpus
                ):
                    t += 1
                fp_cnt[t] = fp_cnt.get(t, 0) + 1
            elif op is Opcode.HALT or op is Opcode.NOP:
                while issue_cnt.get(t, 0) >= width:
                    t += 1
            else:
                while (
                    issue_cnt.get(t, 0) >= width
                    or alu_cnt.get(t, 0) >= n_alus
                ):
                    t += 1
                alu_cnt[t] = alu_cnt.get(t, 0) + 1
            issue_cnt[t] = issue_cnt.get(t, 0) + 1
            if inst.dest is not None:
                reg_ready[_slot(inst.dest)] = t + latency_of(op)
            t_next = t
            if timeline is not None:
                timeline.append((uid, t, ""))

        if t_next > t_last:
            t_last = t_next

    stats.cycles = t_last + 1 + _DRAIN
    stats.scheme_counts = scheme_counts
    stats.dcache_misses = dcache.misses
    stats.timeline = timeline
    return stats
