"""The timing loop, its trace precompute, and batched multi-config replay.

:func:`_replay` is the one fast timing loop of the Section 5.1 machine:
a window scoreboard over decode-once scheduler records, kept once per
distinct loop segment of the trace, fed load outcomes from precomputed
streams.  It writes each pipeline rule once:
one clock advance per record, one issue rule that the normal,
prediction and early-calculation load routes share, and the timeline
appended by the same body.  :meth:`TimingSimulator.run
<repro.sim.pipeline.TimingSimulator.run>`, timelines and
:func:`simulate_many` all go through :func:`run_streams`.

A config sweep replays one :class:`~repro.sim.trace.Trace` under many
:class:`~repro.sim.machine.EarlyGenConfig` variants (the harness runs
~17 per workload).  Most of the per-replay work is provably identical
across those variants, because the trace fixes the dynamic instruction
and address streams and the model accesses memory strictly in trace
order:

* **Demand D-cache outcomes** — every dynamic load performs exactly one
  demand access and every store one write access, in trace order, so
  the hit/miss stream and the fill-state timeline depend only on the
  address stream — *except* for wrong-address prediction accesses,
  which pollute the cache with the mispredicted block (see below).
  Each such fill changes only what its set holds until the next load
  to that set, so a config's stream is the trace's demand stream plus
  a sparse patch of its fills.
* **Predictor outcomes** — the backend is probed and updated
  unconditionally for every load routed to the prediction path, so the
  outcome stream depends only on the backend's canonical
  ``predictor_key`` (backend name, capacity, confidence) and
  on *which* loads are routed there (the routing mask), never on
  ports, latencies, or the calc path.  A PC that is probed at every
  instance and owns its entry of a per-entry table (``stride`` without
  confidence bits) gets the outcomes of the trace's one unbounded
  Figure 3 pass, the pass the address profiler reads; only the other
  probed loads replay the backend.  Backends that train on demand
  d-cache outcomes additionally see the patched demand-hit stream.
* **Early-calc cache outcomes** — ``R_addr`` bindings and BRIC probes
  likewise evolve only with the sequence of calc-routed loads.

This module precomputes those streams once per trace and machine shape
(:func:`get_precompute` caches them on the Program), and the loop then
only does timing accounting.  What is *not* config-invariant stays in
the loop: port arbitration, store interlocks, the ``R_addr`` writeback
interlock, and issue scheduling.

Two timing-dependent facts are assumed when the streams are built and
checked by the replay:

* **Wrong-address pollution** is gated on a port being free one cycle
  early.  A prediction-routed load's route byte carries the guess: 1
  assumes its wrong-address access dispatches and fills the cache, 3
  that it does not.  The replay records every load where the guess
  disagreed with the ports it saw.
* **Hardware dual-path selection** (Eickemeyer–Vassiliadis) routes each
  load at decode by its base register's interlock.  Those configs
  replay under a guessed route, starting from all-calc, and the replay
  records every routed load whose decode-time decision disagrees with
  its guess.

:func:`run_streams` flips every recorded load's route byte (1 <-> 3
for a dispatch, the prediction/calculation route for a dual-path
decision) and replays until nothing disagrees — a route fixed point.
A replay with no disagreement is exact: each load's outcome depends
only on the state before it, so by induction the replay is the run.
The same causality bounds the rounds: a replay is exact up to its first
disagreement, and the flip settles that load, so the first disagreeing
load moves strictly later every round (:func:`run_streams` raises if it
does not).  DESIGN.md §6 gives the argument in full.

On the streams, the loop itself is memoized per loop segment (after
FastSim, Schnarr & Larus, ASPLOS 1998).  The trace splits into segments
at taken backward branches; at each segment start the scheduler's
future depends only on a small state (register ready times relative to
the clock, clipped at two cycles back; the port window and issue
counters; the stores that can still interlock), the segment's records
and store aliases, and the config's stream bytes for its loads.  The
first replay of a ``(state, segment, inputs)`` runs the records and
stores the transition; every later one applies it.  The memo lives on
the precompute, so all configs of a sweep share it.  It is the stream
path's one reuse layer across configs: every config starts from its
own route and walks the trace's segments.  A timeline walks the same
segments without the memo.

The results are byte-identical to the seed oracle
:mod:`repro.sim._pipeline_reference` — enforced by the golden
snapshots, the parity tests, and the parity gate
``python -m repro.sim.parity`` run in CI.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter, OrderedDict, deque
from contextlib import nullcontext
from itertools import compress
from typing import Dict, List, Optional, Sequence, Union

from repro import obs
from repro.errors import ReproError
from repro.isa.instruction import Reg as _REG_TYPE
from repro.isa.opcodes import (
    COND_BRANCH_OPS,
    FP_ALU_OPS,
    LoadSpec,
    Opcode,
    latency_of,
)
from repro.sim.addr_reg import RegisterCache
from repro.sim.btb import BranchTargetBuffer
from repro.sim.cache import DirectMappedCache
from repro.sim.machine import (
    BASELINE,
    CacheConfig,
    EarlyGenConfig,
    MachineConfig,
    SelectionMode,
)
from repro.sim.pipeline import TimingSimulator
from repro.sim.stats import SimStats
from repro.sim.predictors import (
    create as _create_predictor,
    predictor_key as _predictor_key,
)
from repro.sim.predictors.stride import unbounded_outcomes
from repro.sim.trace import Trace

#: Per-program bound on cached machine shapes.  Each entry is one pass
#: over the trace (decode, front end, demand D-cache and segment walk
#: for one machine shape); the harness sweeps early-gen configs on a
#: single machine, so this stays tiny in practice.
_PRECOMPUTE_LIMIT = 4
#: Per-precompute bounds on derived per-config streams.
_STREAM_LIMIT = 32
_PREDICTION_LIMIT = 2

#: Source-slot sentinel that always reads ready-at-0, and a junk dest
#: slot, so the replay never branches on "has operand / has dest".
_NO_SRC = 128
_NO_DEST = 129

# Route bytes: 0 normal, 1 ``ld_p`` (a wrong-address access assumed to
# dispatch and fill), 2 ``ld_e``, 3 ``ld_p`` (that fill assumed withheld).
# Route byte -> stream masks, applied with bytes.translate.
_PMASK_TAB = bytes(b if b in (1, 3) else 0 for b in range(256))
_EMASK_TAB = bytes(1 if b == 2 else 0 for b in range(256))
# A probed load (route 1 or 3) -> 0xff, so ``&`` keeps its code byte.
_PROBED_TAB = bytes(255 if b in (1, 3) else 0 for b in range(256))
# Nonzero -> 1, and a wrong prediction's stream code (2) -> 1.
_ONE_TAB = bytes(1 if b else 0 for b in range(256))
_WRONG_TAB = bytes(1 if b == 2 else 0 for b in range(256))


#: Pipeline drain after the last issue (EXE -> MEM -> WB).
_DRAIN = 3

# Instruction kinds of the scheduler records.  Branch kinds come last
# so the loops test for them with one comparison.
_K_LOAD = 0
_K_STORE = 1
_K_ALU = 2
_K_FP = 3
_K_FREE = 4  # HALT/NOP: issue-width bound only
_K_CBRANCH = 5
_K_JUMP = 6
_K_RET = 7
_K_CALL = 8

#: Segment length (in records) past which the stream source's walk
#: ends a segment at its next branch, backward or not.
_SEGMENT_CAP = 64
#: Bound on memoized segment transitions per precompute; a full memo
#: starts over.
_SEGMENT_MEMO_LIMIT = 1 << 14
#: Bit width of one counter in a :func:`_pack`-ed int.
_FIELD = 40
_FIELD_MASK = (1 << _FIELD) - 1

#: Process-wide count of wrong-address divergences resolved by a
#: stream rebuild (exposed for tests and the parity CLI).
_divergences = 0


def divergence_count() -> int:
    return _divergences


#: Process-wide ``[builds, loads copied, loads replayed, fills patched]``
#: of the prediction-stream builds (exposed for obs and the parity CLI).
_dstream_totals = [0, 0, 0, 0]


def dstream_counts() -> tuple:
    return tuple(_dstream_totals)


def _decode_program(program, icache: CacheConfig = CacheConfig()):
    """Static facts per uid, decoded once per :class:`TracePrecompute`.

    Returns ``(dec, load_uids)`` where ``dec[uid]`` is the tuple
    ``(kind, iblock, src_slots, dest_slot, base_slot, reg_offset,
    disp_slot, alu_latency, addr)``, ``iblock`` being the instruction's
    block of *icache*; the scheduler reads at most three
    source slots per instruction.  Load-scheme specifiers (``lspec``)
    are deliberately excluded because profile feedback rewrites them in
    place on laid-out programs; every run resolves them afresh
    (:meth:`TracePrecompute.first_route`).
    """
    block_shift = icache.block_shift
    dec = []
    load_uids = []
    for uid, inst in enumerate(program.flat):
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
        dec.append((kind, inst.addr >> block_shift, srcs, dest_slot,
                    base_slot, reg_offset, disp_slot, lat, inst.addr))
    return dec, load_uids


class _SegmentMemo:
    """Segment transitions of the stream replay, shared across a sweep.

    ``transitions`` maps ``(state, segment id, inputs)`` to
    ``(next state, cycles advanced, counter deltas, slips, turns)``,
    the deltas in one :func:`_pack`-ed int.
    A state is an interned :func:`_snapshot` of the scheduler;
    ``inputs`` packs each load's stream codes and route into a byte;
    ``slips`` lists the offsets of the wrong-address loads whose
    dispatch disagrees with their route byte, and ``turns`` those of
    the routed loads whose hardware dual-path decision disagrees with
    their route.  Every
    miss records ``turns``, whatever the config, because any later
    config with the same inputs may be a dual-path one.  Past
    ``_SEGMENT_MEMO_LIMIT`` transitions the memo is cleared and
    refills.
    """

    __slots__ = ("transitions", "ids", "snapshots")

    def __init__(self):
        self.transitions: dict = {}
        self.ids: dict = {}
        self.snapshots: list = []

    def intern(self, snap: bytes) -> int:
        state = self.ids.get(snap)
        if state is None:
            state = self.ids[snap] = len(self.snapshots)
            self.snapshots.append(snap)
        return state

    def reset(self) -> None:
        self.transitions.clear()
        self.ids.clear()
        self.snapshots.clear()


class TracePrecompute:
    """One trace's config-invariant replay state for one machine shape.

    Built in one pass over the trace, which decodes the program and
    drives everything the trace and the machine shape fix:

    * the scheduler records ``(kind, fetch_penalty, src1, src2, src3,
      dest, extra)``, one per dynamic instruction, with the front-end
      outcomes baked in: the i-cache fetch stall, and for a branch the
      redirect cycles of the BTB (and, with ``ras_entries``, the
      return-address stack).  They are interned by content and kept
      per distinct segment (``seg_records``, below), not per
      instruction.  ``imiss_total`` / ``misp_total`` count the i-cache
      misses and BTB/RAS mispredicts.
    * ``demand`` — the d-cache stream without speculation, the
      :meth:`dstream` of every config that probes no predictor: one
      demand access per load (code bit 0 = hit) and a store-miss count
      that never fills.  ``lsets`` / ``ssets`` list, per d-cache set,
      the ordinals of the loads and stores that access it, ``lsb`` the
      stores before each load and ``sblk`` each store's block: the
      index the fill patch of :meth:`dstream` looks up.
    * per-load facts for the per-config stream builders: the address
      ``lea`` and the static uid per dynamic load; ``lsidx``, the
      static ordinal as a byte when there are at most 256 static
      loads; the base slot ``lbase``, addressing mode ``lro`` and
      displacement slot ``ldisp``, each spread from per-static-load
      bytes by :meth:`_per_load`, the spreading that routes use too;
      ``unbounded`` is the trace's unbounded Figure 3 pass
      (:func:`~repro.sim.predictors.stride.unbounded_outcomes`), which
      also counts each load uid's instances and finds its first, and
    * the segment walk of the replay: ``seg_ids`` names each segment
      instance (a run of records up to a taken backward branch, or up
      to its first branch once it holds ``_SEGMENT_CAP`` records) by
      the contents of its records plus the store alias of each of its
      loads, so two instances share an id exactly when both match,
      whatever their uids.  ``seg_records[sid]`` is the tuple of id
      ``sid``'s records, and ``seg_lstart`` / ``seg_sstart`` hold each
      instance's first load and store ordinal (plus one end entry).  A
      load's store alias is the distance back to the most recent
      earlier store to the same word, or 0 when that store is more
      than ``2 * mem_ports`` stores back and so can no longer interlock
      it.  ``segment_memo`` holds the transitions :func:`_replay`
      learned on these segments, shared by every config of a sweep.

    Per-config streams are derived lazily and cached with an LRU bound:

    * ``dstream`` — demand-hit / prediction-outcome codes per dynamic
      load, keyed ``(predictor_key, p-mask)``, plus the
      demand/store/pollution miss totals.  It is assembled from parts:
      prediction codes copied from ``unbounded`` or replayed per load,
      kept per ``(predictor_key, probed loads)`` so that a rebuild for
      other fill guesses only re-applies the fill patch to ``demand``,
    * ``estream`` — calc-path dispatch-candidate codes, keyed
      ``(cached_regs, use_raddr, e-mask)``.

    Counter semantics (pinned by
    ``tests/sim/test_counter_semantics.py``): a load's demand access
    always counts exactly once (hit or miss-and-fill), a store's write
    access counts but never fills, and a wrong-address speculative
    access counts and fills under the *predicted* address — therefore
    ``SimStats.dcache_misses = demand + store + pollution misses`` and
    ``SimStats.dcache_hits = loads - demand misses`` on both paths.
    """

    __slots__ = (
        "flat", "uids", "dcache_cfg",
        "n", "n_loads", "n_stores",
        "seg_records", "demand",
        "imiss_total", "misp_total",
        "lea", "lsb", "lsets", "ssets", "sblk", "unbounded",
        "lbase", "lro", "ldisp",
        "dyn_load_uids", "lsidx", "sword", "static_load_uids",
        "seg_ids", "seg_lstart", "seg_sstart",
        "segment_memo",
        "_dstreams", "_predictions", "_estreams",
    )

    def __init__(self, program, trace: Trace, cfg: MachineConfig):
        dec, load_uids = _decode_program(program, cfg.icache)
        self.flat = program.flat
        self.uids = trace.uids
        self.dcache_cfg = cfg.dcache
        self.static_load_uids = load_uids

        uids = trace.uids
        eas = trace.eas
        n = len(uids)
        self.n = n

        # The front end: a fetch stall per i-cache miss, and per branch
        # the cycles to the next issue (BTB/RAS, as in the seed model).
        i_miss = cfg.icache.miss_penalty
        mp1 = 1 + cfg.mispredict_penalty
        jb1 = 1 + cfg.jump_bubble
        ic_access = DirectMappedCache(cfg.icache).access
        last_iblock = -1
        imiss_total = misp_total = 0
        btb = BranchTargetBuffer(cfg.btb_entries)
        btb_predict = btb.predict
        btb_update = btb.update
        ras: list = []
        ras_depth = cfg.ras_entries

        # The demand d-cache without speculation, its tag array driven
        # inline: loads access and fill, stores count and never fill.
        dc = cfg.dcache
        tags: list = [None] * dc.num_blocks
        bs = dc.block_shift
        im = dc.index_mask
        ts = dc.tag_shift
        dcodes = bytearray()
        dc_append = dcodes.append
        dmiss = store_miss = 0
        # Per d-cache set, the ordinals of the loads and stores that
        # access it (for the fill patch).
        lsets: list = [None] * dc.num_blocks
        ssets: list = [None] * dc.num_blocks

        # Records are interned by content; the pass keeps one record id
        # per instruction, which the segment ids below read.
        rec_table: list = []
        rec_ids: dict = {}
        rid_of: dict = {}  # (uid, penalty, extra) -> record id
        rids = array("I")
        rid_append = rids.append
        lea = array("q")
        lsb = array("I")
        dyn_load_uids = array("q")
        sword = array("q")
        sblk = array("q")

        # Store aliases: each stored word maps to its newest store
        # ordinal, and the map is cut back to the last `window` stores
        # every 4096 stores.  (The replay uses no aliases past a byte.)
        window = min(2 * max(cfg.mem_ports, 1), 255)
        last_store: dict = {}
        never = -window - 1
        ns = nl = 0
        lalias = bytearray()
        seg_rstart = array("I", [0])
        seg_lstart = array("I", [0])
        seg_sstart = array("I", [0])
        last = n - 1
        r_cap = _SEGMENT_CAP - 1
        for i in range(n):
            uid = uids[i]
            d = dec[uid]
            k = d[0]
            pen = 0
            if d[1] != last_iblock:
                last_iblock = d[1]
                if not ic_access(d[8]):
                    imiss_total += 1
                    pen = i_miss
            if k >= _K_CBRANCH:
                # x: the cycles from this branch's issue to the next,
                # nonzero when it is taken.
                addr = d[8]
                next_uid = uids[i + 1] if i < last else uid + 1
                if k == _K_CBRANCH:
                    taken = next_uid != uid + 1
                    target = dec[next_uid][8] if taken else 0
                    ptaken, ptarget = btb_predict(addr)
                    wrong = (ptaken != taken) or (taken and ptarget != target)
                    btb_update(addr, taken, target, wrong)
                    if wrong:
                        misp_total += 1
                        x = mp1
                    else:
                        x = 1 if taken else 0
                else:
                    # JMP/CALL/RET: always taken.
                    target = dec[next_uid][8] if i < last else 0
                    if k == _K_RET and ras_depth:
                        predicted = ras.pop() if ras else 0
                        if predicted == target:
                            x = 1
                        else:
                            misp_total += 1
                            x = mp1
                    else:
                        ptaken, ptarget = btb_predict(addr)
                        correct = ptaken and ptarget == target
                        btb_update(addr, True, target, not correct)
                        if correct:
                            x = 1
                        elif k == _K_RET:
                            misp_total += 1
                            x = mp1
                        else:
                            # Direct target, known at decode: short bubble.
                            x = jb1
                    if k == _K_CALL and ras_depth:
                        if len(ras) >= ras_depth:
                            ras.pop(0)
                        ras.append(addr + 4)
                # A segment ends at a taken branch back, or at its
                # first branch once it holds _SEGMENT_CAP records.
                if i < last and (i >= r_cap or x and next_uid <= uid):
                    seg_rstart.append(i + 1)
                    seg_lstart.append(nl)
                    seg_sstart.append(ns)
                    r_cap = i + _SEGMENT_CAP
            else:
                x = d[7]  # the ALU/FP latency (0 for memory operations)
            key = (uid, pen, x)
            rid = rid_of.get(key)
            if rid is None:
                srcs = d[2] + (_NO_SRC,) * (3 - len(d[2]))
                dest = d[3]
                if dest < 0:
                    dest = _NO_DEST
                rec = (k, pen) + srcs + (dest, x)
                rid = rec_ids.get(rec)
                if rid is None:
                    rid = rec_ids[rec] = len(rec_table)
                    rec_table.append(rec)
                rid_of[key] = rid
            rid_append(rid)
            if k == _K_LOAD:
                ea = eas[i]
                w = ea >> 2
                lea.append(ea)
                lsb.append(ns)
                dyn_load_uids.append(uid)
                j = ns - last_store.get(w, never)
                lalias.append(j if j <= window else 0)
                cblk = ea >> bs
                cidx = cblk & im
                ctag = cblk >> ts
                if tags[cidx] == ctag:
                    dc_append(1)
                else:
                    tags[cidx] = ctag
                    dmiss += 1
                    dc_append(0)
                acc = lsets[cidx]
                if acc is None:
                    acc = lsets[cidx] = array("I")
                acc.append(nl)
                nl += 1
            elif k == _K_STORE:
                ea = eas[i]
                w = ea >> 2
                sword.append(w)
                last_store[w] = ns
                ns += 1
                if not ns & 4095:
                    last_store = {
                        sword[j]: j for j in range(ns - window, ns)
                    }
                cblk = ea >> bs
                cidx = cblk & im
                if tags[cidx] != cblk >> ts:
                    store_miss += 1
                sblk.append(cblk)
                acc = ssets[cidx]
                if acc is None:
                    acc = ssets[cidx] = array("I")
                acc.append(ns - 1)
        seg_rstart.append(n)
        seg_lstart.append(nl)
        seg_sstart.append(ns)
        # Segment ids: instances with the same record ids (so the same
        # record contents) and store aliases share one, and each id's
        # records are kept once.
        lalias = bytes(lalias)
        seg_keys: dict = {}
        seg_ids = array("I")
        seg_records: list = []
        for r0, r1, l0, l1 in zip(seg_rstart, seg_rstart[1:],
                                  seg_lstart, seg_lstart[1:]):
            seg = rids[r0:r1]
            key = (seg.tobytes(), lalias[l0:l1])
            sid = seg_keys.get(key)
            if sid is None:
                sid = seg_keys[key] = len(seg_records)
                seg_records.append(tuple(map(rec_table.__getitem__, seg)))
            seg_ids.append(sid)
        self.seg_ids = seg_ids
        self.seg_records = seg_records
        self.imiss_total = imiss_total
        self.misp_total = misp_total
        self.demand = (bytes(dcodes), dmiss, store_miss, 0)
        self.lea = lea
        self.lsb = lsb
        self.lsets = lsets
        self.ssets = ssets
        self.sblk = sblk
        self.unbounded = unbounded_outcomes(trace)
        self.dyn_load_uids = dyn_load_uids
        # Each load's static ordinal, when a byte holds them all.
        self.lsidx = None
        if len(load_uids) <= 256:
            sidx = bytearray(len(program.flat))
            for j, u in enumerate(load_uids):
                sidx[u] = j
            self.lsidx = bytes(map(sidx.__getitem__, dyn_load_uids))
        static = [dec[u] for u in load_uids]
        self.lbase = self._per_load(bytes([d[4] for d in static]))
        self.lro = self._per_load(bytes([d[5] for d in static]))
        self.ldisp = self._per_load(bytes([max(d[6], 0) for d in static]))
        self.sword = sword
        self.n_loads = nl
        self.n_stores = len(sword)
        self.seg_lstart = seg_lstart
        self.seg_sstart = seg_sstart
        self.segment_memo = _SegmentMemo()

        self._dstreams: OrderedDict = OrderedDict()
        self._predictions: OrderedDict = OrderedDict()
        self._estreams: OrderedDict = OrderedDict()

    # -- derived per-config streams --------------------------------------

    def first_route(self, eg: EarlyGenConfig,
                    override: Optional[Dict[int, LoadSpec]]) -> tuple:
        """The route of a config's first replay, and whether it is a
        guess that the route fixed point refines.

        Returns ``(route, dual)``.  Under compiler selection the route
        follows each static load's specifier (``lspec``, read afresh
        because profile feedback rewrites it in place, unless
        *override* maps the uid); under hardware selection with one
        path every load takes it.  Hardware dual-path selection
        (``dual`` true) decides per load at run time, so its first
        route is all-calc.
        """
        nl = len(self.static_load_uids)
        has_table = eg.table_entries > 0
        has_reg = eg.cached_regs > 0
        dual = False
        if not (has_table or has_reg):
            sb = bytes(nl)
        elif eg.selection is SelectionMode.COMPILER:
            flat = self.flat
            get_override = override.get if override is not None else None
            out = bytearray(nl)
            for j, u in enumerate(self.static_load_uids):
                lspec = flat[u].lspec
                if get_override is not None:
                    lspec = get_override(u, lspec)
                if lspec is LoadSpec.P:
                    if has_table:
                        out[j] = 1
                elif lspec is LoadSpec.E and has_reg:
                    out[j] = 2
            sb = bytes(out)
        elif has_table and has_reg:
            dual = True
            sb = b"\x02" * nl
        else:
            sb = (b"\x01" if has_table else b"\x02") * nl
        return self._per_load(sb), dual

    def _per_load(self, per_static: bytes) -> bytes:
        """*per_static* (a byte per static load) spread over the dynamic
        loads: a route from per-static-load route bytes, and the base,
        addressing-mode and displacement facts of each load."""
        if self.lsidx is not None:
            return self.lsidx.translate(per_static.ljust(256, b"\0"))
        per_uid = bytearray(len(self.flat))
        for u, s in zip(self.static_load_uids, per_static):
            per_uid[u] = s
        return bytes(map(per_uid.__getitem__, self.dyn_load_uids))

    def dstream(self, eg: EarlyGenConfig, route: bytes) -> tuple:
        """Demand/prediction outcome stream for *eg* under *route*.

        Returns ``(codes, demand_misses, store_misses, pollution_misses)``
        where ``codes[li]`` has bit 0 = demand access hit, bit 1 = a
        functioning prediction was made, bit 2 = the prediction matched
        the computed address.  Loads routed 1 or 3 probe the backend; a
        wrong-address prediction fills the cache only under route 1.
        A config that probes no backend gets :attr:`demand`.

        One builder serves every backend.  The prediction codes come
        from :meth:`_predict` (copied from the unbounded pass where a
        PC owns its table entry, replayed through the backend
        elsewhere), and the route-1 fills patch :attr:`demand` in trace
        order (:class:`_FillPatch`).  Each build adds to the counters of
        :func:`dstream_counts`.
        """
        if not eg.table_entries or (1 not in route and 3 not in route):
            return self.demand
        key = (_predictor_key(eg), route.translate(_PMASK_TAB))
        streams = self._dstreams
        hit = streams.get(key)
        if hit is not None:
            streams.move_to_end(key)
            return hit
        built = self._build_dstream(eg, key[1])
        while len(streams) >= _STREAM_LIMIT:
            streams.popitem(last=False)
        streams[key] = built
        return built

    def _build_dstream(self, eg: EarlyGenConfig, pmask: bytes) -> tuple:
        # The backend comes from the same factory as the seed
        # oracle's, so the stream replays the identical state machine.
        table = _create_predictor(eg)
        probed = pmask.translate(_PROBED_TAB)
        patch = _FillPatch(self, pmask)
        # The predictions depend only on which loads probe, except for
        # a backend that trains on demand outcomes, which the fills
        # change; the others reuse them across fill guesses.
        key = (_predictor_key(eg), probed)
        part = None if table.trains_on_demand else self._predictions.get(key)
        if part is None:
            part = self._predict(eg, table, probed, patch)
            if not table.trains_on_demand:
                parts = self._predictions
                while len(parts) >= _PREDICTION_LIMIT:
                    parts.popitem(last=False)
                parts[key] = part
        else:
            self._predictions.move_to_end(key)
            for li, predicted in zip(part[1], part[2]):
                patch.fill(li, predicted)
        _dstream_totals[0] += 1
        _dstream_totals[3] += patch.fills
        codes = (
            int.from_bytes(patch.codes, "little")
            | int.from_bytes(part[0], "little")
        ).to_bytes(self.n_loads, "little")
        return (codes, patch.dmiss, patch.store_miss, patch.poll_miss)

    def _probed_counts(self, probed: bytes) -> dict:
        """uid -> probed instances, for each load uid *probed* probes."""
        out = self.unbounded
        first = out.first
        # A route made per static load probes each PC at every instance
        # or at none: when the first instances say so, so does one
        # comparison with that route.
        static = bytes([
            u in first and probed[first[u]] != 0
            for u in self.static_load_uids
        ])
        if self._per_load(static).translate(_PROBED_TAB) == probed:
            return {
                u: out.per_load[u][0]
                for u, f in zip(self.static_load_uids, static) if f
            }
        return Counter(compress(self.dyn_load_uids, probed))

    def _predict(self, eg: EarlyGenConfig, table, probed: bytes,
                 patch: "_FillPatch") -> tuple:
        """Prediction codes of the loads *probed* marks.

        Returns ``(codes, wrong_at, wrong_pa)``: bits 1–2 of the stream
        codes, and each wrong prediction's load ordinal and predicted
        address in trace order.  The wrong predictions fill *patch* as
        they occur, before the demand access a demand-trained backend
        reads.

        A PC probed at every instance that is alone on its table entry
        sees that entry exactly as the trace's unbounded Figure 3 pass
        does, so its codes are copied from the pass.  That holds for a
        backend whose state is per entry (``stride`` without confidence
        bits); every other probed load drives *table*, in trace order.
        """
        out = self.unbounded
        counts = self._probed_counts(probed)
        flat = self.flat
        n = self.n_loads
        # walk: 1 for a load to replay, 2 for a copied wrong prediction.
        walk = probed.translate(_ONE_TAB)
        if eg.predictor == "stride" and not eg.table_confidence_bits:
            mask = eg.table_entries - 1
            owners = Counter(flat[u].addr >> 2 & mask for u in counts)
            copied = bytes([
                counts.get(u) == out.per_load.get(u, (0,))[0]
                and owners[flat[u].addr >> 2 & mask] == 1
                for u in self.static_load_uids
            ])
            c = int.from_bytes(self._per_load(copied), "little")
            w = int.from_bytes(out.codes.translate(_WRONG_TAB), "little")
            walk = (
                int.from_bytes(walk, "little") & ~c | (c & w) << 1
            ).to_bytes(n, "little")
        n_replayed = walk.count(1)
        _dstream_totals[1] += sum(counts.values()) - n_replayed
        _dstream_totals[2] += n_replayed

        pred = bytearray((
            int.from_bytes(out.codes, "little")
            & int.from_bytes(probed, "little")
        ).to_bytes(n, "little"))
        wrong_at = array("I")
        wrong_pa = array("q")
        fill = patch.fill
        dcodes = patch.codes
        lea = self.lea
        dyn_uids = self.dyn_load_uids
        pcs = {u: flat[u].addr for u in counts}
        probe = table.probe
        update = table.update
        tb_demand = table.trains_on_demand
        for li in compress(range(n), walk):
            if walk[li] == 2:
                predicted = out.wrong_pa[bisect_left(out.wrong_at, li)]
                wrong_at.append(li)
                wrong_pa.append(predicted)
                fill(li, predicted)
                continue
            ea = lea[li]
            pc = pcs[dyn_uids[li]]
            predicted = probe(pc)
            if predicted is None:
                pred[li] = 0
            elif predicted == ea:
                pred[li] = 6
            else:
                pred[li] = 2
                wrong_at.append(li)
                wrong_pa.append(predicted)
                fill(li, predicted)
            # A demand-trained backend reads this load's demand access,
            # after every fill before it and its own.
            update(pc, ea, predicted,
                   bool(dcodes[li] & 1) if tb_demand else None)
        return bytes(pred), wrong_at, wrong_pa

    def estream(self, eg: EarlyGenConfig, route: bytes) -> bytes:
        """Calc-path dispatch-candidate codes for *eg* under *route*.

        ``codes[li]`` bit 0 = the load may dispatch a speculative access
        (binding/BRIC hit with a usable addressing mode), bit 1 = the
        reg+reg partial case (latency 1 instead of 0).
        """
        if not eg.cached_regs or 2 not in route:
            return b""
        use_raddr = eg.selection is SelectionMode.COMPILER
        key = (eg.cached_regs, use_raddr, route.translate(_EMASK_TAB))
        streams = self._estreams
        hit = streams.get(key)
        if hit is not None:
            streams.move_to_end(key)
            return hit
        built = self._build_estream(key[0], key[1], key[2])
        while len(streams) >= _STREAM_LIMIT:
            streams.popitem(last=False)
        streams[key] = built
        return built

    def _build_estream(self, cached_regs: int, use_raddr: bool,
                       emask: bytes) -> bytes:
        codes = bytearray(self.n_loads)
        lbase = self.lbase
        lro = self.lro
        calc = compress(range(self.n_loads), emask)
        if use_raddr:
            bound = -1
            for li in calc:
                base = lbase[li]
                # A load that just switched the binding reads a stale
                # value; reg+reg cannot use R_addr at all.
                if bound == base and lro[li]:
                    codes[li] = 1
                bound = base
        else:
            # The timing model probes the base (and for reg+reg the
            # index) register, then inserts the base.  The base ends
            # most recently used either way, so one touch of it at the
            # end gives the same cache.
            rc = RegisterCache(cached_regs)
            regs = rc.regs
            touch = rc.touch
            ldisp = self.ldisp
            for li in calc:
                base = lbase[li]
                if base in regs:
                    if lro[li]:
                        codes[li] = 1
                    elif ldisp[li] in regs:
                        touch(ldisp[li])
                        codes[li] = 3
                touch(base)
        return bytes(codes)


class _FillPatch:
    """Wrong-address fills applied to a precompute's demand stream.

    *pmask* is the stream's probe mask (route 1 or 3 per probed load),
    and :meth:`fill` takes the wrong predictions in trace order.  A
    fill of block *b* into set *s* before load ``li``'s demand access
    changes only what *s* holds until the next load to *s* (``li``
    itself if it maps there): that load's outcome, and the store-miss
    count of the stores to *s* in between.  A set whose latest fill no
    load has resolved yet keeps ``(block, next load)`` in ``pending``,
    so a second fill before that load starts from the first one's
    block.
    """

    __slots__ = ("pre", "pmask", "codes", "dmiss", "store_miss",
                 "poll_miss", "fills", "pending", "block_shift",
                 "index_mask")

    def __init__(self, pre: TracePrecompute, pmask: bytes):
        codes, self.dmiss, self.store_miss, self.poll_miss = pre.demand
        self.pre = pre
        self.pmask = pmask
        self.codes = bytearray(codes)
        self.fills = 0
        self.pending: dict = {}
        dc = pre.dcache_cfg
        self.block_shift = dc.block_shift
        self.index_mask = dc.index_mask

    def fill(self, li: int, addr: int) -> None:
        """Load *li*'s wrong prediction *addr*: under route 1 its block
        fills just before the load's demand access (the replay records
        the load as diverged if it found no port, and the rebuild routes
        it 3); under route 3 nothing happens."""
        if self.pmask[li] != 1:
            return
        self.fills += 1
        pre = self.pre
        bs = self.block_shift
        blk = addr >> bs
        s = blk & self.index_mask
        loads = pre.lsets[s] or ()
        k = bisect_left(loads, li)
        p = self.pending.get(s)
        if p is not None and p[1] == k:
            prior = p[0]
        elif k:
            prior = pre.lea[loads[k - 1]] >> bs
        else:
            prior = -1  # the set is still empty
        if prior == blk:
            return  # the block is already there: nothing changes
        self.poll_miss += 1
        stores = pre.ssets[s]
        if stores:
            lsb = pre.lsb
            end = lsb[loads[k]] if k < len(loads) else pre.n_stores
            sblk = pre.sblk
            delta = 0
            for q in range(bisect_left(stores, lsb[li]), len(stores)):
                si = stores[q]
                if si >= end:
                    break
                b = sblk[si]
                if b == blk:
                    delta -= 1
                elif b == prior:
                    delta += 1
            self.store_miss += delta
        if k < len(loads):
            nxt = loads[k]
            hit = pre.lea[nxt] >> bs == blk
            c = self.codes[nxt]
            if hit != c & 1:
                self.codes[nxt] = c ^ 1
                self.dmiss += (c & 1) - hit
        self.pending[s] = (blk, k)


def get_precompute(trace: Trace, cfg: MachineConfig) -> TracePrecompute:
    """The trace's precompute for *cfg*'s machine shape, built on a miss.

    Cached on the Program keyed by trace identity, with an LRU bound of
    ``_PRECOMPUTE_LIMIT`` machine shapes.  The key is *cfg* with its
    early-gen config reset to ``BASELINE``, so it holds every field the
    one pass over the trace reads (front end, D-cache, ports) and that
    pass — decode, front end, demand stream and segment walk — runs once
    per entry, and again only when ``Program.layout`` has replaced
    ``program.flat``.
    """
    program = trace.program
    cached = getattr(program, "_sim_precompute", None)
    if cached is None or cached[0] is not trace.uids:
        cached = (trace.uids, OrderedDict())
        program._sim_precompute = cached
    store = cached[1]
    key = cfg.with_earlygen(BASELINE)
    pre = store.get(key)
    if pre is not None and pre.flat is program.flat:
        store.move_to_end(key)
        return pre
    pre = TracePrecompute(program, trace, cfg)
    while len(store) >= _PRECOMPUTE_LIMIT:
        store.popitem(last=False)
    store[key] = pre
    return pre


#: Process-wide replay path counters, keyed by the ``sim.replay`` event
#: ``path`` field: ``scalar`` for a config routed before the run,
#: ``hw-fixed`` for a hardware dual-path config's route fixed point.
#: Exposed for tests and ``obs_report``.
_replay_paths: Dict[str, int] = {}


def replay_path_counts() -> Dict[str, int]:
    return dict(_replay_paths)


#: Process-wide ``[segments walked, segment memo hits]`` of the stream
#: replays (exposed for tests and the parity CLI).
_segment_totals = [0, 0]


def segment_counts() -> tuple:
    return tuple(_segment_totals)


def run_streams(sim: TimingSimulator) -> SimStats:
    """Run *sim* on the precomputed streams, building the trace's
    precompute on first use.

    Replays until nothing the streams assumed disagrees with the
    replay: each round flips the route byte of every diverged
    wrong-address load (1 <-> 3) and, under hardware dual-path
    selection, turns every load whose decode-time decision disagreed
    with its route (1 or 3 -> 2, 2 -> 1).  Every config starts from
    its own route with every wrong-address fill assumed; the segment
    memo on the precompute is the stream path's one reuse layer.
    Raises :class:`~repro.errors.ReproError` if the first disagreement
    fails to move later, which the module docstring's causality
    argument rules out.
    """
    cfg = sim.config
    eg = cfg.earlygen
    trace = sim.trace
    pre = get_precompute(trace, cfg)
    route, dual = pre.first_route(eg, sim.spec_override)
    # Routed loads whose dual-path decision disagrees with the route;
    # only dual-path configs act on them.
    flips = [] if dual else None
    global _divergences
    built = tuple(_dstream_totals)
    patched = rounds = 0
    segments = segment_hits = 0
    # The first disagreement of the last round, keyed 2 * load for a
    # route flip and 2 * load + 1 for a divergence.
    settled = -1
    while True:
        rounds += 1
        dcodes, dmiss, store_miss, poll_miss = pre.dstream(eg, route)
        diverged: list = []
        stats, ra_interlock, walked = _replay(
            pre, cfg, route, dcodes, (dmiss, store_miss, poll_miss),
            pre.estream(eg, route), diverged, flips, sim.collect_timeline,
        )
        segments += walked[0]
        segment_hits += walked[1]
        _segment_totals[0] += walked[0]
        _segment_totals[1] += walked[1]
        if not diverged and not flips:
            break
        # The replay is exact up to its first disagreement.  A route
        # flip there settles the route; a divergence there (the route
        # being right) settles the load.  Either moves `settled` on.
        first = min(([2 * flips[0]] if flips else [])
                    + ([2 * diverged[0] + 1] if diverged else []))
        if first <= settled:
            raise ReproError(
                "stream replay did not converge",
                config=eg, rounds=rounds, load=first // 2,
            )
        settled = first
        # Stats from this round are discarded.
        _divergences += len(diverged)
        patched += len(diverged)
        turned = bytearray(route)
        for li in diverged:
            turned[li] ^= 2  # fill assumed: 1 <-> 3
        if flips:
            for li in flips:
                turned[li] = 1 if turned[li] == 2 else 2
            flips = []
        route = bytes(turned)
    path = "hw-fixed" if dual else "scalar"
    _replay_paths[path] = _replay_paths.get(path, 0) + 1
    tracer = obs.current()
    if tracer.enabled:
        builds, copied, replayed, fills = (
            now - before for now, before in zip(_dstream_totals, built)
        )
        tracer.event(
            "sim.replay",
            counters={"dstream_builds": builds, "loads_copied": copied,
                      "loads_replayed": replayed, "fills_patched": fills},
            patches=patched,
            rounds=rounds,
            table=eg.table_entries,
            regs=eg.cached_regs,
            selection=eg.selection.value,
            predictor=eg.predictor,
            path=path,
            segments=segments,
            segment_hits=segment_hits,
        )
        tracer.event(
            "sim.counters",
            counters=TimingSimulator._event_counters(stats, ra_interlock),
            table=eg.table_entries,
            regs=eg.cached_regs,
            selection=eg.selection.value,
        )
    return stats


def _snapshot(rr: list, cur: int, ports: tuple, spec_any: bool,
              sq: deque) -> bytes:
    """The scheduler state a segment's outcome depends on, as bytes.

    Register ready times are kept relative to ``cur`` and clipped at
    ``cur - 2`` (the loop only tests ``rr > cur`` and
    ``rr > cur - 2``), then the port window and issue counters, the
    ``spec_any`` flag, and the issue cycles of the stores that can
    still interlock (``s >= cur - 1``).  Register and store times are
    stored plus 2, so the clip reads 0.
    """
    base = cur - 2
    regs = bytes([v - base if v > base else 0 for v in rr[:128]])
    stores = bytes([s - base for s, _ in sq if s > base])
    return regs + bytes(ports) + (b"\x01" if spec_any else b"\x00") + stores


def _restore(snap: bytes, cur: int, rr: list, sq: deque, sword,
             si: int) -> bytes:
    """Rebuild the scoreboard of :func:`_snapshot` *snap* at *cur*.

    Clipped registers come back as ``cur - 2``, which every test reads
    like any older time.  The queued stores are the last ones before
    store ordinal *si*.  Returns the port window and issue counters.
    """
    base = cur - 2
    rr[:128] = [base + b for b in snap[:128]]
    stores = snap[136:]
    sq.clear()
    if stores:
        sq.extend(zip([base + b for b in stores],
                      sword[si - len(stores):si]))
    return snap[128:135]


def _pack(*counters: int) -> int:
    """Non-negative counters in one int, ``_FIELD`` bits each, so that
    adding packed values adds the counters field by field."""
    packed = 0
    for c in reversed(counters):
        packed = packed << _FIELD | c
    return packed


def _unpack(packed: int, n: int) -> list:
    return [packed >> (i * _FIELD) & _FIELD_MASK for i in range(n)]


def _replay(pre: TracePrecompute, cfg: MachineConfig, route: bytes,
            dcodes: bytes, dtotals: tuple, ecodes: bytes, diverged: list,
            flips: Optional[list] = None, watch: bool = False):
    """The timing loop: one walk over the trace's segments.

    Load outcomes come from ``dcodes``/``dtotals`` and ``ecodes``, the
    streams of :meth:`TracePrecompute.dstream` and
    :meth:`TracePrecompute.estream` under ``route``.  Wrong-address
    predictions whose dispatch disagrees with their route byte (1
    assumes the fill, 3 withholds it) are appended to ``diverged``;
    with ``flips`` given (hardware dual-path selection),
    routed loads whose decode-time decision — prediction if the base
    register is interlocked at decode, calculation otherwise —
    disagrees with ``route`` are appended to it.  With ``watch``, each
    record appends its issue cycle and outcome note to a timeline the
    stats carry.

    The scoreboard is a handful of locals because the issue cycle is
    monotone: ``iss`` / ``alu`` / ``fpu`` / ``bru`` count units consumed
    at the current cycle, and a three-slot window ``pp`` / ``pm`` /
    ``pc`` tracks memory ports at cycles ``cur-1`` / ``cur`` / ``cur+1``
    (speculative accesses charge ``pp``, normal MEM accesses charge
    ``pc``).  Every clock advance shifts the window by the advance
    distance; a record's fetch penalty and operand wait are one advance.

    Loads of all three routes share one rule (Section 3.2).  The route
    only says whether an early access is ready (a functioning
    prediction, or an ``R_addr``/BRIC hit), which counter its dispatch
    charges, and what disqualifies it (a wrong predicted address, or
    the ``R_addr`` interlock).  A dispatched, qualified access then
    forwards if no store interlocks it and the d-cache hits (latency
    ``ld_hit_lat`` for ``ld_p``, 0 or 1 for ``ld_e``); any other load
    issues its normal MEM access.

    The loop walks ``pre.seg_ids`` and runs ``pre.seg_records[sid]``
    for each instance, in every mode; the modes differ only in whether
    the precompute's :class:`_SegmentMemo` is consulted.  With the
    memo, each segment start looks up ``(state, segment, inputs)``: a
    hit advances the clock and counters by the stored transition and
    replays its divergences and dual-path flips; a miss rebuilds the
    scoreboard from the state if the last segment was a hit, runs the
    segment's records and stores the transition.  A watched replay, or
    a machine whose latencies do not fit a snapshot byte, runs every
    segment's records without the memo.  Returns
    ``(stats, raddr_interlocks, (segments, segment_hits))``, with no
    segments counted for a walk without the memo.
    """
    seg_records = pre.seg_records
    lea = pre.lea
    lbase = pre.lbase
    sword = pre.sword

    width = cfg.issue_width
    n_ports = cfg.mem_ports
    n_alus = cfg.int_alus
    n_fpus = cfg.fp_alus
    n_brus = cfg.branch_units
    ld_lat, ld_hit_lat, miss_lat = cfg.load_latencies()

    rr = [0] * 130
    cur = 0
    iss = alu = fpu = bru = 0
    pp = pm = pc = 0

    spec_any = route.count(0) < len(route)
    sq: deque = deque()
    sq_append = sq.append
    sq_popleft = sq.popleft

    li = 0
    si = 0
    pred_disp = pred_succ = pred_wrong = 0
    calc_disp = calc_succ = calc_part = 0
    sp_noport = sp_interlock = sp_dmiss = 0
    ra_interlock = 0
    hw_dual = flips is not None
    if not hw_dual:
        flips = []  # recorded on memo misses only, for the transitions

    # The record kinds, bound once as locals.
    K_LOAD, K_STORE, K_ALU, K_FP, K_CBRANCH, K_CALL = (
        _K_LOAD, _K_STORE, _K_ALU, _K_FP, _K_CBRANCH, _K_CALL)

    timeline = None
    memo = None
    misses = 0
    if watch:
        timeline = []
        tl_append = timeline.append
        uids = pre.uids
        i = 0
    elif max(miss_lat + 2, width, 2 * n_ports) < 256:
        # Snapshots and store aliases hold every value in a byte.
        memo = pre.segment_memo
        transitions = memo.transitions
        memo_get = transitions.get
        seg_lstart = pre.seg_lstart
        seg_sstart = pre.seg_sstart
        # One byte per load: demand/prediction code, route, calc code.
        inputs = (
            int.from_bytes(dcodes, "little")
            | int.from_bytes(route, "little") << 3
            | int.from_bytes(ecodes, "little") << 5
        ).to_bytes(pre.n_loads, "little")
        state = memo.intern(_snapshot(
            rr, cur, (pp, pm, pc, iss, alu, fpu, bru), spec_any, sq))
        acc = 0  # packed counter deltas of the memo hits
        concrete = True  # the locals hold the state at `cur`

    for j, sid in enumerate(pre.seg_ids):
        if memo is not None:
            l1 = seg_lstart[j + 1]
            key = (state, sid, inputs[li:l1])
            hit = memo_get(key)
            if hit is not None:
                state, dcur, dacc, slips, turns = hit
                cur += dcur
                acc += dacc
                if slips:
                    diverged.extend([li + rel for rel in slips])
                if turns and hw_dual:
                    flips.extend([li + rel for rel in turns])
                li = l1
                concrete = False
                continue
            misses += 1
            if len(transitions) >= _SEGMENT_MEMO_LIMIT:
                snap = memo.snapshots[state]
                memo.reset()
                state = memo.intern(snap)
                key = (state, sid, key[2])
            if not concrete:
                si = seg_sstart[j]
                pp, pm, pc, iss, alu, fpu, bru = _restore(
                    memo.snapshots[state], cur, rr, sq, sword, si)
            cur0 = cur
            l0 = li
            before = _pack(pred_disp, pred_succ, pred_wrong, calc_disp,
                           calc_succ, calc_part, sp_noport, sp_interlock,
                           sp_dmiss, ra_interlock)
            n_div = len(diverged)
            n_flip = len(flips)

        for k, pen, s1, s2, s3, dest, x in seg_records[sid]:
            # The fetch penalty and the operand wait: one clock advance,
            # to the latest of the decode cycle (kept for dual-path
            # selection) and the operands' ready times.
            t = t_dec = cur + pen
            r1 = rr[s1]
            if r1 > t:
                t = r1
            r2 = rr[s2]
            if r2 > t:
                t = r2
            r3 = rr[s3]
            if r3 > t:
                t = r3
            if t > cur:
                d = t - cur
                if d == 1:
                    pp = pm
                    pm = pc
                elif d == 2:
                    pp = pc
                    pm = 0
                else:
                    pp = 0
                    pm = 0
                pc = 0
                iss = alu = fpu = bru = 0
                cur = t

            if k == K_ALU:
                if iss >= width or alu >= n_alus:
                    cur += 1
                    pp = pm
                    pm = pc
                    pc = 0
                    iss = alu = fpu = bru = 0
                iss += 1
                alu += 1
                rr[dest] = cur + x

            elif k == K_LOAD:
                code = dcodes[li]
                r = route[li]
                early = False  # the early access forwards the data
                if r:
                    rb = rr[lbase[li]]
                    if (rb > t_dec - 2) != (r != 2):
                        # dual-path selection would take the other route
                        flips.append(li)
                    if r != 2:
                        ready = code & 2  # a functioning prediction
                        fwd = ld_hit_lat
                    else:
                        # R_addr/BRIC holds the operands; bit 1 marks
                        # the reg+reg partial case, forwarded in 1 cycle.
                        ready = ecodes[li]
                        fwd = ready >> 1
                    if ready and pp >= n_ports:
                        sp_noport += 1
                        if r == 1 and not code & 4:
                            # The stream assumed this wrong-address
                            # access filled the cache; it had no port.
                            diverged.append(li)
                    elif ready:
                        pp += 1
                        if r != 2:
                            pred_disp += 1
                            ok = code & 4  # the predicted address is right
                            if not ok:
                                pred_wrong += 1
                                if r == 3:
                                    # The stream assumed this wrong-address
                                    # access would NOT fill the cache, yet
                                    # it found a free port and dispatched.
                                    diverged.append(li)
                        else:
                            calc_disp += 1
                            ok = rb <= cur - 2  # base written back by ID1
                            if not ok:
                                ra_interlock += 1
                        if ok:
                            c = cur - 1
                            while sq and sq[0][0] + 1 <= c:
                                sq_popleft()  # too old to interlock
                            w = lea[li] >> 2
                            if any(s_w == w for _, s_w in sq):
                                sp_interlock += 1
                            elif code & 1:
                                early = True
                                if r != 2:
                                    pred_succ += 1
                                else:
                                    calc_succ += 1
                                    calc_part += fwd
                            else:
                                sp_dmiss += 1
                if early:
                    if iss >= width:
                        cur += 1
                        pp = pm
                        pm = pc
                        pc = 0
                        iss = alu = fpu = bru = 0
                    iss += 1
                    rr[dest] = cur + fwd
                else:
                    if iss >= width or pc >= n_ports:
                        cur += 1
                        pp = pm
                        pm = pc
                        pc = 0
                        iss = alu = fpu = bru = 0
                    iss += 1
                    pc += 1
                    rr[dest] = cur + (ld_lat if code & 1 else miss_lat)
                li += 1

            elif k >= K_CBRANCH:  # branch, jump, return, call
                if iss >= width or bru >= n_brus:
                    cur += 1
                    pp = pm
                    pm = pc
                    pc = 0
                    iss = alu = fpu = bru = 0
                iss += 1
                bru += 1
                if k == K_CALL:  # call writes the link register
                    rr[63] = cur + 1
                if x:  # precomputed redirect cycles
                    if x == 1:
                        pp = pm
                        pm = pc
                    elif x == 2:
                        pp = pc
                        pm = 0
                    else:
                        pp = 0
                        pm = 0
                    pc = 0
                    iss = alu = fpu = bru = 0
                    cur += x

            elif k == K_STORE:
                if iss >= width or pc >= n_ports:
                    cur += 1
                    pp = pm
                    pm = pc
                    pc = 0
                    iss = alu = fpu = bru = 0
                iss += 1
                pc += 1
                if spec_any:
                    sq_append((cur, sword[si]))
                    if len(sq) > 32:
                        c = cur - 1
                        while sq[0][0] + 1 <= c:
                            sq_popleft()
                si += 1

            elif k == K_FP:
                if iss >= width or fpu >= n_fpus:
                    cur += 1
                    pp = pm
                    pm = pc
                    pc = 0
                    iss = alu = fpu = bru = 0
                iss += 1
                fpu += 1
                rr[dest] = cur + x

            else:  # K_FREE: HALT/NOP, issue-width bound only
                if iss >= width:
                    cur += 1
                    pp = pm
                    pm = pc
                    pc = 0
                    iss = alu = fpu = bru = 0
                iss += 1
                rr[dest] = cur + x

            if timeline is not None:
                if k == K_LOAD:
                    lat = rr[dest] - cur
                    if not r:
                        note = f"load lat={lat}"
                    elif early:
                        note = f"{'npep'[r]}-hit lat={lat}"
                    else:
                        note = f"{'npep'[r]}-miss lat={lat}"
                    tl_append((uids[i], cur, note))
                elif k >= K_CBRANCH:  # the issue cycle, before the redirect
                    note = "branch mispredict" if x > 1 else "branch"
                    tl_append((uids[i], cur - x, note))
                else:
                    tl_append((uids[i], cur, "store" if k == K_STORE else ""))
                i += 1

        if memo is not None:
            state = memo.intern(_snapshot(
                rr, cur, (pp, pm, pc, iss, alu, fpu, bru), spec_any, sq))
            transitions[key] = (
                state,
                cur - cur0,
                _pack(pred_disp, pred_succ, pred_wrong, calc_disp,
                      calc_succ, calc_part, sp_noport, sp_interlock,
                      sp_dmiss, ra_interlock) - before,
                tuple([m - l0 for m in diverged[n_div:]]),
                tuple([f - l0 for f in flips[n_flip:]]),
            )
            if not hw_dual:
                del flips[n_flip:]
            concrete = True

    if memo is not None:
        # Fold the memo hits' counter deltas into the counters.
        (pred_disp, pred_succ, pred_wrong, calc_disp, calc_succ,
         calc_part, sp_noport, sp_interlock, sp_dmiss,
         ra_interlock) = _unpack(acc + _pack(
            pred_disp, pred_succ, pred_wrong, calc_disp, calc_succ,
            calc_part, sp_noport, sp_interlock, sp_dmiss, ra_interlock,
        ), 10)

    stats = _assemble_stats(
        pre, route, dtotals, cur,
        pred_disp, pred_succ, pred_wrong,
        calc_disp, calc_succ, calc_part,
        sp_noport, sp_interlock, sp_dmiss,
    )
    stats.timeline = timeline
    segments = len(pre.seg_ids) if memo is not None else 0
    return stats, ra_interlock, (segments, segments - misses)


def _assemble_stats(pre: TracePrecompute, route: bytes, dtotals: tuple,
                    cur: int,
                    pred_disp: int, pred_succ: int, pred_wrong: int,
                    calc_disp: int, calc_succ: int, calc_part: int,
                    sp_noport: int, sp_interlock: int,
                    sp_dmiss: int) -> SimStats:
    """SimStats from one replay's counters and the precomputed totals."""
    dmiss_total, store_miss_total, poll_miss_total = dtotals
    n_loads = pre.n_loads
    sc_e = route.count(2)
    sc_p = n_loads - route.count(0) - sc_e  # routes 1 and 3

    stats = SimStats()
    stats.cycles = cur + 1 + _DRAIN
    stats.instructions = pre.n
    stats.loads = n_loads
    stats.stores = pre.n_stores
    stats.pred_loads = sc_p
    stats.pred_spec_dispatched = pred_disp
    stats.pred_success = pred_succ
    stats.pred_wrong_address = pred_wrong
    stats.calc_loads = sc_e
    stats.calc_spec_dispatched = calc_disp
    stats.calc_success = calc_succ
    stats.calc_success_partial = calc_part
    stats.spec_no_port = sp_noport
    stats.spec_mem_interlock = sp_interlock
    stats.spec_dcache_miss = sp_dmiss
    stats.dcache_hits = n_loads - dmiss_total
    stats.dcache_misses = dmiss_total + store_miss_total + poll_miss_total
    stats.icache_misses = pre.imiss_total
    stats.btb_mispredicts = pre.misp_total
    stats.scheme_counts = {
        "n": n_loads - sc_p - sc_e, "p": sc_p, "e": sc_e,
    }
    return stats


def warm_precompute(
    trace: Trace,
    machine: MachineConfig,
    configs: Sequence[EarlyGenConfig],
    overrides: Optional[Sequence[Optional[Dict[int, LoadSpec]]]] = None,
) -> TracePrecompute:
    """Build the precompute and every stream *configs* will need.

    Separating this from :func:`simulate_many` lets callers (the bench
    harness in particular) attribute one-time stream construction to a
    ``precompute`` stage and keep the per-config passes pure.
    """
    pre = get_precompute(trace, machine)
    for idx, eg in enumerate(configs):
        ov = overrides[idx] if overrides is not None else None
        route, _ = pre.first_route(eg, ov)
        pre.dstream(eg, route)
        pre.estream(eg, route)
    return pre


def simulate_many(
    trace: Trace,
    configs: Sequence[Union[EarlyGenConfig, MachineConfig]],
    machine: Optional[MachineConfig] = None,
    overrides: Optional[Sequence[Optional[Dict[int, LoadSpec]]]] = None,
    span_tags: Optional[Sequence[Optional[dict]]] = None,
) -> List[SimStats]:
    """Simulate *trace* under every config, sharing one precompute.

    ``configs`` entries are :class:`EarlyGenConfig` (applied to
    *machine*, default machine if None) or full :class:`MachineConfig`
    objects.  ``overrides`` optionally carries a per-config
    ``spec_override`` map; ``span_tags`` optional per-config tag dicts
    for a ``sim`` span on the ambient tracer.  Results are in input
    order and byte-identical to independent ``TimingSimulator`` runs.
    """
    base = machine if machine is not None else MachineConfig()
    tracer = obs.current()
    results: List[SimStats] = []
    for idx, item in enumerate(configs):
        if isinstance(item, MachineConfig):
            mcfg = item
        else:
            mcfg = base.with_earlygen(item)
        ov = overrides[idx] if overrides is not None else None
        sim = TimingSimulator(trace, mcfg, ov)
        tags = span_tags[idx] if span_tags is not None else None
        with (tracer.span("sim", **tags) if tags is not None
              else nullcontext()):
            results.append(run_streams(sim))
    return results
