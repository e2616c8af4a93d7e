"""The timing loop, its trace precompute, and batched multi-config replay.

:func:`_replay` is the one fast timing loop of the Section 5.1 machine:
a window scoreboard over per-trace decode-once records.  It takes its
load and store outcomes from one of two sources:

* **live** — each load probes and updates the predictor backend, the
  d-cache and ``R_addr`` or the BRIC register cache as it issues.  This
  is :meth:`TimingSimulator.run <repro.sim.pipeline.TimingSimulator.run>`
  and the fallback for every config the streams decline;
* **precomputed streams** — the outcomes below, shared across a sweep.

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
* **Predictor outcomes** — the backend is probed and updated
  unconditionally for every load routed to the prediction path, so the
  outcome stream depends only on the backend's canonical
  ``predictor_key`` (backend name, capacity, confidence) and
  on *which* loads are routed there (the routing mask), never on
  ports, latencies, or the calc path.  Backends that train on demand
  d-cache outcomes additionally see the demand-hit stream, which is
  itself a pure function of the routing mask and the exclusion set.
* **Early-calc cache outcomes** — ``R_addr`` bindings and BRIC probes
  likewise evolve only with the sequence of calc-routed loads.

This module precomputes those streams once per trace (cached on the
Program the same way ``_precompute_frontend`` caches front-end
outcomes), and the loop then only does timing accounting.  What is
*not* config-invariant stays in the loop: port arbitration, store
interlocks, the ``R_addr`` writeback interlock, and issue scheduling.

Two effects cannot be precomputed and are handled explicitly:

* **Wrong-address pollution** is gated on a port being free one cycle
  early.  The streams are built assuming every wrong-address access
  dispatches; the replay records every load ordinal where that
  assumption disagreed with the ports it actually saw, and the caller
  rebuilds the stream with those ordinals excluded and replays again.
  A replay that records *no* disagreement is exact — its stream's fill
  assumptions matched the observed dispatch behavior at every
  wrong-prediction point — so only a zero-divergence replay is ever
  accepted; after :data:`_MAX_PATCH_RETRIES` rebuilds the config falls
  back to live outcomes.
* **Hardware dual-path selection** routes each load at decode using the
  current interlock state (timing-dependent), so those configs always
  run on live outcomes.

:func:`simulate_many` is the one entry point into the streams: it
builds and shares one precompute across a sweep (a one-shot
``TimingSimulator.run`` never takes the stream path).  Both sources
produce byte-identical :class:`~repro.sim.stats.SimStats`, and so does
the seed oracle :mod:`repro.sim._pipeline_reference` — enforced by the
golden snapshots, the parity tests, and the three-way parity gate
``python -m repro.sim.parity`` run in CI.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict, deque
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Union

from repro import obs
from repro.isa.opcodes import LoadSpec
from repro.sim.addr_reg import RegisterCache
from repro.sim.cache import DirectMappedCache
from repro.sim.machine import (
    EarlyGenConfig,
    MachineConfig,
    SelectionMode,
)
from repro.sim.pipeline import (
    _DRAIN,
    _K_CBRANCH,
    _K_LIVE_LOAD,
    _K_LIVE_STORE,
    _K_LOAD,
    _K_STORE,
    _K_WATCH,
    TimingSimulator,
    _decode_program,
    _precompute_frontend,
)
from repro.sim.stats import SimStats
from repro.sim.predictors import (
    create as _create_predictor,
    predictor_key as _predictor_key,
)
from repro.sim.predictors.stride import TableEntry
from repro.sim.trace import Trace

#: Per-program bound on cached machine variants (front-end + dcache
#: geometry differ per variant; the harness sweeps early-gen configs on
#: a single machine, so this stays tiny in practice).
_PRECOMPUTE_LIMIT = 4
#: Per-precompute bounds on derived per-config streams.
_STREAM_LIMIT = 32
_ROUTE_LIMIT = 32

#: Source-slot sentinel that always reads ready-at-0, and a junk dest
#: slot, so the replay never branches on "has operand / has dest".
_NO_SRC = 128
_NO_DEST = 129

# route byte -> membership masks, applied with bytes.translate.
_PMASK_TAB = bytes(1 if b == 1 else 0 for b in range(256))
_EMASK_TAB = bytes(1 if b == 2 else 0 for b in range(256))


#: Bound on stream-patching rebuilds before a diverging config reruns
#: on live outcomes.  Divergent ordinals are discovered in batches
#: (one replay records every disagreement it sees), so convergence
#: normally takes one or two rebuilds.
_MAX_PATCH_RETRIES = 6

#: Identical stream tuples produce identical stats (the replay is a
#: pure function of them), so sweeps memoize per-tuple results.
_STATS_MEMO_LIMIT = 64

#: Process-wide divergence counters (exposed for tests and the parity
#: CLI): patched = resolved by a stream rebuild, fallbacks = rerun on
#: live outcomes.
_divergences = 0
_divergence_fallbacks = 0


def divergence_count() -> int:
    return _divergences


def divergence_fallback_count() -> int:
    return _divergence_fallbacks


def _machine_key(cfg: MachineConfig) -> tuple:
    """Everything that shapes the precompute except the early-gen config."""
    return (
        cfg.issue_width, cfg.int_alus, cfg.mem_ports, cfg.fp_alus,
        cfg.branch_units, cfg.icache, cfg.dcache, cfg.btb_entries,
        cfg.load_latency, cfg.mispredict_penalty, cfg.jump_bubble,
        cfg.ras_entries,
    )


class TracePrecompute:
    """One trace's config-invariant replay state for one machine shape.

    Built in a single pass over the trace:

    * ``records`` — per-dynamic-instruction scheduler tuples
      ``(kind, fetch_penalty, src1, src2, src3, dest, extra)`` with the
      front-end outcomes (i-cache stall, branch redirect cycles) baked
      in.  Tuples are interned on ``(uid, penalty, extra)`` so the list
      costs one pointer per position.  :meth:`live_records` derives
      the live source's copy on first use.
    * the interleaved memory-op sequence plus per-load static facts
      (PC, word index, base/displacement slots, addressing mode) that
      the per-config stream builders replay, and
    * the *neutral* demand D-cache stream (no prediction path routed).

    Per-config streams are derived lazily and cached with an LRU bound:

    * ``dstream`` — demand-hit / prediction-outcome codes per dynamic
      load, keyed ``(predictor_key, p-mask)``, plus the
      demand/store/pollution miss totals,
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
        "flat", "uids", "machine_key", "dcache_cfg",
        "n", "n_loads", "n_stores",
        "records", "_mem_records", "_live_records",
        "imiss_total", "misp_total",
        "mseq_kind", "mseq_ea", "lpc", "lword", "lbase", "lro", "ldisp",
        "dyn_load_uids", "sword", "static_load_uids",
        "_routes", "_dstreams", "_estreams", "_patches",
        "_stats_memo",
    )

    def __init__(self, program, trace: Trace, cfg: MachineConfig):
        dec, load_uids = _decode_program(program)
        ifetch, imiss_total, br_extra, misp_total = _precompute_frontend(
            program, trace, cfg, dec
        )
        self.flat = program.flat
        self.uids = trace.uids
        self.machine_key = _machine_key(cfg)
        self.dcache_cfg = cfg.dcache
        self.imiss_total = imiss_total
        self.misp_total = misp_total
        self.static_load_uids = load_uids

        uids = trace.uids
        eas = trace.eas
        n = len(uids)
        self.n = n

        records: list = []
        rec_append = records.append
        intern: dict = {}
        mseq_kind = bytearray()
        mk_append = mseq_kind.append
        mseq_ea = array("q")
        me_append = mseq_ea.append
        lpc = array("q")
        lword = array("q")
        lbase = bytearray()
        lro = bytearray()
        ldisp = bytearray()
        dyn_load_uids = array("q")
        sword = array("q")

        for i in range(n):
            uid = uids[i]
            d = dec[uid]
            k = d[0]
            pen = ifetch[i]
            # Branch redirect cycles, or the ALU/FP latency (0 for
            # memory operations).
            x = br_extra[i] if k >= _K_CBRANCH else d[7]
            key = (uid, pen, x)
            rec = intern.get(key)
            if rec is None:
                srcs = d[2] + (_NO_SRC,) * (3 - len(d[2]))
                dest = d[3]
                if dest < 0:
                    dest = _NO_DEST
                rec = intern[key] = (k, pen) + srcs + (dest, x)
            rec_append(rec)
            if k == _K_LOAD:
                ea = eas[i]
                mk_append(0)
                me_append(ea)
                lpc.append(d[8])
                lword.append(ea >> 2)
                lbase.append(d[4])
                lro.append(d[5])
                ldisp.append(d[6] if d[6] >= 0 else 0)
                dyn_load_uids.append(uid)
            elif k == _K_STORE:
                ea = eas[i]
                mk_append(1)
                me_append(ea)
                sword.append(ea >> 2)

        self.records = records
        self._mem_records = [
            rec for rec in intern.values() if rec[0] <= _K_STORE
        ]
        self._live_records = None
        self.mseq_kind = bytes(mseq_kind)
        self.mseq_ea = mseq_ea
        self.lpc = lpc
        self.lword = lword
        self.lbase = bytes(lbase)
        self.lro = bytes(lro)
        self.ldisp = bytes(ldisp)
        self.dyn_load_uids = dyn_load_uids
        self.sword = sword
        self.n_loads = len(lword)
        self.n_stores = len(sword)

        self._routes: OrderedDict = OrderedDict()
        self._dstreams: OrderedDict = OrderedDict()
        self._estreams: OrderedDict = OrderedDict()
        self._patches: OrderedDict = OrderedDict()
        self._stats_memo: OrderedDict = OrderedDict()

    def live_records(self) -> list:
        """``records`` with loads and stores re-kinded for the live source.

        A live load carries no sources in the shared operand-wait slots
        (its sources move to ``extra``) because it waits on its own: it
        needs the clock from before the wait for hardware dual-path
        selection.  Built on first use and kept; the stream path never
        pays for it.
        """
        live = self._live_records
        if live is None:
            swap = {}
            for rec in self._mem_records:
                k, pen, s1, s2, s3, dest, x = rec
                if k == _K_LOAD:
                    swap[id(rec)] = (_K_LIVE_LOAD, pen, _NO_SRC, _NO_SRC,
                                     _NO_SRC, dest, (s1, s2, s3))
                else:
                    swap[id(rec)] = (_K_LIVE_STORE,) + rec[1:]
            records = self.records
            live = self._live_records = list(
                map(swap.get, map(id, records), records)
            )
        return live

    # -- derived per-config streams --------------------------------------

    def route_for(self, scheme_bytes: bytes) -> bytes:
        """Per-dynamic-load routing (0/1/2) from per-static-load bytes."""
        routes = self._routes
        route = routes.get(scheme_bytes)
        if route is not None:
            routes.move_to_end(scheme_bytes)
            return route
        per_uid = bytearray(len(self.flat))
        for u, s in zip(self.static_load_uids, scheme_bytes):
            per_uid[u] = s
        route = bytes(map(per_uid.__getitem__, self.dyn_load_uids))
        while len(routes) >= _ROUTE_LIMIT:
            routes.popitem(last=False)
        routes[scheme_bytes] = route
        return route

    def _patch_key(self, eg: EarlyGenConfig, route: bytes):
        if not eg.table_entries or 1 not in route:
            return None
        return (
            _predictor_key(eg),
            route.translate(_PMASK_TAB),
        )

    def known_exclusions(self, eg: EarlyGenConfig,
                         route: bytes) -> frozenset:
        """The exclusion set a prior replay of this config converged to."""
        return self._patches.get(self._patch_key(eg, route), frozenset())

    def remember_exclusions(self, eg: EarlyGenConfig, route: bytes,
                            excluded: frozenset) -> None:
        key = self._patch_key(eg, route)
        if key is None:
            return
        patches = self._patches
        while len(patches) >= _STREAM_LIMIT:
            patches.popitem(last=False)
        patches[key] = excluded

    def dstream(self, eg: EarlyGenConfig, route: bytes,
                excluded: frozenset = frozenset()) -> tuple:
        """Demand/prediction outcome stream for *eg* under *route*.

        Returns ``(codes, demand_misses, store_misses, pollution_misses)``
        where ``codes[li]`` has bit 0 = demand access hit, bit 1 = a
        functioning prediction was made, bit 2 = the prediction matched
        the computed address.  ``excluded`` lists load ordinals whose
        wrong-address pollution is known (from a prior replay attempt)
        not to have dispatched.
        """
        if not eg.table_entries or 1 not in route:
            key = None
        else:
            key = (
                _predictor_key(eg),
                route.translate(_PMASK_TAB),
                excluded,
            )
        streams = self._dstreams
        hit = streams.get(key)
        if hit is not None:
            streams.move_to_end(key)
            return hit
        if key is None:
            built = self._build_dstream(None, None, excluded)
        else:
            built = self._build_dstream(eg, key[1], excluded)
        while len(streams) >= _STREAM_LIMIT:
            streams.popitem(last=False)
        streams[key] = built
        return built

    def _build_dstream(self, eg: Optional[EarlyGenConfig],
                       pmask: Optional[bytes],
                       excluded: frozenset) -> tuple:
        # The d-cache tag array, driven in place.
        dc = DirectMappedCache(self.dcache_cfg)
        tags = dc._tags
        bs = dc._block_shift
        im = dc._index_mask
        ts = dc._tag_shift

        # The backend comes from the same factory as the live
        # source, so the stream replays the identical state machine.
        table = (_create_predictor(eg)
                 if eg is not None and pmask is not None else None)
        tb_inline = (table is not None and eg.predictor == "stride"
                     and not eg.table_confidence_bits)
        # Demand-trained backends consume the demand outcome, so their
        # update is deferred until after the demand access below (the
        # update itself never touches the cache — same outcome as the
        # live source's probe-before-access).
        tb_demand = table is not None and table.trains_on_demand
        if tb_inline:
            tbl = table._table
            t_im = table._index_mask
            t_ib = table._index_bits
        tb_probe = table.probe if table is not None else None
        tb_update = table.update if table is not None else None

        codes = bytearray(self.n_loads)
        dmiss = store_miss = poll_miss = 0
        mseq_ea = self.mseq_ea
        lpc = self.lpc
        li = 0
        idx = 0
        for mk in self.mseq_kind:
            ea = mseq_ea[idx]
            idx += 1
            if mk == 0:
                code = 0
                probed = pmask is not None and pmask[li]
                if probed:
                    pc_addr = lpc[li]
                    if tb_inline:
                        tword = pc_addr >> 2
                        t_idx = tword & t_im
                        t_tag = tword >> t_ib
                        entry = tbl[t_idx]
                        if (
                            entry is None
                            or entry.tag != t_tag
                            or entry.state
                        ):
                            predicted = None
                        else:
                            predicted = entry.pa
                    else:
                        predicted = tb_probe(pc_addr)
                    if predicted is not None:
                        if predicted == ea:
                            code = 6
                        else:
                            # Assumed-dispatched wrong-address access:
                            # counts and fills under the predicted
                            # address (the replay records the ordinal
                            # as diverged if the dispatch did not
                            # actually happen, and it lands in
                            # `excluded` on the rebuild).
                            code = 2
                            if li not in excluded:
                                cblk = predicted >> bs
                                cidx = cblk & im
                                ctag = cblk >> ts
                                if tags[cidx] != ctag:
                                    tags[cidx] = ctag
                                    poll_miss += 1
                    if tb_inline:
                        # The state-machine arcs of
                        # AddressPredictionTable.update (Figure 3):
                        # Replace / Correct / New_Stride /
                        # Verified_Stride.
                        if entry is None:
                            tbl[t_idx] = TableEntry(t_tag, ea)
                        elif entry.tag != t_tag:
                            entry.allocate(t_tag, ea)
                        elif entry.state == 0:
                            if entry.pa == ea:
                                entry.pa = ea + entry.st
                            else:
                                entry.st = ea - entry.pa
                                entry.stc = 0
                                entry.pa = ea
                                entry.state = 1
                        elif ea - entry.pa == entry.st:
                            entry.pa = ea + entry.st
                            entry.stc = 1
                            entry.state = 0
                        else:
                            entry.st = ea - entry.pa
                            entry.pa = ea
                    elif not tb_demand:
                        tb_update(pc_addr, ea, predicted)
                # The demand access happens for every load, whatever
                # the speculation outcome: a successful speculative
                # access probed the same state the demand access sees,
                # so one access covers both (same result, same fill).
                cblk = ea >> bs
                cidx = cblk & im
                ctag = cblk >> ts
                if tags[cidx] == ctag:
                    code |= 1
                else:
                    tags[cidx] = ctag
                    dmiss += 1
                if probed and tb_demand:
                    tb_update(pc_addr, ea, predicted, bool(code & 1))
                codes[li] = code
                li += 1
            else:
                # Write-through, no-allocate: counts, never fills.
                cblk = ea >> bs
                if tags[cblk & im] != cblk >> ts:
                    store_miss += 1
        return (bytes(codes), dmiss, store_miss, poll_miss)

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
        n_loads = self.n_loads
        codes = bytearray(n_loads)
        lbase = self.lbase
        lro = self.lro
        ldisp = self.ldisp
        if use_raddr:
            bound = -1
            for li in range(n_loads):
                if emask[li]:
                    base = lbase[li]
                    # A load that just switched the binding reads a
                    # stale value; reg+reg cannot use R_addr at all.
                    if bound == base and lro[li]:
                        codes[li] = 1
                    bound = base
        else:
            rc = RegisterCache(cached_regs)
            rc_probe = rc.probe
            rc_insert = rc.insert
            for li in range(n_loads):
                if emask[li]:
                    if rc_probe(lbase[li]):
                        if lro[li]:
                            codes[li] = 1
                        elif rc_probe(ldisp[li]):
                            codes[li] = 3
                    rc_insert(lbase[li])
        return bytes(codes)


def _scheme_bytes(program, eg: EarlyGenConfig,
                  override: Optional[Dict[int, LoadSpec]]) -> Optional[bytes]:
    """Per-static-load routing (0/1/2), or None when routing is decided
    at run time (hardware dual-path selection)."""
    dec, load_uids = _decode_program(program)
    nl = len(load_uids)
    if not (eg.table_entries or eg.cached_regs):
        return bytes(nl)
    has_table = eg.table_entries > 0
    has_reg = eg.cached_regs > 0
    if eg.selection is SelectionMode.COMPILER:
        flat = program.flat
        get_override = override.get if override is not None else None
        out = bytearray(nl)
        for j in range(nl):
            u = load_uids[j]
            lspec = flat[u].lspec
            if get_override is not None:
                lspec = get_override(u, lspec)
            if lspec is LoadSpec.P:
                if has_table:
                    out[j] = 1
            elif lspec is LoadSpec.E and has_reg:
                out[j] = 2
        return bytes(out)
    if has_table and has_reg:
        return None
    return (b"\x01" if has_table else b"\x02") * nl


def get_precompute(trace: Trace, cfg: MachineConfig) -> TracePrecompute:
    """The trace's precompute for *cfg*'s machine shape, built on a miss.

    Cached on the Program keyed by trace identity (like the front-end
    cache) with an LRU bound of ``_PRECOMPUTE_LIMIT`` machine shapes.
    """
    program = trace.program
    cached = getattr(program, "_sim_precompute", None)
    if cached is None or cached[0] is not trace.uids:
        cached = (trace.uids, OrderedDict())
        program._sim_precompute = cached
    store = cached[1]
    key = _machine_key(cfg)
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
#: ``path`` field (``inline:<reason>`` for configs the stream path
#: declined and ran on live outcomes).  Exposed for tests and
#: ``obs_report``.
_replay_paths: Dict[str, int] = {}


def replay_path_counts() -> Dict[str, int]:
    return dict(_replay_paths)


def _count_path(path: str) -> None:
    _replay_paths[path] = _replay_paths.get(path, 0) + 1


def _decline(reason: str, eg=None) -> None:
    """Record that the stream path handed this run to the live source."""
    _count_path("inline:" + reason)
    tracer = obs.current()
    if tracer.enabled:
        tags = {"path": "inline", "reason": reason}
        if eg is not None:
            tags["predictor"] = eg.predictor
        tracer.event("sim.replay", **tags)


def _copy_stats(stats: SimStats) -> SimStats:
    from dataclasses import replace

    return replace(stats, scheme_counts=dict(stats.scheme_counts))


def try_fast(sim: TimingSimulator) -> Optional[SimStats]:
    """Run *sim* on the precomputed-stream path (building the trace's
    precompute on first use), or return None when the config needs
    live outcomes or the replay diverged (wrong-address pollution that
    did not dispatch).

    Within the stream path a stats memo hit for an identical stream
    tuple short-circuits the scalar replay.
    """
    cfg = sim.config
    eg = cfg.earlygen
    trace = sim.trace
    sb = _scheme_bytes(trace.program, eg, sim.spec_override)
    if sb is None:
        # Run-time (dual-path) selection is timing-dependent.
        _decline("hw-dual", eg)
        return None
    pre = get_precompute(trace, cfg)
    route = pre.route_for(sb)
    ecodes = pre.estream(eg, route)
    global _divergences, _divergence_fallbacks
    excluded = pre.known_exclusions(eg, route)
    patched = 0
    for _ in range(_MAX_PATCH_RETRIES + 1):
        dcodes, dmiss, store_miss, poll_miss = pre.dstream(
            eg, route, excluded
        )
        dtotals = (dmiss, store_miss, poll_miss)
        memo_key = (route, dcodes, dtotals, ecodes, excluded)
        memo = pre._stats_memo.get(memo_key)
        diverged: list = []
        if memo is not None:
            # The replay is a pure function of the stream tuple (the
            # machine shape is fixed per precompute), so an identical
            # tuple short-circuits to the memoized result.
            pre._stats_memo.move_to_end(memo_key)
            stats, ra_interlock = memo
            stats = _copy_stats(stats)
            path = "memo"
        else:
            path = "scalar"
            stats, ra_interlock = _replay(
                pre, cfg, route, dcodes, dtotals, ecodes,
                excluded, diverged,
            )
        if not diverged:
            pre.remember_exclusions(eg, route, excluded)
            if path == "scalar":
                memo_store = pre._stats_memo
                while len(memo_store) >= _STATS_MEMO_LIMIT:
                    memo_store.popitem(last=False)
                memo_store[memo_key] = (_copy_stats(stats), ra_interlock)
            _count_path(path)
            tracer = obs.current()
            if tracer.enabled:
                tracer.event(
                    "sim.replay",
                    patches=patched,
                    table=eg.table_entries,
                    regs=eg.cached_regs,
                    selection=eg.selection.value,
                    predictor=eg.predictor,
                    path=path,
                )
            _emit_counters(eg, stats, ra_interlock)
            return stats
        # The stream's fill assumptions disagreed with the ports the
        # replay actually saw: flip every recorded ordinal and rebuild.
        # Only a zero-divergence replay is accepted, so patching can
        # never return inexact stats; stats from this attempt are
        # discarded.
        _divergences += len(diverged)
        patched += len(diverged)
        excluded = excluded.symmetric_difference(diverged)
    _divergence_fallbacks += 1
    _decline("divergence-fallback", eg)
    return None


def run_live(sim: TimingSimulator) -> SimStats:
    """Run *sim* through the scheduler on live outcomes.

    This is :meth:`TimingSimulator.run`, and what :func:`simulate_many`
    falls back to for every config :func:`try_fast` declines.
    """
    cfg = sim.config
    trace = sim.trace
    pre = get_precompute(trace, cfg)
    sb = _scheme_bytes(trace.program, cfg.earlygen, sim.spec_override)
    route = pre.route_for(sb) if sb is not None else None
    stats, ra_interlock = _replay(pre, cfg, route, sim=sim)
    _emit_counters(cfg.earlygen, stats, ra_interlock)
    return stats


def _emit_counters(eg: EarlyGenConfig, stats: SimStats,
                   ra_interlock: int) -> None:
    """Post-run observability seam: the ``sim.counters`` event."""
    tracer = obs.current()
    if not tracer.enabled:
        return
    tracer.event(
        "sim.counters",
        counters=TimingSimulator._event_counters(stats, ra_interlock),
        table=eg.table_entries,
        regs=eg.cached_regs,
        selection=eg.selection.value,
    )


def _store_interlock(sq: deque, c: int, word: int) -> bool:
    """Mem_Interlock for a speculative access at cycle *c*: an in-flight
    store (issued at ``s``, writing at ``s + 1``) to *word* writes after
    *c*.  Stores that can no longer interlock any later access leave
    the queue.  The live source calls this; the stream loads, the hot
    path of config sweeps, spell it out in place."""
    while sq and sq[0][0] + 1 <= c:
        sq.popleft()
    for _, s_word in sq:
        if s_word == word:
            return True
    return False


def _with_watch_marks(records: list) -> list:
    """*records* with a watch mark after each one; the mark's ``extra``
    is the record it follows."""
    marks: dict = {}
    out: list = []
    append = out.append
    for rec in records:
        mark = marks.get(id(rec))
        if mark is None:
            mark = marks[id(rec)] = (_K_WATCH, 0, _NO_SRC, _NO_SRC,
                                     _NO_SRC, _NO_DEST, rec)
        append(rec)
        append(mark)
    return out


def _replay(pre: TracePrecompute, cfg: MachineConfig,
            route: Optional[bytes], dcodes: bytes = b"",
            dtotals: tuple = (0, 0, 0), ecodes: bytes = b"",
            excluded: frozenset = frozenset(),
            diverged: Optional[list] = None,
            sim: Optional[TimingSimulator] = None):
    """The timing loop: one pass over the trace's scheduler records.

    Outcomes come from one of two sources:

    * **precomputed streams** (``sim`` None): ``dcodes``/``dtotals``
      and ``ecodes`` from :meth:`TracePrecompute.dstream` and
      :meth:`TracePrecompute.estream` under ``route``; wrong-address
      dispatches that disagree with the stream are appended to
      ``diverged``;
    * **live** (``sim`` set): each load probes and updates the
      predictor backend, the d-cache and ``R_addr`` or the BRIC
      register cache as it issues, and each store write-accesses the
      d-cache.  ``route`` None means hardware dual-path selection,
      decided per load at decode.  When ``sim`` collects a timeline, a
      watch mark follows every record; otherwise the loop never tests
      for them.

    The scoreboard is a handful of locals because the issue cycle is
    monotone: ``iss`` / ``alu`` / ``fpu`` / ``bru`` count units consumed
    at the current cycle, and a three-slot window ``pp`` / ``pm`` /
    ``pc`` tracks memory ports at cycles ``cur-1`` / ``cur`` / ``cur+1``
    (speculative accesses charge ``pp``, normal MEM accesses charge
    ``pc``).  Every clock advance shifts the window by the advance
    distance.  Returns ``(stats, raddr_interlocks)``.
    """
    records = pre.records
    lword = pre.lword
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

    spec_any = route is None or 1 in route or 2 in route
    sq: deque = deque()
    sq_append = sq.append
    sq_popleft = sq.popleft

    li = 0
    si = 0
    pred_disp = pred_succ = pred_wrong = 0
    calc_disp = calc_succ = calc_part = 0
    sp_noport = sp_interlock = sp_dmiss = 0
    ra_interlock = 0

    timeline = None
    if sim is not None:
        records = pre.live_records()
        eg = cfg.earlygen
        dcache = DirectMappedCache(cfg.dcache)
        dc_probe = dcache.probe
        dc_access = dcache.access
        dc_write = dcache.write_access
        table = _create_predictor(eg)
        if table is not None:
            tb_probe = table.probe
            tb_update = table.update
            # Backends that train on the demand d-cache outcome get it
            # as an extra update argument, probed before the demand
            # access (nothing touches the cache in between).
            tb_demand = table.trains_on_demand
        use_raddr = eg.selection is SelectionMode.COMPILER
        bound = -1  # R_addr binding (a register slot)
        if eg.cached_regs and not use_raddr:
            regcache = RegisterCache(eg.cached_regs)
            rc_probe = regcache.probe
            rc_insert = regcache.insert
        hw_dual = route is None
        if hw_dual:
            route = bytearray(pre.n_loads)
        mseq_ea = pre.mseq_ea
        lpc = pre.lpc
        lro = pre.lro
        ldisp = pre.ldisp
        mi = 0  # memory-op ordinal (loads and stores)
        dmiss = store_miss = poll_miss = 0
        if sim.collect_timeline:
            # A watch mark after every record, so runs without a
            # timeline (and the stream path) never test for one.
            timeline = []
            records = _with_watch_marks(records)
            tl_append = timeline.append
            uids = pre.uids
            i = 0

    for k, pen, s1, s2, s3, dest, x in records:
        if pen:
            if pen == 1:
                pp = pm
                pm = pc
            elif pen == 2:
                pp = pc
                pm = 0
            else:
                pp = 0
                pm = 0
            pc = 0
            iss = alu = fpu = bru = 0
            cur += pen

        t = rr[s1]
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

        # Kind codes are repro.sim.pipeline's _K_* constants.
        if k == 2:  # int ALU
            if iss >= width or alu >= n_alus:
                cur += 1
                pp = pm
                pm = pc
                pc = 0
                iss = alu = fpu = bru = 0
            iss += 1
            alu += 1
            rr[dest] = cur + x

        elif k == 0:  # load, precomputed outcomes
            code = dcodes[li]
            r = route[li]
            if r == 0:
                if iss >= width or pc >= n_ports:
                    cur += 1
                    pp = pm
                    pm = pc
                    pc = 0
                    iss = alu = fpu = bru = 0
                iss += 1
                pc += 1
                rr[dest] = cur + (ld_lat if code else miss_lat)
            elif r == 1:
                success = False
                if code & 2:  # functioning prediction
                    if pp < n_ports:
                        pp += 1
                        pred_disp += 1
                        if code & 4:  # predicted address was right
                            c = cur - 1
                            ilk = False
                            if sq:
                                while sq and sq[0][0] + 1 <= c:
                                    sq_popleft()
                                w = lword[li]
                                for _, s_w in sq:
                                    if s_w == w:
                                        ilk = True
                                        break
                            if ilk:
                                sp_interlock += 1
                            elif code & 1:
                                success = True
                                pred_succ += 1
                            else:
                                sp_dmiss += 1
                        else:
                            if li in excluded:
                                # The stream assumed this wrong-address
                                # access would NOT fill the cache, yet
                                # it found a free port and dispatched.
                                diverged.append(li)
                            pred_wrong += 1
                    else:
                        if not code & 4 and li not in excluded:
                            # The stream assumed this wrong-address
                            # access filled the cache; it had no port.
                            diverged.append(li)
                        sp_noport += 1
                if success:
                    if iss >= width:
                        cur += 1
                        pp = pm
                        pm = pc
                        pc = 0
                        iss = alu = fpu = bru = 0
                    iss += 1
                    rr[dest] = cur + ld_hit_lat
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
            else:  # r == 2: early calculation
                success = False
                lat = 0
                ec = ecodes[li]
                if ec:
                    if pp < n_ports:
                        pp += 1
                        calc_disp += 1
                        if rr[lbase[li]] > cur - 2:
                            # base not written back by ID1
                            ra_interlock += 1
                        else:
                            c = cur - 1
                            ilk = False
                            if sq:
                                while sq and sq[0][0] + 1 <= c:
                                    sq_popleft()
                                w = lword[li]
                                for _, s_w in sq:
                                    if s_w == w:
                                        ilk = True
                                        break
                            if ilk:
                                sp_interlock += 1
                            elif code & 1:
                                success = True
                                calc_succ += 1
                                if ec & 2:
                                    calc_part += 1
                                    lat = 1
                            else:
                                sp_dmiss += 1
                    else:
                        sp_noport += 1
                if success:
                    if iss >= width:
                        cur += 1
                        pp = pm
                        pm = pc
                        pc = 0
                        iss = alu = fpu = bru = 0
                    iss += 1
                    rr[dest] = cur + lat
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

        elif k >= 8:  # branch, jump, return, call
            if iss >= width or bru >= n_brus:
                cur += 1
                pp = pm
                pm = pc
                pc = 0
                iss = alu = fpu = bru = 0
            iss += 1
            bru += 1
            if k == 11:  # call writes the link register
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

        elif k == 1:  # store
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

        elif k == 3:  # FP
            if iss >= width or fpu >= n_fpus:
                cur += 1
                pp = pm
                pm = pc
                pc = 0
                iss = alu = fpu = bru = 0
            iss += 1
            fpu += 1
            rr[dest] = cur + x

        elif k == 4:  # HALT/NOP, issue-width bound only
            if iss >= width:
                cur += 1
                pp = pm
                pm = pc
                pc = 0
                iss = alu = fpu = bru = 0
            iss += 1
            rr[dest] = cur + x

        elif k == 5:  # load, live outcomes
            # The record's operand slots are empty, so the clock is
            # still the decode cycle: dual-path selection reads the
            # base register's interlock here, then the load waits on
            # its own sources.
            t_dec = cur
            s1, s2, s3 = x
            t = rr[s1]
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
            ea = mseq_ea[mi]
            mi += 1
            base = lbase[li]
            if hw_dual:
                # Eickemeyer-Vassiliadis: prediction only for loads
                # whose base register is interlocked at decode.
                r = 1 if rr[base] > t_dec - 2 else 2
                route[li] = r
            else:
                r = route[li]
            success = False
            lat = ld_lat
            if r == 1:
                pc_addr = lpc[li]
                predicted = tb_probe(pc_addr)
                if predicted is not None:
                    if pp < n_ports:
                        pp += 1
                        pred_disp += 1
                        if predicted == ea:
                            if sq and _store_interlock(sq, cur - 1,
                                                       lword[li]):
                                sp_interlock += 1
                            elif dc_probe(ea):
                                success = True
                                lat = ld_hit_lat
                                pred_succ += 1
                            else:
                                sp_dmiss += 1
                        else:
                            pred_wrong += 1
                            # The wrong-address access still fetches
                            # its block (the paper's "extra load").
                            if not dc_access(predicted):
                                poll_miss += 1
                    else:
                        sp_noport += 1
                if tb_demand:
                    tb_update(pc_addr, ea, predicted, dc_probe(ea))
                else:
                    tb_update(pc_addr, ea, predicted)
            elif r == 2:
                # ec: 1 = may dispatch, 3 = reg+reg partial case.  Every
                # load on this path then rebinds R_addr / fills the
                # register cache (neither touches ports or the d-cache).
                if use_raddr:
                    # A load that just switched the binding reads a
                    # stale value; reg+reg cannot use R_addr at all.
                    ec = 1 if bound == base and lro[li] else 0
                    bound = base
                else:
                    ec = 0
                    if rc_probe(base):
                        if lro[li]:
                            ec = 1
                        elif rc_probe(ldisp[li]):
                            ec = 3
                    rc_insert(base)
                if ec:
                    if pp < n_ports:
                        pp += 1
                        calc_disp += 1
                        if rr[base] > cur - 2:
                            # base not written back by ID1
                            ra_interlock += 1
                        elif sq and _store_interlock(sq, cur - 1,
                                                     lword[li]):
                            sp_interlock += 1
                        elif dc_probe(ea):
                            success = True
                            calc_succ += 1
                            if ec & 2:
                                calc_part += 1
                                lat = 1
                            else:
                                lat = 0
                        else:
                            sp_dmiss += 1
                    else:
                        sp_noport += 1
            if success:
                if iss >= width:
                    cur += 1
                    pp = pm
                    pm = pc
                    pc = 0
                    iss = alu = fpu = bru = 0
                iss += 1
                dc_access(ea)  # the probed block is present: a hit
            else:
                if iss >= width or pc >= n_ports:
                    cur += 1
                    pp = pm
                    pm = pc
                    pc = 0
                    iss = alu = fpu = bru = 0
                iss += 1
                pc += 1
                if not dc_access(ea):
                    dmiss += 1
                    lat = miss_lat
            rr[dest] = cur + lat
            li += 1

        elif k == 6:  # store, live outcomes
            if iss >= width or pc >= n_ports:
                cur += 1
                pp = pm
                pm = pc
                pc = 0
                iss = alu = fpu = bru = 0
            iss += 1
            pc += 1
            # Write-through, no-allocate: misses count, nothing fills.
            if not dc_write(mseq_ea[mi]):
                store_miss += 1
            mi += 1
            if spec_any:
                sq_append((cur, sword[si]))
                if len(sq) > 32:
                    c = cur - 1
                    while sq[0][0] + 1 <= c:
                        sq_popleft()
            si += 1

        else:  # k == 7: watch mark for the record just issued
            # The mark has no fetch penalty, sources or destination, so
            # the clock and scoreboard are as that record left them.
            k = x[0]
            if k >= 8:  # issue cycle, before the redirect
                x = x[6]
                note = "branch mispredict" if x > 1 else "branch"
                tl_append((uids[i], cur - x, note))
            else:
                if k == 5:
                    ch = "npe"[r]
                    if success:
                        note = f"{ch}-hit lat={lat}"
                    elif r:
                        note = f"{ch}-miss lat={lat}"
                    else:
                        note = f"load lat={lat}"
                else:
                    note = "store" if k == 6 else ""
                tl_append((uids[i], cur, note))
            i += 1

    if sim is not None:
        dtotals = (dmiss, store_miss, poll_miss)
    stats = _assemble_stats(
        pre, route, dtotals, cur,
        pred_disp, pred_succ, pred_wrong,
        calc_disp, calc_succ, calc_part,
        sp_noport, sp_interlock, sp_dmiss,
    )
    stats.timeline = timeline
    return stats, ra_interlock


def _assemble_stats(pre: TracePrecompute, route: bytes, dtotals: tuple,
                    cur: int,
                    pred_disp: int, pred_succ: int, pred_wrong: int,
                    calc_disp: int, calc_succ: int, calc_part: int,
                    sp_noport: int, sp_interlock: int,
                    sp_dmiss: int) -> SimStats:
    """SimStats from one replay's counters and the precomputed totals."""
    dmiss_total, store_miss_total, poll_miss_total = dtotals
    n_loads = pre.n_loads
    sc_p = route.count(1)
    sc_e = route.count(2)

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
        sb = _scheme_bytes(trace.program, eg, ov)
        if sb is None:  # hardware dual-path: live outcomes only
            continue
        route = pre.route_for(sb)
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
    order and byte-identical to independent ``TimingSimulator`` runs —
    configs the streams cannot express (hardware dual-path, diverging
    pollution) run the same loop on live outcomes.
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
            stats = try_fast(sim)
            if stats is None:
                stats = run_live(sim)
        results.append(stats)
    return results
