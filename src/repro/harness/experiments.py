"""Drivers that regenerate the paper's evaluation artifacts.

Every public function takes an :class:`ExperimentContext`, which caches
the expensive per-workload artifacts (compiled program, functional
trace, baseline timing run, address profile) so that the figure drivers
can share them.  ``scale`` shrinks or grows workload iteration counts
relative to their defaults, letting the same drivers run as fast smoke
benchmarks or as full experiments.

Experiment map (see DESIGN.md):

========  ==========================================================
table2    load-class mix and NT/PD prediction rates, SPEC suite
fig5a     prediction-table-only speedups, 4..256 entries,
          hardware-only vs compiler-directed allocation
fig5b     early-calculation-only speedups, 4/8/16 cached registers
fig5c     dual-path comparison: best single-path hw, dual hw-only,
          dual compiler, dual compiler+profiling
table3    profile-guided classification: speedup, PD shares, rates
table4    MediaBench mix, prediction rates, and speedup
========  ==========================================================
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.compiler.driver import CompileOptions, CompileResult, compile_source
from repro.errors import OutputMismatchError
from repro.compiler.profile_feedback import (
    DEFAULT_THRESHOLD,
    profile_overrides,
)
from repro.isa.opcodes import LoadSpec
from repro.profiling.address_profile import AddressProfile, profile_trace
from repro.sim.executor import Executor
from repro.sim.machine import (
    BASELINE,
    EarlyGenConfig,
    MachineConfig,
    SelectionMode,
)
from repro.sim.pipeline import TimingSimulator
from repro.sim.stats import SimStats
from repro.sim.trace import Trace
from repro.workloads import get_workload, workload_names


@dataclass
class WorkloadRun:
    """Cached artifacts of one compiled-and-emulated workload."""

    name: str
    compile_result: CompileResult
    trace: Trace
    steps: int
    profile: Optional[AddressProfile] = None
    baseline: Optional[SimStats] = None
    _sims: Dict = field(default_factory=dict)

    @property
    def program(self):
        return self.compile_result.program

    def get_profile(self) -> AddressProfile:
        if self.profile is None:
            tracer = obs.current()
            with tracer.span("profile", workload=self.name):
                self.profile = profile_trace(self.program, self.trace)
            if tracer.enabled:
                emit_profile_event(tracer, self.name, self.profile)
        return self.profile


def emit_profile_event(tracer, name: str, profile: AddressProfile) -> None:
    """Emit the per-class load counts behind Table 2 as a trace event.

    ``obs_report`` rebuilds the per-workload Table 2/4 share and rate
    columns from exactly this record, so the tables become a projection
    of the trace instead of a separate computation.
    """
    counts = profile.per_class_counts()
    counters = {"dyn_loads": profile.dynamic_loads}
    for group in ("static", "dynamic", "correct"):
        for cls in ("n", "p", "e"):
            counters[f"{group}_{cls}"] = counts[group][cls]
    tracer.event("profile.classes", counters=counters, workload=name)


class ExperimentContext:
    """Compiles, emulates, and simulates workloads with caching.

    ``verify`` checks emulated output against the pure-Python reference;
    ``verify_ir`` additionally runs the structural IR verifier between
    compiler passes.  ``fault_injector`` is the test seam that lets a
    chosen workload crash, hang, or corrupt its IR/output.
    """

    def __init__(
        self,
        scale: float = 1.0,
        machine: Optional[MachineConfig] = None,
        verify: bool = True,
        verify_ir: bool = True,
        fault_injector=None,
    ):
        self.scale = scale
        self.machine = machine if machine is not None else MachineConfig()
        self.verify = verify
        self.verify_ir = verify_ir
        self.fault_injector = fault_injector
        self._runs: Dict[str, WorkloadRun] = {}

    def _scaled(self, name: str) -> int:
        workload = get_workload(name)
        return max(1, int(round(workload.default_scale * self.scale)))

    def run(self, name: str) -> WorkloadRun:
        cached = self._runs.get(name)
        if cached is not None:
            return cached
        workload = get_workload(name)
        scale = self._scaled(name)
        injector = self.fault_injector
        options = CompileOptions(
            verify=self.verify_ir,
            post_pass_hook=(
                injector.post_pass_hook(name) if injector else None
            ),
        )
        tracer = obs.current()
        with tracer.span("prepare", workload=name):
            result = compile_source(workload.source(scale), options)
            with tracer.span("emulate", workload=name) as span:
                exec_result = Executor(result.program).run()
                if tracer.enabled:
                    span.set_counters(steps=exec_result.steps)
            output = exec_result.output
            if injector:
                output = injector.corrupt_output(name, output)
            if self.verify:
                expected = workload.expected_output(scale)
                if output != expected:
                    raise OutputMismatchError(
                        f"emulated output {output} != reference {expected}",
                        workload=name,
                    )
        run = WorkloadRun(
            name, result, exec_result.trace, exec_result.steps
        )
        self._runs[name] = run
        return run

    def baseline_stats(self, name: str) -> SimStats:
        run = self.run(name)
        if run.baseline is None:
            with obs.current().span(
                "sim", workload=name, config="baseline"
            ):
                run.baseline = TimingSimulator(
                    run.trace, self.machine.with_earlygen(BASELINE)
                ).run()
        return run.baseline

    def sim(
        self,
        name: str,
        earlygen: EarlyGenConfig,
        spec_override: Optional[Dict[int, LoadSpec]] = None,
        cache_key: Optional[str] = None,
    ) -> SimStats:
        run = self.run(name)
        key = (earlygen, cache_key)
        cached = run._sims.get(key)
        if cached is not None:
            return cached
        with obs.current().span(
            "sim", workload=name, config=eg_tag(earlygen, cache_key)
        ):
            stats = TimingSimulator(
                run.trace, self.machine.with_earlygen(earlygen),
                spec_override,
            ).run()
        run._sims[key] = stats
        return stats

    def speedup(
        self,
        name: str,
        earlygen: EarlyGenConfig,
        spec_override: Optional[Dict[int, LoadSpec]] = None,
        cache_key: Optional[str] = None,
    ) -> float:
        stats = self.sim(name, earlygen, spec_override, cache_key)
        return self.baseline_stats(name).cycles / stats.cycles

    def prefetch_sims(self, name: str, threshold: float = None) -> None:
        """Run every sim the row drivers will request for *name* in one
        batch, sharing a single trace precompute across the sweep.

        Fills :attr:`WorkloadRun.baseline` and the per-config sim cache
        with :class:`SimStats` byte-identical to what the lazy
        :meth:`sim` calls would have produced (see
        :mod:`repro.sim.precompute`); the drivers then hit the cache
        instead of simulating one config at a time.  Already-cached
        entries are left untouched, so a plan miss or a manual
        :meth:`sim` call stays harmless.
        """
        from repro.sim.precompute import simulate_many

        if threshold is None:
            threshold = DEFAULT_THRESHOLD
        run = self.run(name)
        suite = get_workload(name).suite
        configs: List = []
        overrides: List = []
        tags: List = []
        keys: List = []
        if run.baseline is None:
            configs.append(BASELINE)
            overrides.append(None)
            tags.append({"workload": name, "config": "baseline"})
            keys.append(None)
        for req in sim_requests(suite):
            if (req.earlygen, req.cache_key) in run._sims:
                continue
            override = None
            if req.use_profile_override:
                override = profile_overrides(
                    run.program, run.trace, threshold,
                    run.get_profile().predictor,
                )
            configs.append(req.earlygen)
            overrides.append(override)
            tags.append({
                "workload": name,
                "config": eg_tag(req.earlygen, req.cache_key),
            })
            keys.append((req.earlygen, req.cache_key))
        if not configs:
            return
        stats_list = simulate_many(
            run.trace, configs, machine=self.machine,
            overrides=overrides, span_tags=tags,
        )
        for key, stats in zip(keys, stats_list):
            if key is None:
                run.baseline = stats
            else:
                run._sims[key] = stats


def _geomean(values: List[float]) -> float:
    """Geometric mean; NaN (with a warning) for undefined inputs.

    The geometric mean only exists for a non-empty sequence of positive
    values.  Degraded rows or a bug upstream can hand this empty lists
    or zero/negative speedups; propagating NaN keeps the summary row
    visibly wrong instead of crashing the table assembly (or silently
    reporting 0).
    """
    if not values:
        warnings.warn("geomean of an empty sequence is undefined",
                      RuntimeWarning, stacklevel=2)
        return float("nan")
    if any(v <= 0 or math.isnan(v) for v in values):
        warnings.warn(
            "geomean is undefined for non-positive or NaN values "
            f"(got {sorted(values)[:3]}...)",
            RuntimeWarning, stacklevel=2,
        )
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def eg_tag(earlygen: EarlyGenConfig, cache_key: Optional[str] = None) -> str:
    """Short trace tag for one early-gen config, e.g. ``t256_r1_compiler``."""
    if not earlygen.enabled:
        return "baseline"
    tag = (
        f"t{earlygen.table_entries}_r{earlygen.cached_regs}"
        f"_{earlygen.selection.value}"
    )
    if earlygen.table_entries and earlygen.predictor != "stride":
        tag += f"_{earlygen.predictor}"
    if cache_key:
        tag += f"+{cache_key}"
    return tag


# ---------------------------------------------------------------------------
# Simulation plan
# ---------------------------------------------------------------------------

#: Prediction-table sweep of Figure 5a (see :func:`fig5a`).
FIG5A_TABLE_SIZES = (4, 16, 64, 128, 256)
#: Cached-register sweep of Figure 5b (see :func:`fig5b`).
FIG5B_REG_COUNTS = (4, 8, 16)


@dataclass(frozen=True)
class SimRequest:
    """One independent timing-simulator run of a workload's trace.

    ``cache_key`` mirrors the ``cache_key`` argument of
    :meth:`ExperimentContext.sim`; ``use_profile_override`` marks the
    profile-guided runs that replay with Section 4.3 reclassification
    (the override map itself is derived from the workload's trace).
    """

    earlygen: EarlyGenConfig
    cache_key: Optional[str] = None
    use_profile_override: bool = False


def sim_requests(suite: str) -> List[SimRequest]:
    """Every :class:`EarlyGenConfig` replay a suite's row fragments need.

    The list is deduplicated and ordered; it does not include the
    no-early-generation baseline run (see
    :meth:`ExperimentContext.baseline_stats`).  The experiment drivers
    remain the source of truth for the row *values* — this plan only
    enumerates which independent sims they will request, so
    :meth:`ExperimentContext.prefetch_sims` can batch them through one
    shared precompute and pre-populate the context cache.  A plan miss
    is harmless: the context falls back to simulating inline.
    """
    requests: Dict[tuple, SimRequest] = {}

    def add(earlygen, cache_key=None, use_profile_override=False):
        key = (earlygen, cache_key)
        if key not in requests:
            requests[key] = SimRequest(earlygen, cache_key,
                                       use_profile_override)

    if suite == "spec":
        for size in FIG5A_TABLE_SIZES:
            add(EarlyGenConfig(size, 0, SelectionMode.HARDWARE))
            add(EarlyGenConfig(size, 0, SelectionMode.COMPILER))
        for count in FIG5B_REG_COUNTS:
            add(EarlyGenConfig(0, count, SelectionMode.HARDWARE))
        add(EarlyGenConfig(256, 1, SelectionMode.HARDWARE))
        add(EarlyGenConfig(256, 1, SelectionMode.COMPILER))
        add(EarlyGenConfig(256, 1, SelectionMode.COMPILER),
            cache_key="profile", use_profile_override=True)
    elif suite in ("mediabench", "gen"):
        # Generated workloads report the Table-4-style row: the
        # proposed compiler-selected configuration only.
        add(EarlyGenConfig(256, 1, SelectionMode.COMPILER))
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return list(requests.values())


def _spec_names(names: Optional[List[str]]) -> List[str]:
    return names if names is not None else workload_names("spec")


def _media_names(names: Optional[List[str]]) -> List[str]:
    return names if names is not None else workload_names("mediabench")


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------

def table2(
    ctx: ExperimentContext, names: Optional[List[str]] = None
) -> List[dict]:
    """Load-class mix and NT/PD prediction rates for the SPEC suite.

    Columns mirror the paper's Table 2: dynamic loads, static and dynamic
    shares of NT/PD/EC, and the unbounded-predictor prediction rates of
    the NT and PD classes.
    """
    rows = []
    for name in _spec_names(names):
        run = ctx.run(name)
        profile = run.get_profile()
        static = profile.static_class_shares()
        dynamic = profile.dynamic_class_shares()
        rates = profile.class_rates()
        rows.append(
            {
                "benchmark": name,
                "dyn_loads": profile.dynamic_loads,
                "static_nt": static["n"] * 100,
                "static_pd": static["p"] * 100,
                "static_ec": static["e"] * 100,
                "dyn_nt": dynamic["n"] * 100,
                "dyn_pd": dynamic["p"] * 100,
                "dyn_ec": dynamic["e"] * 100,
                "rate_nt": rates["n"] * 100,
                "rate_pd": rates["p"] * 100,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 5a — prediction-table-only sweep
# ---------------------------------------------------------------------------

def fig5a(
    ctx: ExperimentContext,
    names: Optional[List[str]] = None,
    table_sizes: tuple = FIG5A_TABLE_SIZES,
) -> List[dict]:
    """Speedup with only the prediction table, hw-only vs compiler.

    In hardware-only mode every load is allocated a table entry; in
    compiler mode only the loads classified ``ld_p`` use the table.

    The paper sweeps 64/128/256 entries against SPEC binaries with
    thousands of static loads; our workloads have tens, so the sweep is
    extended down to 4 and 16 entries to cover the same
    conflict-pressure regime (static loads per table entry).
    """
    rows = []
    for name in _spec_names(names):
        row = {"benchmark": name}
        for size in table_sizes:
            row[f"hw_{size}"] = ctx.speedup(
                name,
                EarlyGenConfig(size, 0, SelectionMode.HARDWARE),
            )
            row[f"cc_{size}"] = ctx.speedup(
                name,
                EarlyGenConfig(size, 0, SelectionMode.COMPILER),
            )
        rows.append(row)
    summary = {"benchmark": "geomean"}
    for size in table_sizes:
        for kind in ("hw", "cc"):
            summary[f"{kind}_{size}"] = _geomean(
                [row[f"{kind}_{size}"] for row in rows]
            )
    rows.append(summary)
    return rows


# ---------------------------------------------------------------------------
# Figure 5b — early-calculation-only sweep
# ---------------------------------------------------------------------------

def fig5b(
    ctx: ExperimentContext,
    names: Optional[List[str]] = None,
    reg_counts: tuple = FIG5B_REG_COUNTS,
) -> List[dict]:
    """Speedup with only the BRIC-style register cache (hardware-only)."""
    rows = []
    for name in _spec_names(names):
        row = {"benchmark": name}
        for count in reg_counts:
            row[f"regs_{count}"] = ctx.speedup(
                name,
                EarlyGenConfig(0, count, SelectionMode.HARDWARE),
            )
        rows.append(row)
    summary = {"benchmark": "geomean"}
    for count in reg_counts:
        summary[f"regs_{count}"] = _geomean(
            [row[f"regs_{count}"] for row in rows]
        )
    rows.append(summary)
    return rows


# ---------------------------------------------------------------------------
# Figure 5c — dual-path comparison
# ---------------------------------------------------------------------------

def fig5c(
    ctx: ExperimentContext,
    names: Optional[List[str]] = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> List[dict]:
    """The paper's headline comparison.

    Five configurations per benchmark:

    * ``hw_table`` — 256-entry table only, hardware-allocated (5a's best)
    * ``hw_calc`` — 16 cached registers only (5b's best)
    * ``hw_dual`` — 256-entry table + 1 register, run-time selection
    * ``cc_dual`` — same hardware, compiler-directed (the proposal)
    * ``cc_prof`` — compiler-directed plus address profiling
    """
    rows = []
    for name in _spec_names(names):
        run = ctx.run(name)
        overrides = profile_overrides(run.program, run.trace, threshold,
                                      run.get_profile().predictor)
        row = {
            "benchmark": name,
            "hw_table": ctx.speedup(
                name, EarlyGenConfig(256, 0, SelectionMode.HARDWARE)
            ),
            "hw_calc": ctx.speedup(
                name, EarlyGenConfig(0, 16, SelectionMode.HARDWARE)
            ),
            "hw_dual": ctx.speedup(
                name, EarlyGenConfig(256, 1, SelectionMode.HARDWARE)
            ),
            "cc_dual": ctx.speedup(
                name, EarlyGenConfig(256, 1, SelectionMode.COMPILER)
            ),
            "cc_prof": ctx.speedup(
                name,
                EarlyGenConfig(256, 1, SelectionMode.COMPILER),
                spec_override=overrides,
                cache_key="profile",
            ),
        }
        rows.append(row)
    summary = {"benchmark": "geomean"}
    for key in ("hw_table", "hw_calc", "hw_dual", "cc_dual", "cc_prof"):
        summary[key] = _geomean([row[key] for row in rows])
    rows.append(summary)
    return rows


# ---------------------------------------------------------------------------
# Table 3 — profile-guided classification
# ---------------------------------------------------------------------------

def table3(
    ctx: ExperimentContext,
    names: Optional[List[str]] = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> List[dict]:
    """Speedup and PD shares after profile-guided reclassification."""
    rows = []
    for name in _spec_names(names):
        run = ctx.run(name)
        profile = run.get_profile()
        overrides = profile_overrides(
            run.program, run.trace, threshold, profile.predictor
        )
        static = profile.static_class_shares(overrides)
        dynamic = profile.dynamic_class_shares(overrides)
        rates = profile.class_rates(overrides)
        rows.append(
            {
                "benchmark": name,
                "speedup": ctx.speedup(
                    name,
                    EarlyGenConfig(256, 1, SelectionMode.COMPILER),
                    spec_override=overrides,
                    cache_key="profile",
                ),
                "static_pd": static["p"] * 100,
                "dyn_pd": dynamic["p"] * 100,
                "rate_nt": rates["n"] * 100,
                "rate_pd": rates["p"] * 100,
            }
        )
    summary = {
        "benchmark": "average",
        "speedup": _geomean([row["speedup"] for row in rows]),
        "static_pd": sum(r["static_pd"] for r in rows) / len(rows),
        "dyn_pd": sum(r["dyn_pd"] for r in rows) / len(rows),
        "rate_nt": sum(r["rate_nt"] for r in rows) / len(rows),
        "rate_pd": sum(r["rate_pd"] for r in rows) / len(rows),
    }
    rows.append(summary)
    return rows


# ---------------------------------------------------------------------------
# Table 4 — MediaBench
# ---------------------------------------------------------------------------

def table4(
    ctx: ExperimentContext, names: Optional[List[str]] = None
) -> List[dict]:
    """MediaBench load mix, prediction rates, and proposed-config speedup."""
    rows = []
    for name in _media_names(names):
        run = ctx.run(name)
        profile = run.get_profile()
        static = profile.static_class_shares()
        dynamic = profile.dynamic_class_shares()
        rates = profile.class_rates()
        rows.append(
            {
                "benchmark": name,
                "dyn_loads": profile.dynamic_loads,
                "static_nt": static["n"] * 100,
                "static_pd": static["p"] * 100,
                "static_ec": static["e"] * 100,
                "dyn_nt": dynamic["n"] * 100,
                "dyn_pd": dynamic["p"] * 100,
                "dyn_ec": dynamic["e"] * 100,
                "rate_nt": rates["n"] * 100,
                "rate_pd": rates["p"] * 100,
                "speedup": ctx.speedup(
                    name, EarlyGenConfig(256, 1, SelectionMode.COMPILER)
                ),
            }
        )
    if rows:
        summary = {"benchmark": "average", "dyn_loads": 0}
        for key in rows[0]:
            if key in ("benchmark",):
                continue
            if key == "speedup":
                summary[key] = _geomean([r[key] for r in rows])
            else:
                summary[key] = sum(r[key] for r in rows) / len(rows)
        rows.append(summary)
    return rows


# ---------------------------------------------------------------------------
# Predictor-backend ablation (beyond the paper: the speculation zoo)
# ---------------------------------------------------------------------------

#: The hardware context every backend is compared in: the paper's
#: proposed configuration (256-entry table + 1 compiler-directed
#: register), with only the prediction backend swapped.
ABLATION_TABLE_ENTRIES = 256
ABLATION_CACHED_REGS = 1


def ablation_config(backend: str) -> EarlyGenConfig:
    """The proposed-config variant running *backend* on the P path."""
    return EarlyGenConfig(
        ABLATION_TABLE_ENTRIES, ABLATION_CACHED_REGS,
        SelectionMode.COMPILER, predictor=backend,
    )


def ablation_row(
    ctx: ExperimentContext, name: str, backends: Sequence[str]
) -> dict:
    """One workload's row of the predictor-backend ablation.

    The dynamic prediction-class share (the loads the backends actually
    compete on) and the speedup over the no-early-generation baseline
    with each backend driving the prediction path.  The uncached
    backend configs are replayed in one
    :func:`repro.sim.precompute.simulate_many` batch, so they share one
    trace precompute instead of simulating per config.
    """
    from repro.sim.precompute import simulate_many

    run = ctx.run(name)
    dynamic = run.get_profile().dynamic_class_shares()
    configs: List = []
    keys: List = []
    if run.baseline is None:
        configs.append(BASELINE)
        keys.append(None)
    for backend in backends:
        eg = ablation_config(backend)
        if (eg, None) not in run._sims:
            configs.append(eg)
            keys.append((eg, None))
    if configs:
        stats_list = simulate_many(
            run.trace, configs, machine=ctx.machine,
            span_tags=[{
                "workload": name,
                "config": ("baseline" if key is None
                           else eg_tag(key[0])),
            } for key in keys],
        )
        for key, stats in zip(keys, stats_list):
            if key is None:
                run.baseline = stats
            else:
                run._sims[key] = stats
    row = {
        "benchmark": name,
        "suite": get_workload(name).suite,
        "dyn_pd": dynamic["p"] * 100,
    }
    for backend in backends:
        row[backend] = ctx.speedup(name, ablation_config(backend))
    return row


def ablation_summary(
    rows: List[dict], backends: Sequence[str]
) -> List[dict]:
    """The geomean rows closing the ablation table over *rows*.

    One per suite when the rows span several suites, then the overall
    geomean; none for an empty table.
    """
    def summary(label: str, members: List[dict]) -> dict:
        out = {"benchmark": label, "suite": "", "dyn_pd":
               sum(r["dyn_pd"] for r in members) / len(members)}
        for backend in backends:
            out[backend] = _geomean([r[backend] for r in members])
        return out

    if not rows:
        return []
    suites = list(dict.fromkeys(row["suite"] for row in rows))
    out = []
    if len(suites) > 1:
        for s in suites:
            out.append(summary(f"geomean ({s})",
                               [r for r in rows if r["suite"] == s]))
    out.append(summary("geomean", rows))
    return out


def predictor_ablation(
    ctx: ExperimentContext,
    backends: List[str],
    names: Optional[List[str]] = None,
) -> List[dict]:
    """Speedup of each predictor backend on the proposed configuration.

    One :func:`ablation_row` per workload (both suites by default),
    closed by the per-suite and overall geomean rows of
    :func:`ablation_summary`.
    """
    if names is None:
        names = [n for s in ("spec", "mediabench")
                 for n in workload_names(s)]
    rows = [ablation_row(ctx, name, backends) for name in names]
    return rows + ablation_summary(rows, backends)
