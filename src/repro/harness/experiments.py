"""The paper's evaluation artifacts, declared once and computed per workload.

Each artifact is one :class:`TableSpec` in :data:`TABLES`: its suite,
title, headers and summary kind, plus its speedup columns declared as
``column -> (EarlyGenConfig, profiled)``.  Everything else derives from
that declaration:

* :func:`sim_requests` — the deduplicated configs a suite's tables
  replay, which :meth:`ExperimentContext.prefetch_sims` simulates in one
  :func:`~repro.sim.precompute.simulate_many` sweep per workload;
* :func:`table_row` — one workload's row of one artifact;
* :func:`experiment_table` — an artifact's rows over its suite, closed
  by its summary row.

:class:`ExperimentContext` caches the expensive per-workload artifacts
(compiled program, functional trace, address profile, profile-guided
overrides, timing stats).  ``scale`` shrinks or grows workload
iteration counts relative to their defaults, so the same declarations
run as fast smoke benchmarks or as full experiments.

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
gen       the Table 4 columns for generated workloads
========  ==========================================================
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.compiler.driver import CompileOptions, CompileResult, compile_source
from repro.errors import OutputMismatchError
from repro.compiler.profile_feedback import (
    DEFAULT_THRESHOLD,
    profile_overrides,
)
from repro.harness.reporting import (
    FIG5A_HEADERS,
    FIG5B_HEADERS,
    FIG5C_HEADERS,
    TABLE2_HEADERS,
    TABLE3_HEADERS,
    TABLE4_HEADERS,
)
from repro.isa.opcodes import LoadSpec
from repro.profiling.address_profile import AddressProfile, profile_trace
from repro.sim.executor import Executor
from repro.sim.machine import (
    BASELINE,
    PROPOSED,
    EarlyGenConfig,
    MachineConfig,
    SelectionMode,
)
from repro.sim.precompute import simulate_many
from repro.sim.stats import SimStats
from repro.sim.trace import Trace
from repro.workloads import get_workload, workload_names
from repro.workloads.registry import take_prepared


# ---------------------------------------------------------------------------
# Table declarations
# ---------------------------------------------------------------------------

#: Prediction-table sweep of Figure 5a.  The paper sweeps 64/128/256
#: entries against SPEC binaries with thousands of static loads; our
#: workloads have tens, so the sweep extends down to 4 and 16 entries
#: to cover the same conflict-pressure regime (static loads per entry).
FIG5A_TABLE_SIZES = (4, 16, 64, 128, 256)
#: Cached-register sweep of Figure 5b (hardware-only BRIC-style cache).
FIG5B_REG_COUNTS = (4, 8, 16)

_HW = SelectionMode.HARDWARE
_CC = SelectionMode.COMPILER


@dataclass(frozen=True)
class TableSpec:
    """One paper artifact: its columns and where each value comes from.

    A column named in ``speedups`` is the baseline's cycles over the
    declared config's cycles; ``profiled`` configs replay with the
    Section 4.3 profile-guided overrides (:meth:`WorkloadRun.get_overrides`).
    Every other column but ``benchmark`` is a load-class column of the
    address profile (:func:`class_columns`), reclassified by the same
    overrides when ``reclassified``.
    """

    key: str
    suite: str
    title: str
    headers: Dict[str, str]
    #: "geomean" = geomean every column; "average" = geomean the
    #: ``speedup`` column, arithmetic-mean the rest; None = no summary.
    summary: Optional[str]
    speedups: Dict[str, Tuple[EarlyGenConfig, bool]] = field(
        default_factory=dict
    )
    reclassified: bool = False


TABLES = (
    TableSpec(
        "table2", "spec",
        "Table 2 — SPEC load classes and prediction rates",
        TABLE2_HEADERS, None,
    ),
    # Hardware-only allocates every load a table entry; compiler mode
    # only the loads classified ``ld_p``.  Columns are declared size by
    # size so the sweep replays each size's pair back to back.
    TableSpec(
        "fig5a", "spec",
        "Figure 5a — prediction-table-only speedup",
        FIG5A_HEADERS, "geomean",
        {f"{kind}_{size}": (EarlyGenConfig(size, 0, mode), False)
         for size in FIG5A_TABLE_SIZES
         for kind, mode in (("hw", _HW), ("cc", _CC))},
    ),
    TableSpec(
        "fig5b", "spec",
        "Figure 5b — early-calculation-only speedup (hardware BRIC)",
        FIG5B_HEADERS, "geomean",
        {f"regs_{count}": (EarlyGenConfig(0, count, _HW), False)
         for count in FIG5B_REG_COUNTS},
    ),
    # The headline comparison: 5a's and 5b's best single paths, the
    # dual path under run-time selection, compiler-directed (the
    # proposal), and compiler-directed plus address profiling.
    TableSpec(
        "fig5c", "spec",
        "Figure 5c — dual-path comparison",
        FIG5C_HEADERS, "geomean",
        {
            "hw_table": (EarlyGenConfig(256, 0, _HW), False),
            "hw_calc": (EarlyGenConfig(0, 16, _HW), False),
            "hw_dual": (EarlyGenConfig(256, 1, _HW), False),
            "cc_dual": (PROPOSED, False),
            "cc_prof": (PROPOSED, True),
        },
    ),
    TableSpec(
        "table3", "spec",
        "Table 3 — profile-guided classification (threshold 60%)",
        TABLE3_HEADERS, "average",
        {"speedup": (PROPOSED, True)}, reclassified=True,
    ),
    TableSpec(
        "table4", "mediabench",
        "Table 4 — MediaBench",
        TABLE4_HEADERS, "average",
        {"speedup": (PROPOSED, False)},
    ),
    TableSpec(
        "gen", "gen",
        "Generated workloads — load mix and proposed-config speedup",
        TABLE4_HEADERS, "average",
        {"speedup": (PROPOSED, False)},
    ),
)


def table_spec(key: str) -> TableSpec:
    """The :data:`TABLES` entry named *key*."""
    for spec in TABLES:
        if spec.key == key:
            return spec
    raise KeyError(f"unknown table {key!r} "
                   f"(known: {', '.join(s.key for s in TABLES)})")


# ---------------------------------------------------------------------------
# Simulation plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimRequest:
    """One independent timing-simulator run of a workload's trace.

    ``use_profile_override`` marks the profile-guided runs that replay
    with Section 4.3 reclassification (the override map itself is
    derived from the workload's trace); :func:`eg_tag` tags them
    ``+profile`` in traces.
    """

    earlygen: EarlyGenConfig
    use_profile_override: bool = False


_BASELINE_REQUEST = SimRequest(BASELINE)


def sim_requests(suite: str) -> List[SimRequest]:
    """Every early-generation replay the *suite*'s tables need.

    The union of the speedup columns of the suite's :data:`TABLES`,
    deduplicated, in declaration order; the no-early-generation
    baseline run is not included.
    """
    specs = [spec for spec in TABLES if spec.suite == suite]
    if not specs:
        raise ValueError(f"unknown suite {suite!r}")
    requests = [SimRequest(*column) for spec in specs
                for column in spec.speedups.values()]
    return list(dict.fromkeys(requests))


# ---------------------------------------------------------------------------
# Per-workload artifacts
# ---------------------------------------------------------------------------

@dataclass
class WorkloadRun:
    """Cached artifacts of one compiled-and-emulated workload."""

    name: str
    compile_result: CompileResult
    trace: Trace
    steps: int
    profile: Optional[AddressProfile] = None
    overrides: Optional[Dict[int, LoadSpec]] = None
    #: Timing stats per replayed :class:`SimRequest`, baseline included.
    sims: Dict[SimRequest, SimStats] = field(default_factory=dict)

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

    def get_overrides(self) -> Dict[int, LoadSpec]:
        """Section 4.3 reclassification at the paper's 60% threshold."""
        if self.overrides is None:
            self.overrides = profile_overrides(
                self.program, self.trace, DEFAULT_THRESHOLD,
                self.get_profile().predictor,
            )
        return self.overrides


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

    Every run compiles with the structural IR verifier between compiler
    passes and checks its emulated output against the pure-Python
    reference.  ``fault_injector`` is the test seam that lets a chosen
    workload crash, hang, or corrupt its IR/output.

    Every simulation goes through one
    :func:`~repro.sim.precompute.simulate_many` sweep per call of
    :meth:`prefetch_sims` (or per cache miss), which shares one trace
    precompute across the configs it replays.

    :meth:`run` serves a run already prepared from the same source with
    the same compile options (a generated program's accepted planner
    probe, see :func:`~repro.workloads.registry.take_prepared`) instead
    of compiling, emulating and profiling it again; a fault hook makes
    the options differ, so an injected ``corrupt-ir`` always compiles
    afresh.  The output check and ``corrupt-output`` apply to either.
    """

    def __init__(
        self,
        scale: float = 1.0,
        machine: Optional[MachineConfig] = None,
        fault_injector=None,
    ):
        self.scale = scale
        self.machine = machine if machine is not None else MachineConfig()
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
            verify=True,
            post_pass_hook=(
                injector.post_pass_hook(name) if injector else None
            ),
        )
        source = workload.source(scale)
        tracer = obs.current()
        with tracer.span("prepare", workload=name):
            prepared = take_prepared(source)
            # Equal options mean a verified compile and no fault hook.
            if prepared is not None and prepared[0].options == options:
                result, exec_result, profile = prepared
                if tracer.enabled:
                    emit_profile_event(tracer, name, profile)
            else:
                profile = None
                result = compile_source(source, options)
                with tracer.span("emulate", workload=name) as span:
                    exec_result = Executor(result.program).run()
                    if tracer.enabled:
                        span.set_counters(steps=exec_result.steps)
            output = exec_result.output
            if injector:
                output = injector.corrupt_output(name, output)
            expected = workload.expected_output(scale)
            if output != expected:
                raise OutputMismatchError(
                    f"emulated output {output} != reference {expected}",
                    workload=name,
                )
        run = WorkloadRun(
            name, result, exec_result.trace, exec_result.steps, profile
        )
        self._runs[name] = run
        return run

    def prefetch_sims(self, name: str, backends: Sequence[str] = ()) -> None:
        """Simulate every config *name*'s rows need in one sweep.

        The baseline, the :func:`sim_requests` of the workload's suite
        and the :func:`ablation_config` of each of *backends* go through
        a single :func:`~repro.sim.precompute.simulate_many` call, so
        they share one trace precompute; the row builders then read the
        context cache.  Configs already cached are not replayed again.
        """
        suite = get_workload(name).suite
        self._sweep(name, [
            *sim_requests(suite),
            *(SimRequest(ablation_config(b)) for b in backends),
        ])

    def _sweep(self, name: str, requests: Iterable[SimRequest]) -> None:
        """Replay the uncached ones of *requests*, and the baseline if it
        is not cached yet, in one :func:`simulate_many` call."""
        run = self.run(name)
        todo = [req for req in dict.fromkeys([_BASELINE_REQUEST, *requests])
                if req not in run.sims]
        if not todo:
            return
        stats_list = simulate_many(
            run.trace, [req.earlygen for req in todo], machine=self.machine,
            overrides=[run.get_overrides() if req.use_profile_override
                       else None for req in todo],
            span_tags=[{"workload": name,
                        "config": eg_tag(req.earlygen,
                                          req.use_profile_override)}
                       for req in todo],
        )
        run.sims.update(zip(todo, stats_list))

    def sim(
        self, name: str, earlygen: EarlyGenConfig, profiled: bool = False
    ) -> SimStats:
        """Stats of *name* under *earlygen* (with the profile-guided
        overrides when *profiled*); a cache miss runs a sweep."""
        request = SimRequest(earlygen, profiled)
        self._sweep(name, [request])
        return self.run(name).sims[request]

    def baseline_stats(self, name: str) -> SimStats:
        return self.sim(name, BASELINE)

    def speedup(
        self, name: str, earlygen: EarlyGenConfig, profiled: bool = False
    ) -> float:
        stats = self.sim(name, earlygen, profiled)
        return self.baseline_stats(name).cycles / stats.cycles


def eg_tag(earlygen: EarlyGenConfig, profiled: bool = False) -> str:
    """Short trace tag for one early-gen config, e.g. ``t256_r1_compiler``
    (``t256_r1_compiler+profile`` for a profile-guided run)."""
    if not earlygen.enabled:
        return "baseline"
    tag = (
        f"t{earlygen.table_entries}_r{earlygen.cached_regs}"
        f"_{earlygen.selection.value}"
    )
    if earlygen.table_entries and earlygen.predictor != "stride":
        tag += f"_{earlygen.predictor}"
    if profiled:
        tag += "+profile"
    return tag


# ---------------------------------------------------------------------------
# Rows and summaries
# ---------------------------------------------------------------------------

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


def class_columns(
    profile: AddressProfile,
    overrides: Optional[Dict[int, LoadSpec]] = None,
) -> dict:
    """The load-class columns of Tables 2–4: dynamic loads, static and
    dynamic NT/PD/EC shares, and the unbounded-predictor NT/PD rates
    (percentages), classified by *overrides* when given."""
    static = profile.static_class_shares(overrides)
    dynamic = profile.dynamic_class_shares(overrides)
    rates = profile.class_rates(overrides)
    return {
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


def table_row(ctx: ExperimentContext, spec: TableSpec, name: str) -> dict:
    """Workload *name*'s row of *spec*, keyed in header order."""
    if spec.speedups:
        ctx._sweep(name, [SimRequest(*column)
                          for column in spec.speedups.values()])
    row = {"benchmark": name}
    classes = None
    for column in spec.headers:
        if column == "benchmark":
            continue
        if column in spec.speedups:
            row[column] = ctx.speedup(name, *spec.speedups[column])
            continue
        if classes is None:
            run = ctx.run(name)
            classes = class_columns(
                run.get_profile(),
                run.get_overrides() if spec.reclassified else None,
            )
        row[column] = classes[column]
    return row


def _summary_row(spec: TableSpec, rows: List[dict]) -> Optional[dict]:
    """The geomean/average row closing *spec* over *rows* (or None)."""
    if spec.summary is None or not rows:
        return None
    columns = [key for key in spec.headers if key != "benchmark"]
    if spec.summary == "geomean":
        summary = {"benchmark": "geomean"}
        for key in columns:
            summary[key] = _geomean([row[key] for row in rows])
        return summary
    summary = {"benchmark": "average"}
    for key in columns:
        values = [row[key] for row in rows]
        if key == "speedup":
            summary[key] = _geomean(values)
        else:
            summary[key] = sum(values) / len(values)
    return summary


def experiment_table(
    ctx: ExperimentContext, key: str, names: Optional[List[str]] = None
) -> List[dict]:
    """The artifact *key* of :data:`TABLES` over *names* (default: every
    workload of its suite), closed by its summary row if it has one."""
    spec = table_spec(key)
    if names is None:
        names = workload_names(spec.suite)
    rows = [table_row(ctx, spec, name) for name in names]
    summary = _summary_row(spec, rows)
    return rows if summary is None else rows + [summary]


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
    with each backend driving the prediction path; the uncached backend
    configs replay in one sweep.
    """
    ctx._sweep(name, [SimRequest(ablation_config(b)) for b in backends])
    dynamic = ctx.run(name).get_profile().dynamic_class_shares()
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
