"""Command-line entry point: regenerate every table and figure.

Usage::

    python -m repro.harness.main [--scale 1.0] [--suite all|spec|media]
                                 [--jobs N] [--timeout SECS]
                                 [--result-cache DIR] [--profile]
                                 [--predictor NAME[,NAME...]]
                                 [--inject WORKLOAD=MODE]...

Prints the paper-style tables to stdout; at ``--scale 1.0`` this is the
configuration recorded in EXPERIMENTS.md.

Workloads run under the fault-isolated :class:`WorkloadRunner`: a
crashing or hanging workload degrades to an ERROR/TIMEOUT row instead of
aborting the run, and the exit status is non-zero whenever any row
degraded.  Every workload is a task on a pool of ``--jobs`` forked
worker processes (default: the usable cores; ``--jobs 1`` is
one worker), with identical output at any ``--jobs``; ``--profile``
re-runs the slowest workload in this process under cProfile and
writes the top cumulative entries to the working directory.
``--result-cache DIR`` stores each completed workload's rows under a
key over everything that determines them, so a re-invocation with the
same directory skips workloads that already completed and re-runs only
the failed ones (and any whose flags or code changed).  ``--inject``
plants deterministic faults (crash, hang, corrupt-ir, corrupt-output)
for exercising that machinery end to end; ``hang`` needs a
``--timeout``, the one guard that ends it.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import sys
import time
from pathlib import Path

from repro import obs
from repro.harness.artifacts import artifact_key
from repro.harness.experiments import ExperimentContext
from repro.harness.faults import FaultInjector
from repro.harness.reporting import (
    FIG5A_HEADERS,
    FIG5B_HEADERS,
    FIG5C_HEADERS,
    TABLE2_HEADERS,
    TABLE3_HEADERS,
    TABLE4_HEADERS,
    format_table,
)
from repro.harness.runner import (
    TABLES,
    WorkloadRunner,
    assemble_table,
)
from repro.workloads import workload_names, workload_suite

__all__ = [
    "FIG5A_HEADERS",
    "FIG5B_HEADERS",
    "FIG5C_HEADERS",
    "TABLE2_HEADERS",
    "TABLE3_HEADERS",
    "TABLE4_HEADERS",
    "main",
]

_SUITES = {
    "all": ("spec", "mediabench"),
    "spec": ("spec",),
    "media": ("mediabench",),
}


def select_workloads(patterns):
    """Resolve comma/glob ``--workloads`` patterns into workload names.

    Each pattern is either an exact workload name or a glob matched
    against the registered names (``'1*'``, ``'*decode*'``).  A
    generated ``gen:<fingerprint>:<seed>`` name is given exactly: it
    is only canonicalized here, never planned, so it is registered
    (and globbable) only in the process that computes its rows.  A
    malformed name or a pattern that selects nothing raises
    :class:`ValueError` — silently running an empty suite hides typos.
    Order follows the patterns; duplicates collapse to the first
    occurrence.
    """
    from repro.workloads import get_workload
    from repro.workloads.gen import gen_name, parse_gen_name

    selected = []
    for pattern in patterns:
        if any(ch in pattern for ch in "*?["):
            matched = fnmatch.filter(workload_names(), pattern)
            if not matched:
                raise ValueError(
                    f"--workloads pattern {pattern!r} matched no "
                    f"registered workload (known: {workload_names()}); "
                    "generated workloads are given exactly, as "
                    "'gen:<fingerprint>:<seed>'"
                )
            for name in sorted(matched):
                if name not in selected:
                    selected.append(name)
        else:
            try:
                if pattern.startswith("gen:"):
                    name = gen_name(*parse_gen_name(pattern))
                else:
                    name = get_workload(pattern).name
            except (KeyError, ValueError) as exc:
                raise ValueError(
                    f"--workloads: {exc.args[0] if exc.args else exc}"
                ) from None
            if name not in selected:
                selected.append(name)
    return selected


def usable_cores() -> int:
    """CPUs this process may run on (the default ``--jobs``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _write_profile(args, outcomes, backends) -> None:
    """cProfile the slowest freshly-computed workload of this run.

    Workloads resumed from the result store did no work, so they are
    skipped when picking the target.  The profiled rows include the
    ablation fragment of *backends*, as the timed ones did.  The report
    — the top 25 entries by cumulative time — lands in the working
    directory.
    """
    import cProfile
    import io
    import pstats

    from repro.harness.runner import STATUS_OK, compute_rows

    fresh = [
        o for o in outcomes if o.status == STATUS_OK and not o.cached
    ]
    if not fresh:
        print("--profile: no freshly computed workload to profile",
              file=sys.stderr)
        return
    slowest = max(fresh, key=lambda o: o.elapsed)
    ctx = ExperimentContext(
        scale=args.scale, verify_ir=not args.no_verify_ir
    )
    profiler = cProfile.Profile()
    profiler.enable()
    compute_rows(ctx, slowest.name, backends)
    profiler.disable()
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats(
        "cumulative"
    ).print_stats(25)
    path = Path(f"PROFILE_{slowest.name.replace('/', '_')}.txt")
    path.write_text(
        f"cProfile of slowest workload {slowest.name!r} "
        f"(elapsed {slowest.elapsed:.2f}s in the run)\n{stream.getvalue()}",
        encoding="utf-8",
    )
    print(f"--profile: wrote {path}", file=sys.stderr)


def _write_run_manifest(args, argv, ctx, outcomes) -> None:
    """Record what ran — and what degraded — next to the trace files.

    A generated workload's provenance comes with its rows (the
    ``"provenance"`` fragment), so only a degraded one is planned again
    here, by :func:`repro.obs.build_manifest`.
    """
    injector = ctx.fault_injector
    entries = []
    for outcome in outcomes:
        entry = {
            "name": outcome.name,
            "suite": outcome.suite,
            "status": outcome.status,
            "elapsed_s": round(outcome.elapsed, 3),
            "cached": outcome.cached,
            "error_type": outcome.error_type,
            "artifact_key": artifact_key(
                outcome.name, ctx.scale, ctx.machine, ctx.verify,
                ctx.verify_ir,
                injector.mode(outcome.name) if injector else None,
            ),
        }
        if "provenance" in outcome.rows:
            entry["gen"] = outcome.rows["provenance"]
        entries.append(entry)
    manifest = obs.build_manifest(
        command="repro.harness.main",
        argv=argv,
        scale=args.scale,
        machine=ctx.machine,
        workloads=entries,
        extra={"suite": args.suite, "jobs": args.jobs},
    )
    obs.write_manifest(args.trace_out, manifest)


def _ablation_table(backends, outcomes):
    """The predictor-ablation rows of every successful workload: each
    outcome's ``"ablation"`` fragment, computed next to its tables."""
    from repro.harness.experiments import ablation_summary

    rows = [o.rows["ablation"] for o in outcomes if not o.degraded]
    return rows + ablation_summary(rows, backends)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Reproduce the paper's tables and figures."
    )
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--suite", choices=("all", "spec", "media"),
                        default="all")
    parser.add_argument("--workloads", default=None,
                        metavar="PAT[,PAT...]",
                        help="run only these workloads: exact names "
                        "and/or globs over the registered names "
                        "('*decode*'); generated workloads are named "
                        "exactly ('gen:<fingerprint>:<seed>') and are "
                        "planned where their rows are computed; "
                        "overrides --suite; unmatched patterns are an "
                        "error")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes, one workload per task "
                        "(default: the usable cores)")
    parser.add_argument("--profile", action="store_true",
                        help="after the run, cProfile the slowest "
                        "workload and write the top-25 cumulative "
                        "entries to the working directory")
    parser.add_argument("--timeout", type=float, default=0.0,
                        help="wall-clock seconds per workload; "
                        "0 disables (default)")
    parser.add_argument("--result-cache", default=None, metavar="DIR",
                        help="persistent cross-run result store and the "
                        "resume flag: workloads stored under the same "
                        "flags and code skip compile+simulate, so a "
                        "re-run re-runs only failures")
    parser.add_argument("--inject", action="append", default=[],
                        metavar="WORKLOAD=MODE",
                        help="inject a fault (crash, hang, "
                        "corrupt-ir[:PASS], corrupt-output); repeatable; "
                        "hang needs --timeout")
    parser.add_argument("--predictor", default=None,
                        metavar="NAME[,NAME...]",
                        help="also print the predictor-backend ablation "
                        "table comparing these prediction backends "
                        "('all' = every registered backend) on the "
                        "proposed configuration")
    parser.add_argument("--no-verify-ir", action="store_true",
                        help="skip the per-pass IR verifier")
    parser.add_argument("--trace-out", default=None, metavar="DIR",
                        help="write a JSONL span/event trace and a run "
                        "manifest.json under DIR (see README: "
                        "Observability)")
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.timeout < 0:
        parser.error("--timeout must be >= 0")
    predictor_backends = []
    if args.predictor is not None:
        from repro.sim.predictors import backend_names
        registered = backend_names()
        requested = [b.strip() for b in args.predictor.split(",")
                     if b.strip()]
        if not requested:
            parser.error("--predictor needs at least one backend name")
        if requested == ["all"]:
            requested = list(registered)
        for backend in requested:
            if backend not in registered:
                parser.error(
                    f"--predictor: unknown backend {backend!r} "
                    f"(registered: {', '.join(registered)})"
                )
            if backend not in predictor_backends:
                predictor_backends.append(backend)
    if args.jobs is None:
        args.jobs = usable_cores()

    try:
        injector = FaultInjector.parse(args.inject) if args.inject else None
    except ValueError as exc:
        parser.error(str(exc))
    if injector is not None:
        # Resolve each name as --workloads does, so faults are keyed by
        # the canonical names the runner sees (gen: names included).
        entries = []
        for entry in args.inject:
            name, _, mode = entry.partition("=")
            if mode.partition(":")[0] == "hang" and not args.timeout:
                parser.error(f"--inject {entry} needs --timeout SECS: "
                             "nothing else ends a hang")
            try:
                entries += [f"{n}={mode}" for n in select_workloads([name])]
            except ValueError:
                parser.error(f"--inject names unknown workload {name!r}")
        injector = FaultInjector.parse(entries)

    ctx = ExperimentContext(
        scale=args.scale,
        verify_ir=not args.no_verify_ir,
        fault_injector=injector,
    )
    result_store = None
    if args.result_cache is not None:
        from repro.harness.store import ResultStore
        result_store = ResultStore(args.result_cache)
    runner = WorkloadRunner(
        ctx,
        args.timeout,
        progress=lambda msg: print(msg, file=sys.stderr, flush=True),
        jobs=args.jobs,
        result_store=result_store,
        backends=predictor_backends,
    )

    if args.workloads is not None:
        patterns = [p.strip() for p in args.workloads.split(",")
                    if p.strip()]
        if not patterns:
            parser.error("--workloads needs at least one name or pattern")
        try:
            names = select_workloads(patterns)
        except ValueError as exc:
            parser.error(str(exc))
        # Print only the tables the selection populates.
        suites = tuple(dict.fromkeys(workload_suite(n) for n in names))
    else:
        suites = _SUITES[args.suite]
        names = [n for s in suites for n in workload_names(s)]
    started = time.time()
    try:
        if args.trace_out is not None:
            obs.configure(args.trace_out, command="harness", worker="main")
        tracer = obs.current()
        with tracer.span(
            "run", scale=args.scale, suite=args.suite, jobs=args.jobs
        ):
            outcomes = runner.run_suite(names)
            ablation_rows = None
            if predictor_backends:
                with tracer.span(
                    "predictor-ablation",
                    backends=",".join(predictor_backends),
                ):
                    ablation_rows = _ablation_table(
                        predictor_backends, outcomes
                    )
        if args.trace_out is not None:
            cli = list(argv) if argv is not None else list(sys.argv[1:])
            _write_run_manifest(args, cli, ctx, outcomes)
    finally:
        if args.trace_out is not None:
            obs.disable()

    if args.profile:
        _write_profile(args, outcomes, predictor_backends)

    for spec in TABLES:
        if spec.suite not in suites:
            continue
        rows = assemble_table(spec, outcomes)
        print()
        print(format_table(
            rows,
            columns=list(spec.headers),
            headers=spec.headers,
            title=spec.title,
        ))
        sys.stdout.flush()

    if predictor_backends and ablation_rows:
        from repro.harness.reporting import predictor_ablation_headers
        headers = predictor_ablation_headers(predictor_backends)
        print()
        print(format_table(
            ablation_rows,
            columns=list(headers),
            headers=headers,
            title="Predictor backend ablation "
                  "(speedup vs no early generation)",
        ))
        sys.stdout.flush()

    degraded = [o for o in outcomes if o.degraded]
    if result_store is not None:
        stats = result_store.stats()
        print(f"result cache: {stats['hits']} hits, "
              f"{stats['misses']} misses, {stats['entries']} entries",
              file=sys.stderr)
    print(f"\ntotal wall time: {time.time() - started:.0f}s "
          f"(scale {args.scale})")
    if degraded:
        print(f"\nDegraded workloads ({len(degraded)}/{len(outcomes)}):")
        for outcome in degraded:
            detail = outcome.error or outcome.status
            print(f"  {outcome.name}: {outcome.status.upper()} "
                  f"[{outcome.error_type}] {detail}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
