"""CLI of the generated-workload subsystem.

Usage::

    python -m repro.workloads.gen emit gen:strided:7 [--scale F] [--ref]
    python -m repro.workloads.gen diff [--fingerprints T[,T...]]
                                       [--seeds N] [--seed-base N]
                                       [--scale F] [--opt-levels 0,1,2]
                                       [--no-sim-paths]
    python -m repro.workloads.gen stress [--backends B[,B...]]
                                         [--seeds N] [--scale F]
    python -m repro.workloads.gen sweep [--step PCT] [--seeds N]
                                        [--scale F] [--jobs N]
                                        [--result-cache DIR]
                                        [--timeout SECS]
                                        [--markdown-out FILE]
                                        [--trace-out DIR]

``emit`` prints a generated program (or its reference output);
``diff`` runs the differential driver (exit 1 on any mismatch);
``stress`` runs the per-backend adversarial suites; ``sweep`` is the
synthetic-SPEC tier over the class-mix simplex.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import obs
from repro.workloads.gen import (
    GenerationError,
    materialize,
    provenance,
)


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _cmd_emit(args) -> int:
    workload = materialize(args.name)
    scaled = max(1, int(round(workload.default_scale * args.scale)))
    if args.ref:
        for value in workload.expected_output(scaled):
            print(value)
    else:
        print(workload.source(scaled), end="")
    if args.provenance:
        import json
        print(json.dumps(provenance(args.name), indent=1, sort_keys=True),
              file=sys.stderr)
    return 0


def _cmd_diff(args) -> int:
    from repro.workloads.gen.differential import (
        batch_names,
        run_differential,
    )

    fingerprints = [f.strip() for f in args.fingerprints.split(",")
                    if f.strip()]
    opt_levels = tuple(
        int(level) for level in args.opt_levels.split(",") if level.strip()
    )
    names = batch_names(fingerprints, seeds=args.seeds,
                        seed_base=args.seed_base)
    report = run_differential(
        names,
        scale=args.scale,
        opt_levels=opt_levels,
        sim_paths=not args.no_sim_paths,
        progress=_progress if args.verbose else None,
    )
    print(
        f"differential: {report.programs} programs, {report.checks} "
        f"checks, {len(report.mismatches)} mismatches"
    )
    for mismatch in report.mismatches:
        print(f"MISMATCH {mismatch.name} [{mismatch.check}]: "
              f"{mismatch.detail}")
    return 1 if report.mismatches else 0


def _cmd_stress(args) -> int:
    from repro.harness.reporting import (
        format_table,
        predictor_ablation_headers,
    )
    from repro.workloads.gen.stress import STRESS_FINGERPRINTS, run_stress

    backends = (
        [b.strip() for b in args.backends.split(",") if b.strip()]
        if args.backends else sorted(STRESS_FINGERPRINTS)
    )
    results = run_stress(
        backends, seeds=args.seeds, scale=args.scale, progress=_progress
    )
    headers = predictor_ablation_headers(backends)
    for backend in backends:
        print()
        print(format_table(
            results[backend],
            columns=list(headers),
            headers=headers,
            title=f"Stress suite targeting {backend!r} "
                  "(speedup vs no early generation)",
        ))
    return 0


def _cmd_sweep(args) -> int:
    from repro.harness.reporting import format_table
    from repro.workloads.gen.sweep import (
        SWEEP_HEADERS,
        run_sweep,
        write_markdown,
    )

    result_store = None
    if args.result_cache is not None:
        from repro.harness.store import ResultStore
        result_store = ResultStore(args.result_cache)
    result = run_sweep(
        step=args.step,
        seeds=args.seeds,
        scale=args.scale,
        jobs=args.jobs,
        result_store=result_store,
        timeout=args.timeout,
        progress=_progress,
    )
    print()
    print(format_table(
        result["rows"],
        columns=list(SWEEP_HEADERS),
        headers=SWEEP_HEADERS,
        title="Synthetic-SPEC sweep — fingerprint vs proposed-config "
              "speedup",
    ))
    if args.markdown_out is not None:
        path = write_markdown(
            args.markdown_out, result["rows"], args.scale, args.step
        )
        print(f"wrote {path}", file=sys.stderr)
    if result["degraded"]:
        print(f"degraded: {', '.join(result['degraded'])}",
              file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.gen",
        description="seeded mini-C program generation: emit, "
        "differential-test, stress predictors, sweep the class-mix "
        "simplex",
    )
    parser.add_argument("--trace-out", default=None, metavar="DIR",
                        help="write a JSONL span/event trace under DIR")
    sub = parser.add_subparsers(dest="cmd", required=True)

    emit = sub.add_parser("emit", help="print one generated program")
    emit.add_argument("name", help="workload name, e.g. gen:strided:7")
    emit.add_argument("--scale", type=float, default=1.0)
    emit.add_argument("--ref", action="store_true",
                      help="print the reference OUT stream instead")
    emit.add_argument("--provenance", action="store_true",
                      help="also print provenance JSON to stderr")

    diff = sub.add_parser("diff", help="differential-test a batch")
    diff.add_argument("--fingerprints",
                      default="strided,pointer,irregular,mixed")
    diff.add_argument("--seeds", type=int, default=50,
                      help="seeds per fingerprint (default 50)")
    diff.add_argument("--seed-base", type=int, default=0)
    diff.add_argument("--scale", type=float, default=1.0)
    diff.add_argument("--opt-levels", default="0,1,2")
    diff.add_argument("--no-sim-paths", action="store_true",
                      help="skip the inline-vs-precompute parity check")
    diff.add_argument("--verbose", action="store_true")

    stress = sub.add_parser("stress", help="per-backend hostile suites")
    stress.add_argument("--backends", default=None,
                        metavar="B[,B...]")
    stress.add_argument("--seeds", type=int, default=2)
    stress.add_argument("--scale", type=float, default=1.0)

    sweep = sub.add_parser("sweep", help="synthetic-SPEC simplex sweep")
    sweep.add_argument("--step", type=int, default=20,
                       help="simplex grid pitch in percent (default 20)")
    sweep.add_argument("--seeds", type=int, default=1,
                       help="seeds per grid point (default 1)")
    sweep.add_argument("--scale", type=float, default=1.0)
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--result-cache", default=None, metavar="DIR")
    sweep.add_argument("--timeout", type=float, default=0.0)
    sweep.add_argument("--markdown-out", default=None, metavar="FILE")
    args = parser.parse_args(argv)

    try:
        if args.trace_out is not None:
            obs.configure(args.trace_out, command=f"gen-{args.cmd}",
                          worker="main")
        if args.cmd == "emit":
            return _cmd_emit(args)
        if args.cmd == "diff":
            return _cmd_diff(args)
        if args.cmd == "stress":
            return _cmd_stress(args)
        return _cmd_sweep(args)
    except (GenerationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.trace_out is not None:
            obs.disable()


if __name__ == "__main__":
    raise SystemExit(main())
