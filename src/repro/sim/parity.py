"""Three-way parity gate: ``python -m repro.sim.parity``.

Replays every harness sim request of the chosen suites through the
seed oracle, a plain :meth:`TimingSimulator.run` and one
:func:`~repro.sim.precompute.simulate_many` sweep, and diffs the
:class:`~repro.sim.stats.SimStats`.  It is its own entry module so that
running it as ``__main__`` loads :mod:`repro.sim.precompute` once: the
counters it reports are the ones the sweeps and ``run()`` updated.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import asdict
from typing import Optional, Sequence

from repro.harness.experiments import ExperimentContext, eg_tag, sim_requests
from repro.sim._pipeline_reference import reference_run
from repro.sim.machine import BASELINE
from repro.sim.pipeline import TimingSimulator
from repro.sim.precompute import (
    divergence_count,
    divergence_fallback_count,
    replay_path_counts,
    simulate_many,
)
from repro.sim.predictors import backend_names
from repro.workloads import workload_names


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run every harness sim request three ways and diff the stats.

    Each config runs through the seed oracle
    (:func:`~repro.sim._pipeline_reference.reference_run`), a plain
    :meth:`TimingSimulator.run` (live outcomes), and one
    :func:`simulate_many` sweep (precomputed streams where they apply).
    CI runs this at a small scale as a standing parity gate; exit
    status 1 means at least one config produced non-identical
    :class:`SimStats` on either diff.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.parity",
        description="reference vs run() vs simulate_many SimStats "
        "parity check",
    )
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument(
        "--suite", choices=("spec", "mediabench", "all"), default="all"
    )
    parser.add_argument(
        "--workloads", nargs="*", default=None,
        help="restrict to these workload names",
    )
    parser.add_argument(
        "--predictor", default=None, metavar="NAME",
        help="run every table-bearing config with this prediction "
        "backend instead of the default stride table",
    )
    parser.add_argument(
        "--require-stream", action="store_true",
        help="fail if any table-bearing config fell back to live "
        "outcomes (CI predictor-parity job: proves the backend "
        "streams through the precompute fast path; dual-predictor "
        "hardware configs are exempt — they never stream)",
    )
    args = parser.parse_args(argv)
    if args.predictor is not None:
        if args.predictor not in backend_names():
            parser.error(
                f"unknown predictor backend {args.predictor!r} "
                f"(known: {', '.join(backend_names())})"
            )

    suites = ("spec", "mediabench") if args.suite == "all" else (args.suite,)
    if args.workloads:
        known = {n for s in suites for n in workload_names(s)}
        unknown = sorted(set(args.workloads) - known)
        if unknown:
            parser.error(f"unknown workloads for --suite {args.suite}: "
                         f"{', '.join(unknown)}")
    ctx = ExperimentContext(scale=args.scale)
    mismatches = 0
    ref_mismatches = 0
    checked = 0
    for suite in suites:
        requests = sim_requests(suite)
        names = [
            n for n in workload_names(suite)
            if not args.workloads or n in args.workloads
        ]
        for name in names:
            run = ctx.run(name)
            configs = [BASELINE] + [r.earlygen for r in requests]
            if args.predictor is not None:
                configs = [
                    dataclasses.replace(eg, predictor=args.predictor)
                    if eg.table_entries else eg
                    for eg in configs
                ]
            overrides = [None] + [
                run.get_overrides() if r.use_profile_override else None
                for r in requests
            ]
            tags = ["baseline"] + [
                eg_tag(r.earlygen, r.cache_key) for r in requests
            ]
            sims = [
                TimingSimulator(run.trace, ctx.machine.with_earlygen(eg), ov)
                for eg, ov in zip(configs, overrides)
            ]
            reference = [asdict(reference_run(sim)) for sim in sims]
            live = [asdict(sim.run()) for sim in sims]
            fast = simulate_many(
                run.trace, configs, machine=ctx.machine, overrides=overrides
            )
            bad = [
                tag for tag, a, b in zip(tags, live, fast) if a != asdict(b)
            ]
            bad_ref = [
                tag for tag, a, b in zip(tags, reference, live) if a != b
            ]
            checked += len(configs)
            mismatches += len(bad)
            ref_mismatches += len(bad_ref)
            if bad:
                print(f"MISMATCH {name} run() vs simulate_many: "
                      f"{', '.join(bad)}")
            if bad_ref:
                print(f"MISMATCH {name} reference vs run(): "
                      f"{', '.join(bad_ref)}")
            if not bad and not bad_ref:
                print(f"ok {name} ({len(configs)} configs)")
    paths = replay_path_counts()
    print(
        f"parity: {checked} configs checked, {mismatches} mismatches, "
        f"{ref_mismatches} reference mismatches, "
        f"{divergence_count()} divergences patched, "
        f"{divergence_fallback_count()} live fallbacks"
    )
    print("paths: " + ", ".join(
        f"{k}={v}" for k, v in sorted(paths.items())
    ))
    if args.require_stream:
        fallbacks = {
            k: v for k, v in paths.items()
            if k.startswith("inline:") and k != "inline:hw-dual"
        }
        if fallbacks:
            print("require-stream: configs fell back to live "
                  "outcomes: " + ", ".join(
                      f"{k}={v}" for k, v in sorted(fallbacks.items())
                  ))
            return 1
    return 1 if mismatches or ref_mismatches else 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    sys.exit(main())
