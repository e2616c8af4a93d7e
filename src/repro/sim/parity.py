"""Simulator parity gate: ``python -m repro.sim.parity``.

Replays every harness sim request of the chosen suites through the
seed oracle, one :func:`~repro.sim.precompute.simulate_many` sweep and
a plain :meth:`TimingSimulator.run`, and diffs both against the
oracle's :class:`~repro.sim.stats.SimStats`.  It is its own entry
module so that running it as ``__main__`` loads
:mod:`repro.sim.precompute` once: the counters it reports are the ones
the sweeps updated.
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
    dstream_counts,
    replay_path_counts,
    segment_counts,
    simulate_many,
)
from repro.sim.predictors import backend_names
from repro.workloads import workload_names


def _counters() -> tuple:
    """``(divergences, paths, (segments, memo hits), dstream counts)``
    so far."""
    return (divergence_count(), replay_path_counts(), segment_counts(),
            dstream_counts())


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run every harness sim request and diff the stats with the oracle.

    Each config runs through the seed oracle
    (:func:`~repro.sim._pipeline_reference.reference_run`), one
    :func:`simulate_many` sweep per workload, and a plain
    :meth:`TimingSimulator.run`.  "mismatches" counts sweep results and
    "reference mismatches" ``run()`` results that differ from the
    oracle's.  The divergence, path, segment and prediction-stream
    figures are the sweeps' own: each ``run()`` follows its workload's
    sweep, so it replays from a warm segment memo.  CI runs this at a small scale
    as a standing parity gate; exit status 1 means at least one
    config produced non-identical :class:`SimStats`.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.parity",
        description="simulate_many and run() vs reference SimStats "
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
    divergences = 0
    paths: dict = {}
    segments = hits = 0
    builds = [0, 0, 0, 0]
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
                eg_tag(r.earlygen, r.use_profile_override) for r in requests
            ]
            sims = [
                TimingSimulator(run.trace, ctx.machine.with_earlygen(eg), ov)
                for eg, ov in zip(configs, overrides)
            ]
            reference = [asdict(reference_run(sim)) for sim in sims]
            div0, paths0, (seg0, hit0), built0 = _counters()
            swept = simulate_many(
                run.trace, configs, machine=ctx.machine, overrides=overrides
            )
            div1, paths1, (seg1, hit1), built1 = _counters()
            divergences += div1 - div0
            for path, count in paths1.items():
                paths[path] = (paths.get(path, 0) + count
                               - paths0.get(path, 0))
            segments += seg1 - seg0
            hits += hit1 - hit0
            for i, (now, before) in enumerate(zip(built1, built0)):
                builds[i] += now - before
            bad = [
                tag for tag, ref, stats in zip(tags, reference, swept)
                if asdict(stats) != ref
            ]
            bad_run = [
                tag for tag, ref, sim in zip(tags, reference, sims)
                if asdict(sim.run()) != ref
            ]
            checked += len(configs)
            mismatches += len(bad)
            ref_mismatches += len(bad_run)
            if bad:
                print(f"MISMATCH {name} simulate_many vs reference: "
                      f"{', '.join(bad)}")
            if bad_run:
                print(f"MISMATCH {name} run() vs reference: "
                      f"{', '.join(bad_run)}")
            if not bad and not bad_run:
                print(f"ok {name} ({len(configs)} configs)")
    print(
        f"parity: {checked} configs checked, {mismatches} mismatches, "
        f"{ref_mismatches} reference mismatches, "
        f"{divergences} divergences patched"
    )
    print("paths: " + ", ".join(
        f"{k}={v}" for k, v in sorted(paths.items())
    ))
    print(f"segments: {segments} walked, {hits} from the segment memo")
    print("dstream: {} builds, {} loads copied from the trace pass, "
          "{} replayed, {} fills patched".format(*builds))
    return 1 if mismatches or ref_mismatches else 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    sys.exit(main())
