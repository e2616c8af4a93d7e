"""Command line of the benchmark.

    python -m bench run [--seed N] [--repeats N] [--out FILE]
    python -m bench run --workload NAME --seed N --seconds S --trace 0|1
    python -m bench compare PARENT.json CHANGE.json
    python -m bench agree A.json B.json

``run`` without ``--workload`` measures every workload in interleaved
rounds, then traces each once, prints every metric with its unit and
optionally writes the result set.  With ``--workload`` it measures one
workload for ``--seconds`` and prints, as its last line, the JSON
result of the benchmark contract (end-to-end metrics with ``--trace
0``, per-layer metrics with ``--trace 1``).  Both exit non-zero when
any output row is missing, degraded or different from the reference.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from bench import metrics, runner


def _say(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_summary(name: str, summary: dict) -> None:
    print(f"\n== {name}: {summary['attempted']} rows, "
          f"{summary['failed']} failed (failed_frac "
          f"{summary['failed_frac']:.4g})")
    print(f"  {'metric':<44} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'min':>11} {'n':>3}  unit")
    for metric in metrics.END_TO_END:
        s = summary["end_to_end"][metric.name]
        print(f"  {metric.name:<44} {_fmt(s['median']):>11} "
              f"{_fmt(s['q1']):>11} {_fmt(s['q3']):>11} "
              f"{_fmt(s['min']):>11} {s['n']:>3}  {metric.unit}")
    for metric in metrics.PER_LAYER:
        if metric.name in summary.get("per_layer", {}):
            value = summary["per_layer"][metric.name]
            print(f"  {metric.name:<44} {_fmt(value):>11}"
                  f"{'':>40}  {metric.unit}")
    for failure in summary["failures"][:5]:
        print(f"  failed row: {failure}")
    for error in summary["errors"][:1]:
        print(f"  stderr of a failed command:\n{error}")


def cmd_run(args) -> int:
    try:
        runner.require_source()
    except runner.SourceMissing as exc:
        _say(f"bench: {exc}")
        return 2
    if args.workload is not None:
        if args.seconds is None:
            _say("bench: --workload needs --seconds")
            return 2
        trace = bool(args.trace)
        result = runner.measure(args.workload, args.seed, args.seconds,
                                trace)
        print_summary(args.workload, result)
        print(runner.driver_line(result, trace), flush=True)
        return 0 if result["failed"] == 0 else 1
    result = runner.run_set(list(runner.WORKLOADS), args.seed,
                            args.repeats, progress=_say)
    for name, summary in result["workloads"].items():
        print_summary(name, summary)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    failed = sum(s["failed"] for s in result["workloads"].values())
    return 0 if failed == 0 else 1


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cmd_compare(args) -> int:
    parent, change = _load(args.parent), _load(args.change)
    print(f"{'workload':<14} {'metric':<12} {'parent':>10} {'change':>10} "
          f"{'worse_by':>9} {'wins':>7}  verdict")
    regressed = False
    for name, p in parent["workloads"].items():
        c = change["workloads"].get(name)
        if c is None:
            print(f"{name:<14} {'-':<12} missing from {args.change}")
            regressed = True
            continue
        for metric in metrics.END_TO_END:
            r = metrics.compare(
                metric, p["end_to_end"][metric.name]["samples"],
                c["end_to_end"][metric.name]["samples"])
            print(f"{name:<14} {metric.name:<12} "
                  f"{r['parent_median']:>10.4g} {r['change_median']:>10.4g} "
                  f"{r['worse_by']:>+9.2%} {r['wins']:>3}/{r['pairs']:<3}  "
                  f"{r['verdict']}")
            regressed |= r["verdict"] == "regression"
        if c["failed"] > p["failed"]:
            print(f"{name:<14} {'failed rows':<12} {p['failed']:>10} "
                  f"{c['failed']:>10}  regression")
            regressed = True
    return 1 if regressed else 0


def cmd_agree(args) -> int:
    a, b = _load(args.a), _load(args.b)
    print(f"{'workload':<14} {'metric':<44} {'A':>11} {'B':>11} "
          f"{'diff':>8}  verdict")
    ok = True
    for name, sa in a["workloads"].items():
        sb = b["workloads"].get(name)
        if sb is None:
            print(f"{name:<14} missing from {args.b}")
            ok = False
            continue
        for metric in metrics.END_TO_END:
            va = sa["end_to_end"][metric.name]["median"]
            vb = sb["end_to_end"][metric.name]["median"]
            good = metrics.agree(metric, va, vb)
            print(f"{name:<14} {metric.name:<44} {va:>11.4g} {vb:>11.4g} "
                  f"{(vb - va) / va:>+8.2%}  "
                  f"{'agree' if good else 'DISAGREE'} "
                  f"(bound {metric.bound:.0%})")
            ok &= good
        for metric in metrics.PER_LAYER:
            if metric.unit != "count":
                continue
            va = sa["per_layer"].get(metric.name)
            vb = sb["per_layer"].get(metric.name)
            good = va == vb
            print(f"{name:<14} {metric.name:<44} {va!s:>11} {vb!s:>11} "
                  f"{'':>8}  {'identical' if good else 'DIFFERENT'}")
            ok &= good
        good = sa["failed"] == sb["failed"] == 0
        print(f"{name:<14} {'failed rows':<44} {sa['failed']:>11} "
              f"{sb['failed']:>11} {'':>8}  {'none' if good else 'FAILED'}")
        ok &= good
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure the workloads")
    run.add_argument("--workload", choices=sorted(runner.WORKLOADS))
    run.add_argument("--seed", type=int, default=0,
                     help="picks the generated programs of gen-sweep")
    run.add_argument("--seconds", type=float, default=None,
                     help="with --workload: how long to measure")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="with --workload: report per-layer metrics")
    run.add_argument("--repeats", type=int, default=5,
                     help="without --workload: timed rounds (default 5)")
    run.add_argument("--out", default=None, metavar="FILE",
                     help="without --workload: write the result set")
    compare = sub.add_parser("compare", help="judge a change against "
                             "its parent")
    compare.add_argument("parent")
    compare.add_argument("change")
    agree = sub.add_parser("agree", help="check two result sets of the "
                           "same code agree")
    agree.add_argument("a")
    agree.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run" and args.seed < 0:
        parser.error("--seed must be >= 0")
    return {"run": cmd_run, "compare": cmd_compare,
            "agree": cmd_agree}[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
