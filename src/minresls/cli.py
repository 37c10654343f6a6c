"""Command-line entry point: run benchmark suites, build profiles, self-check."""
from __future__ import annotations

import argparse
import os
import sys

from .bench import (METRICS, load_trace_dir, parse_manifest, performance_profile,
                    refuse_stale_traces, run_suite, table_from_traces,
                    write_profile_csv, write_suite)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minresls",
        description="Matrix-free Newton-type optimization benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="execute every cell of a benchmark manifest")
    p_run.add_argument("--manifest", required=True, metavar="PATH",
                       help="manifest file, one problem/config cell per line")
    p_run.add_argument("--out", required=True, metavar="DIR",
                       help="directory receiving one trace file per run")

    p_prof = sub.add_parser(
        "profile", help="performance profile over a directory of traces")
    p_prof.add_argument("--traces", required=True, metavar="DIR",
                        help="directory of *.trace files from a run")
    p_prof.add_argument("--metric", required=True, choices=METRICS,
                        help="ranking metric: oracle calls or wall time")
    p_prof.add_argument("--out", required=True, metavar="PATH",
                        help="output CSV (header solver,tau,fraction)")

    sub.add_parser("check", help="run the randomized invariant suites")
    return parser


def _cmd_run(args) -> int:
    try:
        with open(args.manifest) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read manifest: {exc}") from None
    refuse_stale_traces(args.out)
    cells = parse_manifest(text, origin=args.manifest)
    traces = run_suite(cells)
    paths = write_suite(traces, args.out)
    for tr, path in zip(traces, paths):
        print(f"{os.path.basename(path)}: {tr.status} iters={tr.iters} "
              f"oracles={tr.oracles:.0f} final_gnorm={tr.gnorm_final:.3e}")
    print(f"wrote {len(paths)} traces to {args.out}")
    return 0


def _cmd_profile(args) -> int:
    parsed = load_trace_dir(args.traces)
    table = table_from_traces(parsed, args.metric)
    profile = performance_profile(table)
    write_profile_csv(profile, args.out)
    print(f"{len(profile.solvers)} solvers x {len(profile.problems)} instances "
          f"-> {args.out}")
    return 0


def _cmd_check() -> int:
    from . import checks    # test-only machinery, not loaded otherwise

    results = checks.run_all_checks()
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {mark}  {r.detail}")
        failed += not r.passed
    if failed:
        print(f"{failed} of {len(results)} suites failed")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "profile":
            return _cmd_profile(args)
        return _cmd_check()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
