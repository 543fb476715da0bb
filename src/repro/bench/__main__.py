"""Run the full reproduction: ``python -m repro.bench``.

Regenerates every table and figure of the paper plus the ablations and
prints measured-vs-paper comparison tables.  The report text on stdout
is fully deterministic — byte-identical for any ``--jobs`` count and for
cached re-runs — while progress and timing go to stderr: one line per
job, then, for jobs run in this process, the seconds of each stage and
their serial total.

Unknown flags are errors (argparse), not silently ignored::

    python -m repro.bench --quick --jobs 4     # parallel quick run
    python -m repro.bench --only fig4a --only table1
    python -m repro.bench --list               # stage ids for --only
    python -m repro.bench --json report.json   # machine-readable rows
    python -m repro.bench --no-cache           # always re-simulate
    python -m repro.bench --clear-cache        # drop .bench_cache/ first
    python -m repro.bench --coarsening per_frame   # per-frame reference path
    python -m repro.bench --quick --only fleet --profile   # cProfile jobs
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .cache import ResultCache, code_fingerprint, default_cache_dir
from .jobs import (EXPERIMENTS, build_plan, execute_plan, render_report,
                   results_to_json)
from .pool import last_warmup_seconds


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    """The bench CLI; exposed for tests."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce every table and figure of the paper.")
    parser.add_argument("--quick", action="store_true",
                        help="smaller transfers/sample counts (same stages)")
    parser.add_argument("--jobs", type=_positive_int,
                        default=os.cpu_count() or 1, metavar="N",
                        help="parallel worker processes (default: CPU "
                             "count; 1 = historical serial execution)")
    parser.add_argument("--only", action="append", metavar="EXPERIMENT",
                        choices=EXPERIMENTS,
                        help="run only this stage (repeatable; see --list)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write all rows as JSON to PATH")
    parser.add_argument("--list", action="store_true",
                        help="print stage ids and exit")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the result cache entirely")
    parser.add_argument("--clear-cache", action="store_true",
                        help="delete the cache directory before running")
    parser.add_argument("--cache-dir", metavar="DIR", type=Path,
                        default=None,
                        help="cache location (default: .bench_cache/ or "
                             "$REPRO_BENCH_CACHE)")
    parser.add_argument("--coarsening", choices=("train", "per_frame"),
                        default="train",
                        help="frame-train fast path of the case study, "
                             "A7 flow control and fleet (train, default) or "
                             "the per-frame reference path; the report is "
                             "byte-identical either way")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the selected jobs (implies --jobs 1 "
                             "and bypasses the cache); top-20 cumulative "
                             "to stderr")
    parser.add_argument("--profile-out", metavar="FILE", type=Path,
                        default=None,
                        help="also dump raw cProfile stats to FILE "
                             "(implies --profile)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_arg_parser().parse_args(argv)
    if args.list:
        for experiment in EXPERIMENTS:
            print(experiment)
        return 0

    profiling = args.profile or args.profile_out is not None
    cache_dir = args.cache_dir if args.cache_dir is not None \
        else default_cache_dir()
    if args.clear_cache and ResultCache.clear(cache_dir):
        print(f"cleared cache at {cache_dir}", file=sys.stderr)
    cache = None
    if not args.no_cache and not profiling:
        cache = ResultCache(cache_dir, code_fingerprint())

    sizes = "quick" if args.quick else "full"
    plan = build_plan(sizes, only=args.only, coarsening=args.coarsening)
    jobs = args.jobs
    if profiling:
        # cProfile only sees this process: run serially, skip the cache
        # so the profile actually contains the simulations.
        if jobs != 1:
            print("[--profile: forcing --jobs 1]", file=sys.stderr)
            jobs = 1
    echo = lambda message: print(message, file=sys.stderr, flush=True)
    t0 = time.perf_counter()
    if profiling:
        profiler = cProfile.Profile()
        profiler.enable()
        results, stats = execute_plan(plan, jobs=jobs, cache=None, echo=echo)
        profiler.disable()
        pstats.Stats(profiler, stream=sys.stderr) \
            .sort_stats("cumulative").print_stats(20)
        if args.profile_out is not None:
            profiler.dump_stats(str(args.profile_out))
            print(f"[profile stats written to {args.profile_out}]",
                  file=sys.stderr)
    else:
        results, stats = execute_plan(plan, jobs=jobs, cache=cache, echo=echo)
    wall = time.perf_counter() - t0
    if stats.stage_seconds:
        for label, seconds in stats.stage_seconds.items():
            echo(f"  stage {label}: {seconds:.1f}s")
        echo(f"  serial total: {sum(stats.stage_seconds.values()):.1f}s")

    text, ok = render_report(results)
    sys.stdout.write(text)
    if args.json:
        Path(args.json).write_text(
            json.dumps(results_to_json(results, ok), indent=2) + "\n")
    warmup = last_warmup_seconds()
    warmup_note = "" if warmup is None else f"; pool warmup {warmup:.1f}s"
    print(f"[{wall:.1f}s wall-clock with --jobs {jobs}; "
          f"{stats.summary()}{warmup_note}]", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
