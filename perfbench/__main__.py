"""Command line: ``python3 -m perfbench [--workload NAME] [options]``.

With ``--workload NAME`` one workload runs in this process and the last
line of standard output is its JSON result.  Without it (``all``), every
workload runs in its own fresh interpreter, one at a time.  The exit code
is 0 when every output was correct, 1 when one was not, and 2 when the
simulator sources are missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from . import add_sources

WORKLOAD_NAMES = ("seq_write", "seq_read", "rand_4k", "image_ingest",
                  "fleet_zipf")


def _parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (held-out seed: 2)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="wall time of the measured runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--trace-out", type=Path,
                        help="traced run: write aggregates and raw spans "
                             "to this JSON file")
    parser.add_argument("--record", type=Path,
                        help="append the result as one JSON line to this "
                             "file (input of perfbench/compare.py)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.trace_out is not None and (args.workload == "all"
                                       or not args.trace):
        parser.error("--trace-out needs --trace 1 and one --workload")
    return args


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh interpreter, one at a time."""
    status = 0
    summary = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, "-m", "perfbench", "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.record is not None:
            cmd += ["--record", str(args.record)]
        proc = subprocess.run(cmd, cwd=Path(__file__).resolve().parent.parent,
                              stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        try:  # a run that crashed printed no result
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        ok = proc.returncode == 0 and result is not None and result["correct"]
        if not ok:
            status = 1
        summary.append((name, "ok" if ok else "FAILED", result))
    print("== summary ==")
    for name, verdict, result in summary:
        attempted = result["attempted"] if result else "-"
        failed = result["failed"] if result else "-"
        print(f"  {name:13s} {verdict:6s} ops {attempted} failed {failed}")
    return status


def _print_report(report) -> None:
    print(f"== {report.workload}  seed {report.seed}  "
          f"{'traced' if report.traced else 'untraced'} ==")
    for row in report.rows:
        band = f"  band {row.expected}" if row.expected is not None else ""
        verdict = {True: "  [in band]", False: "  [OUT OF BAND]",
                   None: ""}[row.in_band]
        print(f"  {row.series + '/' + row.system:34s} {row.measured:12.4f} "
              f"{row.unit}{band}{verdict}")
    for point, times in report.samples.items():
        print(f"  run {point:26s} " + " ".join(f"{t:.3f}" for t in times))
    for problem in report.problems + report.missed:
        print(f"  PROBLEM {problem}")
    print(f"  digest {report.digest}")
    for name, metric in report.result["metrics"].items():
        print(f"  {name:24s} {metric['value']:14.6g} {metric['unit']}")


def main(argv: list) -> int:
    args = _parse(argv)
    if not add_sources():
        print("perfbench: no src/repro next to perfbench/; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    from .harness import run_workload
    report = run_workload(args.workload, args.seed, args.seconds,
                          trace=bool(args.trace))
    _print_report(report)
    if args.trace_out is not None:
        args.trace_out.write_text(json.dumps({
            "workload": report.workload, "seed": report.seed,
            "metrics": report.result["metrics"], "keys": report.spans,
            "spans": [dict(zip(("id", "parent", "layer", "kind", "start_s",
                                "end_s"), span))
                      for span in report.raw_spans]}))
    if args.record is not None:
        with args.record.open("a") as fh:
            fh.write(json.dumps({"workload": report.workload,
                                 "seed": report.seed, "trace": args.trace,
                                 "digest": report.digest,
                                 **report.result}) + "\n")
    print(json.dumps(report.result), flush=True)
    return 0 if report.result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
