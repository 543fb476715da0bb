"""CLI driver: ``python -m repro.analysis [paths] [options]``.

Exit codes: 0 — clean, 1 — findings (or suppression debt over baseline),
2 — usage or parse/IO errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .baseline import check_ratchet, load_baseline, write_baseline
from .engine import (
    all_program_rules,
    all_rules,
    analyze_paths,
    render_json,
    render_text,
)


def _split_ids(values: Optional[List[str]]) -> Optional[List[str]]:
    if not values:
        return None
    ids: List[str] = []
    for value in values:
        ids.extend(part.strip() for part in value.split(",") if part.strip())
    return ids


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="snacclint: simulation-hazard static analyzer "
                    "(per-file rules SIM001, SIM002, SIM004, SIM011; "
                    "whole-program rules SIM008, SIM009)",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to analyze")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--select", action="append", metavar="RULES",
                        help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--ignore", action="append", metavar="RULES",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan the per-file pass over N worker processes "
                             "(deterministic path-ordered merge)")
    parser.add_argument("--output", metavar="FILE",
                        help="also write the JSON report to FILE")
    parser.add_argument("--baseline", metavar="FILE",
                        help="fail if '# snacclint: disable' comment count "
                             "exceeds the baseline recorded in FILE")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="record the current suppression count in FILE "
                             "and exit (ratchet bookkeeping)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        table = {**all_rules(), **all_program_rules()}
        for rule_id, rule in sorted(table.items()):
            print(f"{rule_id}  {rule.title}: {rule.hazard}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (or use --list-rules)", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2

    try:
        report = analyze_paths(
            args.paths,
            select=_split_ids(args.select),
            ignore=_split_ids(args.ignore),
            jobs=args.jobs,
        )
    except ValueError as exc:  # unknown rule id in --select/--ignore
        print(f"error: {exc}", file=sys.stderr)
        return 2

    json_report = render_json(report.findings, report.files_analyzed,
                              report=report)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(json_report + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}",
                  file=sys.stderr)
            return 2
    if args.format == "json":
        print(json_report)
    else:
        print(render_text(report.findings, report.files_analyzed))
    for error in report.errors:
        print(f"error: {error}", file=sys.stderr)
    if report.errors:
        return 2

    if args.write_baseline:
        try:
            write_baseline(args.write_baseline, report.suppression_comments)
        except OSError as exc:
            print(f"error: cannot write {args.write_baseline}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"snacclint: baseline {args.write_baseline} set to "
              f"{report.suppression_comments} suppression comments")

    ratchet_failed = False
    if args.baseline:
        try:
            allowed = load_baseline(args.baseline)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ok, message = check_ratchet(report.suppression_comments, allowed)
        if message:
            stream = sys.stdout if ok else sys.stderr
            print(f"snacclint: {message}", file=stream)
        ratchet_failed = not ok

    return 1 if (report.findings or ratchet_failed) else 0


if __name__ == "__main__":
    sys.exit(main())
