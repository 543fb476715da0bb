"""Judge a change against its parent from recorded benchmark runs.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds one JSON line per run, as ``python3 -m perfbench ...
--record FILE`` appends them; traced runs are ignored.  Runs of a workload
are paired in file order (the i-th parent run with the i-th change run),
so record them alternately, switching which side goes first, with the
same seed within a pair -- ``perfbench/README.md`` has a loop that does.

For every (workload, end-to-end metric) one row reads:

* ``improved``   -- at least 10 pairs, the change wins at least 9 in 10
  (ties count for neither), the medians differ by more than the parent's
  interquartile range, and no larger share of operations failed;
* ``regressed``  -- the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- neither, while the parent's own spread is wider than
  the bound (unless every change run reads better than every parent run);
* ``unchanged``  -- otherwise.

A ``failed_share`` row per workload compares failed / attempted
operations.  Exits 1 when anything regressed or a change run was
incorrect, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> Dict[str, List[dict]]:
    """Untraced runs per workload, in file order."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            if not run.get("trace"):
                runs[run["workload"]].append(run)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: List[float], change: List[float], bound: float,
            lower_is_better: bool, more_failures: bool) -> Tuple[str, int]:
    """The row's verdict and the number of pairs the change won."""
    sign = 1.0 if lower_is_better else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    q1, p_med, q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain = sign * (p_med - c_med)
    if p_med and -gain / abs(p_med) > bound:
        return "regressed", wins
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > q3 - q1 and not more_failures):
        return "improved", wins
    spread = (q3 - q1) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def _cell(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def failed_share(runs: List[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(parent_path: Path, change_path: Path) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load_runs(parent_path), load_runs(change_path)
    status = 0
    print(f"{'workload':13s} {'metric':15s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'wins':>7s}  verdict")
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload:13s} missing runs on one side")
            status = 1
            continue
        n = min(len(p_runs), len(c_runs))
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        if any(p["seed"] != c["seed"] for p, c in zip(p_runs, c_runs)):
            print(f"{workload:13s} warning: pairs ran different seeds")
        more_failures = failed_share(c_runs) > failed_share(p_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            row, wins = verdict(p_vals, c_vals, metric["bound"],
                                metric["better"] == "lower", more_failures)
            if row == "regressed":
                status = 1
            print(f"{workload:13s} {name:15s} {_cell(p_vals):>30s} "
                  f"{_cell(c_vals):>30s} {wins:3d}/{n:<3d}  {row}")
        p_share, c_share = failed_share(p_runs), failed_share(c_runs)
        row = ("regressed" if c_share > p_share
               else "improved" if c_share < p_share else "unchanged")
        if row == "regressed":
            status = 1
        print(f"{workload:13s} {'failed_share':15s} {p_share:30.4%} "
              f"{c_share:30.4%} {'':7s}  {row}")
        if not all(r["correct"] for r in c_runs):
            print(f"{workload:13s} INCORRECT change run(s)")
            status = 1
    return status


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl",
              file=sys.stderr)
        return 2
    return compare(Path(argv[0]), Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
