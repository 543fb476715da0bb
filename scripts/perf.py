#!/usr/bin/env python3
"""Performance harness: one table of gates over the simulator's hot paths.

Usage::

    PYTHONPATH=src python scripts/perf.py            # measure, write baseline
    PYTHONPATH=src python scripts/perf.py --check    # validate against baseline

Each row of :data:`GATES` names the ``BENCH_sim_kernel.json`` (schema 5)
section it owns, the ``measure`` that produces it, one pure ``verdict``, and
whether a miss is hard (exit 1) or advisory (exit 3); rows sharing a
section share one measurement.  A verdict ``(got, base, tolerance)``
returns ``(ok, note)``, ``ok is None`` where the gate does not apply.  The
same verdict judges a live section against the committed one and the
committed section against itself, so a baseline that fails its own hard
gate can be neither written nor checked (the committed file once recorded
a 0.787x ``--jobs 4`` speedup under a 2.0x gate; DESIGN.md §9.6).

``--check`` exits 2 when the baseline is missing or stale (schema, kernel
workload shape, a null ``warmup_seconds``, a missing gate section); else 1
when the committed baseline fails its own hard gate or a live hard gate
misses; else 3 when an advisory wall-clock figure regressed beyond
``--tolerance`` on a host with the recorded core count (``check.sh`` only
warns: wall-clock moves with host load); else 0.

SIM004 (``repro.analysis.rules.determinism``) allowlists this file's
wall-clock reads: it times the simulator, it is not model code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import (Any, Callable, Dict, Generator, NamedTuple, Optional,
                    Tuple)

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim.core import Event, Simulator  # noqa: E402
from repro.sim.resources import Resource, Store  # noqa: E402
from repro.sim.snapshot import ScenarioEngine, fork_available  # noqa: E402
from repro.units import KiB, MiB  # noqa: E402

BASELINE_FILE = REPO_ROOT / "BENCH_sim_kernel.json"
SCHEMA = 5

#: microbenchmark shape — changing these invalidates committed baselines
N_PROCS = 64
N_ITERS = 600

#: parallel-runner sweep (jobs=1 is the reference); --jobs GATE_JOBS must
#: reach GATE_MIN_SPEEDUP on hosts with at least GATE_MIN_CORES cores
JOBS_SWEEP: Tuple[int, ...] = (1, 2, 4)
GATE_MIN_SPEEDUP = 2.0
GATE_JOBS = 4
GATE_MIN_CORES = 4

#: forked-vs-cold storm sweep: branches off one warm prefix
FORK_BRANCHES = 16
FORK_WARM_BYTES = 2 * MiB
FORK_BRANCH_BYTES = 128 * KiB
FORK_GATE_MIN_SPEEDUP = 3.0

#: train-vs-per_frame quick fleet family, best of COARSEN_REPEATS pairs
COARSEN_GATE_MIN_RATIO = 3.0
COARSEN_REPEATS = 3

Section = Dict[str, Any]
Verdict = Tuple[Optional[bool], str]


def usable_cores() -> int:
    """CPU cores actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


def _worker(sim: Simulator, res: Resource, store: Store, ident: int
            ) -> Generator[Event, Any, None]:
    """Exercise the hot kernel paths: timeouts, semaphores, FIFO hand-off."""
    for it in range(N_ITERS):
        yield sim.timeout(1 + (ident * 31 + it * 7) % 97)
        yield res.acquire()
        try:
            yield sim.timeout(3)
        finally:
            res.release()
        yield store.put((ident, it))
        _ = yield store.get()


def kernel_measure() -> Section:
    """Exact event count and best-of-3 throughput of the kernel.

    Every repeat also asserts the event count, a determinism check.
    """
    best, events = float("inf"), -1
    for _ in range(3):
        sim = Simulator()
        res = Resource(sim, capacity=4, name="bench.res")
        store = Store(sim, capacity=None, name="bench.store")
        for ident in range(N_PROCS):
            _ = sim.process(_worker(sim, res, store, ident))
        t0 = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - t0
        if events >= 0 and sim._seq != events:
            raise AssertionError(f"kernel event count varied across runs: "
                                 f"{sim._seq} != {events}")
        events = sim._seq
        best = min(best, elapsed)
    print(f"  {events} events in {best:.3f}s")
    return {"n_procs": N_PROCS, "n_iters": N_ITERS,
            "host_cores": usable_cores(), "events": events,
            "seconds": round(best, 4), "events_per_sec": round(events / best)}


def parallel_runner_sweep() -> Section:
    """Wall-clock the warm-pool runner over the full tiny plan, uncached.

    The full plan runs an order of magnitude longer than the pool's own
    overhead, so the speedup measures the runner, not the pool tax.  Every
    report is asserted byte-identical to the serial one.
    """
    from repro.bench.jobs import build_plan, execute_plan, render_report
    from repro.bench.pool import last_warmup_seconds

    plan = build_plan("tiny")
    sweep = []
    serial_s = serial_text = None
    for jobs in JOBS_SWEEP:
        t0 = time.perf_counter()
        results, _ = execute_plan(plan, jobs=jobs)
        elapsed = time.perf_counter() - t0
        text, _ = render_report(results)
        if jobs == 1:
            serial_s, serial_text = elapsed, text
        elif text != serial_text:
            raise AssertionError(
                f"--jobs {jobs} report text diverged from the serial run")
        speedup = serial_s / elapsed if serial_s and elapsed > 0 else 1.0
        # the serial run builds no warm pool: its warmup is 0.0 by
        # definition, and a null here marks a pre-schema-4 writer
        warmup = (last_warmup_seconds() or 0.0) if jobs > 1 else 0.0
        sweep.append({"jobs": jobs, "seconds": round(elapsed, 3),
                      "speedup": round(speedup, 3),
                      "warmup_seconds": round(warmup, 3)})
        print(f"  --jobs {jobs}: {elapsed:.2f}s ({speedup:.2f}x)")
    cores = usable_cores()
    # below the core floor a sweep measures pool tax, not runner scaling
    return {"n_jobs": sum(len(stage.jobs) for stage in plan),
            "host_cores": cores, "advisory": cores < GATE_MIN_CORES,
            "sweep": sweep}


def fork_sweep_measure() -> Section:
    """Time the storm sweep forked from one prefix versus fully cold.

    Byte-identity covers every branch payload (stats, events, clock).
    Without ``os.fork`` the sweep runs as replay vs cold.
    """
    from repro.bench.experiments.fork_sweep import storm_scenario
    from repro.bench.pool import shutdown_pool

    # The parallel sweep may have left the warm pool's executor threads
    # alive; a fork point requires a single-threaded parent, so join them
    # first (the hazard the engine's runtime guard and SIM011 catch).
    shutdown_pool(wait=True)
    for _ in range(500):  # pool threads unwind asynchronously post-join
        if threading.active_count() == 1:
            break
        time.sleep(0.01)
    setup, warm, branches = storm_scenario(FORK_WARM_BYTES,
                                           FORK_BRANCH_BYTES, FORK_BRANCHES)
    mechanism = ("fork" if fork_available()
                 and threading.active_count() == 1 else "replay")
    t0 = time.perf_counter()
    branched = ScenarioEngine(setup, warm).run(branches, mechanism=mechanism)
    forked_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    cold = ScenarioEngine(setup, warm).run(branches, mechanism="cold")
    cold_s = time.perf_counter() - t0
    return {"branches": FORK_BRANCHES, "warm_bytes": FORK_WARM_BYTES,
            "branch_bytes": FORK_BRANCH_BYTES, "mechanism": mechanism,
            "forked_seconds": round(forked_s, 3),
            "cold_seconds": round(cold_s, 3),
            "speedup": round(cold_s / forked_s, 3),
            "identical": (json.dumps(branched, sort_keys=True)
                          == json.dumps(cold, sort_keys=True))}


def fleet_coarsening_measure() -> Section:
    """Time the quick fleet family train-vs-per_frame in interleaved pairs.

    The family is the ``--quick`` plan's fleet stage.  Each repeat runs it
    once per mode back to back and the best-ratio pair is recorded.
    Pairing keeps host-load swings common to both modes: taking each
    mode's best across different repeats once let a slow train window meet
    a fast per_frame window and flake at 2.6x on a ~3.9x host.  Rows are
    compared on every repeat.
    """
    from repro.bench.jobs import build_plan, execute_job

    modes = ("train", "per_frame")
    family = {mode: build_plan("quick", only={"fleet"},
                               coarsening=mode)[0].jobs
              for mode in modes}
    pairs = []
    identical = True
    for _ in range(COARSEN_REPEATS):
        took, rows = [], []
        for mode in modes:
            t0 = time.perf_counter()
            rows.append([json.dumps(execute_job(spec), sort_keys=True)
                         for spec in family[mode]])
            took.append(time.perf_counter() - t0)
        identical = identical and rows[0] == rows[1]
        pairs.append(took)
    train_s, per_frame_s = max(pairs, key=lambda pair: pair[1] / pair[0])
    return {"profile": "quick",
            "members": [spec.point for spec in family["train"]],
            "repeats": COARSEN_REPEATS, "host_cores": usable_cores(),
            "train_seconds": round(train_s, 3),
            "per_frame_seconds": round(per_frame_s, 3),
            "speedup": round(per_frame_s / train_s, 3),
            "identical": identical}


def events_verdict(got: Section, base: Section, tol: float) -> Verdict:
    """Hard: the event count is exact, so a drift is a determinism bug."""
    return got.get("events") == base.get("events"), (
        f"{got.get('events')} events, baseline {base.get('events')}")


def _cross_host(got: Section, base: Section) -> Optional[str]:
    """Why wall-clock recorded in *base* cannot judge *got*, if it cannot."""
    if got.get("host_cores") == base.get("host_cores"):
        return None
    return (f"baseline recorded on a {base.get('host_cores')}-core host, "
            f"this host has {got.get('host_cores')}; cross-host wall-clock "
            f"deltas are not regressions")


def throughput_verdict(got: Section, base: Section, tol: float) -> Verdict:
    """Advisory: kernel events/sec at most *tol* times below baseline."""
    skip = _cross_host(got, base)
    if skip:
        return None, skip
    eps, base_eps = got["events_per_sec"], base["events_per_sec"]
    return eps * tol >= base_eps, (
        f"{eps:,} events/sec vs baseline {base_eps:,} "
        f"({(eps - base_eps) / base_eps * 100:+.1f}%)")


def train_time_verdict(got: Section, base: Section, tol: float) -> Verdict:
    """Advisory: quick fleet train seconds at most *tol* times above."""
    skip = _cross_host(got, base)
    if skip:
        return None, skip
    live, recorded = got["train_seconds"], base["train_seconds"]
    return live <= recorded * tol, (
        f"quick fleet (train) {live:.2f}s vs baseline {recorded:.2f}s")


def parallel_verdict(got: Section, base: Section, tol: float) -> Verdict:
    """Hard: ``--jobs 4`` >= 2.0x, judged only from a >= 4-core host."""
    cores = got.get("host_cores")
    speedups = [float(entry.get("speedup", 0.0))
                for entry in got.get("sweep", [])
                if entry.get("jobs") == GATE_JOBS]
    if cores is None or cores < GATE_MIN_CORES or not speedups:
        return None, (f"no --jobs {GATE_JOBS} sweep from a host with >= "
                      f"{GATE_MIN_CORES} cores (recorded: {cores})")
    return min(speedups) >= GATE_MIN_SPEEDUP, (
        f"--jobs {GATE_JOBS} speedup {min(speedups):.2f}x from a "
        f"{cores}-core host (required {GATE_MIN_SPEEDUP:.1f}x)")


def _identical_and_fast(got: Section, floor: float, what: str) -> Verdict:
    """An equivalence break fails at any speedup; the floor is inclusive."""
    speedup = float(got.get("speedup", 0.0))
    if got.get("identical") is not True:
        return False, f"{what} was not byte-identical to its reference"
    return speedup >= floor, (f"{what} {speedup:.2f}x (required "
                              f"{floor:.1f}x), byte-identical")


def fork_verdict(got: Section, base: Section, tol: float) -> Verdict:
    """Hard: identical to cold always, >= 3.0x where ``os.fork`` ran."""
    what = f"{got.get('branches')}-branch {got.get('mechanism')} sweep"
    if got.get("identical") is True and got.get("mechanism") != "fork":
        return None, (f"os.fork unavailable; {what} byte-identical to cold "
                      f"({got.get('speedup')}x, informational)")
    return _identical_and_fast(got, FORK_GATE_MIN_SPEEDUP, what)


def coarsen_verdict(got: Section, base: Section, tol: float) -> Verdict:
    """Hard: quick fleet train rows identical to per_frame, >= 3.0x."""
    return _identical_and_fast(got, COARSEN_GATE_MIN_RATIO,
                               "quick fleet train-vs-per_frame")


class Gate(NamedTuple):
    """One row of the gate table."""

    name: str
    #: the baseline section this row owns (rows may share one)
    section: str
    measure: Callable[[], Section]
    verdict: Callable[[Section, Section, float], Verdict]
    #: a miss is a hard failure (exit 1) rather than advisory (exit 3)
    hard: bool
    #: the live run measures only on hosts with at least this many cores
    min_cores: int = 0


GATES: Tuple[Gate, ...] = (
    Gate("kernel event count", "kernel", kernel_measure, events_verdict,
         hard=True),
    Gate("kernel throughput", "kernel", kernel_measure, throughput_verdict,
         hard=False),
    Gate("parallel gate", "parallel_runner", parallel_runner_sweep,
         parallel_verdict, hard=True, min_cores=GATE_MIN_CORES),
    Gate("fork gate", "fork_sweep", fork_sweep_measure, fork_verdict,
         hard=True),
    Gate("coarsening gate", "fleet_coarsening", fleet_coarsening_measure,
         coarsen_verdict, hard=True),
    Gate("quick fleet train time", "fleet_coarsening",
         fleet_coarsening_measure, train_time_verdict, hard=False),
)


def validate_baseline(doc: Dict[str, Any]) -> Optional[str]:
    """Why *doc* was written for another harness (exit 2), or ``None``."""
    kernel = doc.get("kernel") or {}
    if (doc.get("schema") != SCHEMA or not kernel.get("events_per_sec")
            or kernel.get("n_procs") != N_PROCS
            or kernel.get("n_iters") != N_ITERS):
        return "schema or kernel workload shape changed"
    for gate in GATES:
        if not doc.get(gate.section):
            return f"missing {gate.section} section (gated by {gate.name})"
    for entry in doc["parallel_runner"].get("sweep", []):
        if entry.get("warmup_seconds") is None:
            return (f"null warmup_seconds in the jobs={entry.get('jobs')} "
                    f"sweep entry (schema 4 records 0.0 for the poolless "
                    f"serial run)")
    return None


def baseline_contradiction(doc: Dict[str, Any]) -> Optional[str]:
    """Why *doc* fails one of its own hard gates, or ``None``.

    Each present section is judged by its rows' verdicts against itself,
    on any host: the contradiction lives in the file, not in local timing.
    """
    for gate in GATES:
        section = doc.get(gate.section)
        if gate.hard and section:
            ok, note = gate.verdict(section, section, 1.0)
            if ok is False:
                return f"{gate.name}: {note}"
    return None


def measure() -> Dict[str, Any]:
    """Measure every section once, in table order; the baseline document."""
    doc: Dict[str, Any] = {"schema": SCHEMA}
    for gate in GATES:
        if gate.section not in doc:
            print(f"{gate.section} ...")
            doc[gate.section] = gate.measure()
    return doc


def check(tolerance: float) -> int:
    """Walk :data:`GATES` against the committed baseline; the exit code.

    The first hard miss returns 1; an advisory miss returns 3 at the end.
    """
    if not BASELINE_FILE.exists():
        print(f"perf: no baseline at {BASELINE_FILE.name}; "
              "run scripts/perf.py to create one")
        return 2
    baseline = json.loads(BASELINE_FILE.read_text())
    stale = validate_baseline(baseline)
    if stale is not None:
        print(f"perf: baseline is stale ({stale}); "
              "regenerate with scripts/perf.py")
        return 2
    contradiction = baseline_contradiction(baseline)
    if contradiction is not None:
        print(f"perf: BASELINE SELF-CONTRADICTORY — {contradiction}; "
              "regenerate it with scripts/perf.py after fixing the cause")
        return 1
    live: Dict[str, Section] = {}
    status = 0
    for gate in GATES:
        cores = usable_cores()
        if cores < gate.min_cores:
            print(f"perf: {gate.name} SKIPPED — {cores} usable core(s) < "
                  f"{gate.min_cores} required")
            continue
        if gate.section not in live:
            live[gate.section] = gate.measure()
        ok, note = gate.verdict(live[gate.section],
                                baseline[gate.section], tolerance)
        word = ("SKIPPED" if ok is None else "passed" if ok
                else "FAILED" if gate.hard
                else "REGRESSED (advisory: rerun on an idle host)")
        print(f"perf: {gate.name} {word} — {note}")
        if ok is False:
            if gate.hard:
                return 1
            status = 3
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="validate against the committed baseline")
    parser.add_argument("--tolerance", type=float, default=1.3,
                        help="slowdown ratio treated as an advisory "
                             "regression in --check mode (default 1.3)")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.tolerance)
    doc = measure()
    contradiction = baseline_contradiction(doc)
    if contradiction is not None:
        print(f"perf: REFUSING to write a self-contradictory baseline — "
              f"{contradiction}")
        return 1
    BASELINE_FILE.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {BASELINE_FILE.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
