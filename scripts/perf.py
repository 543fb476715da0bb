#!/usr/bin/env python3
"""Performance harness: kernel microbenchmark + timed experiment subsets.

Usage::

    PYTHONPATH=src python scripts/perf.py            # measure, write baseline
    PYTHONPATH=src python scripts/perf.py --check    # validate against baseline

The default mode runs a deterministic event-kernel microbenchmark (reported
as events/sec), two small timed experiment subsets, a serial-vs-parallel
sweep of the warm-pool job runner (``--jobs`` 1/2/4), the forked-vs-cold
scenario sweep (see below), and the train-vs-per-frame fleet coarsening
sweep, and writes the results to ``BENCH_sim_kernel.json`` (schema 5) at
the repo root.

Schema 5 adds the ``fleet_coarsening`` section: the quick-profile fleet
family (the exact seven cells the ``--quick`` bench runs) is timed twice —
once with the frame-train fast path (``coarsening="train"``), once on the
per-frame reference path — ``COARSEN_REPEATS`` interleaved pairs, gated on
the best *per-pair* ratio (pairing keeps host-load noise correlated across
the two modes; independent best-of minima do not).  Both
the per-member row payloads' byte-identity and the ``>=
COARSEN_GATE_MIN_RATIO`` speedup are **hard-gated** in ``--check`` (the
ratio compares two runs on the *same* host in the *same* process, so no
core-count or cross-host exemption applies); the recorded train-mode
wall-clock additionally gets the same advisory cross-host regression rule
as the kernel microbench (compared only when ``host_cores`` matches,
beyond ``--tolerance`` is exit 3).

Schema 4 adds two things.  First, the ``fork_sweep`` section: the 16-branch
fault-storm scenario from ``repro.bench.experiments.fork_sweep`` is run
twice — once branched from a single warm prefix by the checkpoint/fork
engine (``repro.sim.snapshot``), once fully cold per branch — recording
both wall-clocks, the speedup, and whether every branch's payload was
byte-identical to its cold twin.  Both halves are **hard-gated** in
``--check`` (equivalence always; ``>= 3x`` speedup whenever ``os.fork``
exists — prefix sharing does not depend on core count, so this gate runs
even on 1-core hosts).  Second, schema validation now rejects ``null``
values in the sweep's ``warmup_seconds``: ``jobs: 1`` records ``0.0``,
whose documented meaning is "no warm pool is built for the serial
in-process run, so its warmup cost is zero by definition".

Cross-host comparisons: the kernel-throughput advisory is only meaningful
against a baseline recorded on a comparable host, so ``--check`` skips it
(with a notice) when the live core count differs from the recorded
``kernel.host_cores``.  A parallel-runner sweep recorded below
``GATE_MIN_CORES`` is stamped ``"advisory": true`` — such a sweep can
never serve as a regression reference.

The parallel sweep (and the gate built on it) runs the **full tiny plan**,
not a hand-picked stage subset.  An earlier revision gated a 12-job subset
whose serial runtime (~0.5s) was smaller than the warm pool's own spawn +
dispatch overhead, so the committed baseline *recorded a sub-1x "speedup"
while the gate demanded 2x* — a contradiction that only escaped notice
because the gate also skipped on small hosts.  Two defenses now make that
state unrepresentable:

* ``measure`` refuses to write a baseline that fails its own gate
  (:func:`baseline_contradiction`) when the measuring host has enough
  cores for the gate to apply; and
* ``--check`` hard-fails on a committed baseline that is self-contradictory
  — **on any host**, because the contradiction is in the committed file,
  not in local timing.

``--check`` validates the current tree against the committed baseline and
uses distinct exit codes so ``scripts/check.sh`` can tell hard failures
from advisories:

* ``0`` — everything passed.
* ``1`` — hard failure: the kernel event count diverged from the baseline
  (a determinism bug, never host noise); the committed baseline is
  self-contradictory (recorded a gate-failing sweep from a gate-capable
  host, or a fork sweep that was not byte-identical / below its gate);
  the live parallel gate ran (>= 4 usable cores) and ``--jobs 4`` fell
  below the required speedup; or the live fork gate ran (``os.fork``
  available) and the forked sweep was not byte-identical to cold or
  below ``FORK_GATE_MIN_SPEEDUP``.
* ``2`` — the baseline is missing or stale (schema / workload shape /
  null ``warmup_seconds``).
* ``3`` — advisory: kernel throughput regressed beyond ``--tolerance``
  versus the committed baseline.  Wall-clock moves with host load, so
  ``check.sh`` reports this as a warning, not a failure.

The *live* parallel gate is conditioned on ``>= 4`` usable cores because
the speedup it enforces is physically impossible on smaller hosts — a
1-core CI box legitimately reports ~1x — so there it prints a skip notice
instead of failing.  The baseline-consistency check is *not* host-gated:
it judges the recorded sweep against the cores recorded alongside it.

This file is allowlisted for wall-clock reads in SIM004
(``repro.analysis.rules.determinism``): it *times the simulator*, it is not
model code.  The simulated workloads themselves are fully deterministic —
the event count is asserted stable across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Generator, Optional, Sequence, Tuple

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

#: parallel-runner sweep recorded in the baseline (jobs=1 is the reference)
JOBS_SWEEP: Tuple[int, ...] = (1, 2, 4)
#: hard gate: --jobs 4 must reach this speedup ... but only on hosts with
#: at least GATE_MIN_CORES usable cores (the gate is meaningless below).
GATE_MIN_SPEEDUP = 2.0
GATE_JOBS = 4
GATE_MIN_CORES = 4

#: forked-vs-cold scenario sweep shape (the ISSUE 9 headline): 16 storm
#: branches off one warm prefix, each byte-identical to its cold twin.
FORK_BRANCHES = 16
FORK_WARM_BYTES = 2 * MiB
FORK_BRANCH_BYTES = 128 * KiB
#: hard gate: forked sweep must beat cold re-simulation by this factor.
#: Unlike the parallel gate there is NO core-count exemption — prefix
#: sharing is parallelism-independent, so even a 1-core host must hit it
#: (the gate only skips where os.fork does not exist at all).
FORK_GATE_MIN_SPEEDUP = 3.0

#: hard gate: the frame-train fast path must run the quick fleet family
#: at least this much faster than the per-frame reference path, with
#: byte-identical row payloads.  The ratio divides two wall-clocks taken
#: on the same host in the same process, so it has no core-count or
#: cross-host exemption at all — it is a property of the code, not the
#: machine.
COARSEN_GATE_MIN_RATIO = 3.0
COARSEN_REPEATS = 3


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


def kernel_microbench(repeats: int = 3) -> Tuple[int, float]:
    """Run the microbenchmark; returns (kernel events, best-run seconds).

    Best-of-*repeats* damps host-load noise in the throughput figure; the
    event count is asserted identical across all runs, so every repeat is
    also a determinism check.
    """
    best = float("inf")
    events = -1
    for _ in range(repeats):
        sim = Simulator()
        res = Resource(sim, capacity=4, name="bench.res")
        store = Store(sim, capacity=None, name="bench.store")
        for ident in range(N_PROCS):
            _ = sim.process(_worker(sim, res, store, ident))
        t0 = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - t0
        if events >= 0 and sim._seq != events:
            raise AssertionError(
                f"kernel event count varied across runs: {sim._seq} != "
                f"{events}")
        events = sim._seq
        best = min(best, elapsed)
    return events, best


def timed_experiments() -> Dict[str, Dict[str, float]]:
    """Time two small end-to-end experiment subsets (seconds each)."""
    from repro.bench.experiments.fig4 import run_fig4a, run_fig4b

    subsets = {
        "fig4a_seq_16MiB": lambda: run_fig4a(transfer_bytes=16 * MiB),
        "fig4b_rand_4MiB": lambda: run_fig4b(transfer_bytes=4 * MiB),
    }
    out: Dict[str, Dict[str, float]] = {}
    for name, fn in subsets.items():
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        out[name] = {"seconds": round(seconds, 3)}
        print(f"  {name}: {seconds:.2f}s "
              f"({'in band' if result.all_in_band else 'OUT OF BAND'})")
    return out


def parallel_gate_verdict(speedup: float, cores: int) -> Optional[bool]:
    """Pure gate decision: ``None`` = not applicable on *cores* hosts.

    Keeping this a pure function of (speedup, cores) is what lets tests
    pin the gate's behaviour — and the baseline-consistency check reuse
    it against *recorded* values — without timing anything.
    """
    if cores < GATE_MIN_CORES:
        return None
    return speedup >= GATE_MIN_SPEEDUP


def baseline_contradiction(doc: Dict[str, Any]) -> Optional[str]:
    """Why *doc* fails its own parallel gate, or ``None`` if consistent.

    A baseline is self-contradictory when the sweep it recorded — taken
    on a host with enough cores for the gate to apply (``host_cores`` is
    recorded next to the sweep) — shows a ``--jobs GATE_JOBS`` speedup
    below the gate.  Committing such a file would make every gate-capable
    host fail ``--check`` immediately, so both ``measure`` and ``--check``
    treat it as a hard error.
    """
    runner = doc.get("parallel_runner") or {}
    cores = runner.get("host_cores")
    if cores is None:
        return None  # pre-schema-3 docs are rejected as stale instead
    for entry in runner.get("sweep", []):
        if entry.get("jobs") != GATE_JOBS:
            continue
        speedup = float(entry.get("speedup", 0.0))
        if parallel_gate_verdict(speedup, cores) is False:
            return (f"recorded --jobs {GATE_JOBS} speedup {speedup:.2f}x "
                    f"from a {cores}-core host is below the required "
                    f"{GATE_MIN_SPEEDUP:.1f}x")
    fork = doc.get("fork_sweep") or {}
    if fork.get("mechanism") == "fork":
        # Unlike the parallel gate, no host exemption applies: a recorded
        # fork sweep that missed equivalence or its speedup would fail
        # --check on every POSIX host, so committing one is a hard error.
        if fork.get("identical") is not True:
            return ("recorded fork sweep was not byte-identical to its "
                    "cold runs")
        speedup = float(fork.get("speedup", 0.0))
        if fork_gate_verdict(speedup, True) is False:
            return (f"recorded forked-vs-cold speedup {speedup:.2f}x is "
                    f"below the required {FORK_GATE_MIN_SPEEDUP:.1f}x")
    fleet = doc.get("fleet_coarsening") or {}
    if fleet:
        # Same logic as the fork section: the coarsening gate applies on
        # every host, so a committed baseline that misses it is wrong on
        # its face, not a victim of local timing.
        if fleet.get("identical") is not True:
            return ("recorded fleet coarsening sweep was not "
                    "byte-identical between train and per_frame")
        speedup = float(fleet.get("speedup", 0.0))
        if coarsen_gate_verdict(speedup, True) is False:
            return (f"recorded train-vs-per_frame speedup {speedup:.2f}x "
                    f"is below the required {COARSEN_GATE_MIN_RATIO:.1f}x")
    return None


def validate_baseline(doc: Dict[str, Any]) -> Optional[str]:
    """Why *doc* is stale (schema/shape), or ``None`` when usable.

    Staleness is distinct from contradiction: a stale baseline simply
    needs regenerating (exit 2), while a contradictory one is wrong on
    its face (exit 1).  Nulls in the parallel sweep's
    ``warmup_seconds`` are stale: schema 4 defines the field as a float
    on every entry (``0.0`` for the poolless serial run), so a null can
    only come from a pre-schema-4 writer.
    """
    kernel = doc.get("kernel", {})
    if (doc.get("schema") != SCHEMA or not kernel.get("events_per_sec")
            or kernel.get("n_procs") != N_PROCS
            or kernel.get("n_iters") != N_ITERS):
        return "schema or kernel workload shape changed"
    for entry in (doc.get("parallel_runner") or {}).get("sweep", []):
        if entry.get("warmup_seconds") is None:
            return (f"null warmup_seconds in the jobs={entry.get('jobs')} "
                    f"sweep entry (schema 4 records 0.0 for the poolless "
                    f"serial run)")
    fleet = doc.get("fleet_coarsening") or {}
    if doc.get("experiments") is not None and not fleet.get("train_seconds"):
        return ("missing fleet_coarsening section (schema 5 records the "
                "train-vs-per_frame quick fleet sweep)")
    return None


# ------------------------------------------------------ fork scenario gate
def fork_gate_verdict(speedup: float,
                      identical: bool) -> Optional[bool]:
    """Pure fork-gate decision; pinned by tests without timing anything.

    Equivalence breaks are never acceptable; the speedup threshold is
    inclusive.  Returns a bool — unlike :func:`parallel_gate_verdict`
    there is no inapplicable-host ``None`` case, because prefix sharing
    needs no cores (callers skip only where ``os.fork`` is missing).
    """
    if not identical:
        return False
    return speedup >= FORK_GATE_MIN_SPEEDUP


def fork_sweep_measure(n_branches: int = FORK_BRANCHES,
                       warm_bytes: int = FORK_WARM_BYTES,
                       branch_bytes: int = FORK_BRANCH_BYTES
                       ) -> Dict[str, Any]:
    """Time the storm sweep forked-from-one-prefix versus fully cold.

    Byte-identity is checked on the canonical JSON of the full payload
    list — every branch's stats, event count, and clock must match its
    cold twin exactly.  Where ``os.fork`` is unavailable the sweep still
    runs (replay vs cold) so the equivalence half is verified, but the
    speedup is reported for information only.
    """
    from repro.bench.experiments.fork_sweep import storm_scenario
    from repro.bench.pool import shutdown_pool

    # The parallel sweep may have left the warm pool (and its executor
    # management threads) alive in this process; a fork point requires a
    # single-threaded parent, so join it first — exactly the hazard the
    # engine's runtime guard and SIM011 exist to catch.
    shutdown_pool(wait=True)
    for _ in range(500):  # pool threads unwind asynchronously post-join
        if threading.active_count() == 1:
            break
        time.sleep(0.01)
    setup, warm, branches = storm_scenario(warm_bytes, branch_bytes,
                                           n_branches)
    mechanism = ("fork" if fork_available()
                 and threading.active_count() == 1 else "replay")
    engine = ScenarioEngine(setup, warm)
    t0 = time.perf_counter()
    branched = engine.run(branches, mechanism=mechanism)
    forked_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    cold = ScenarioEngine(setup, warm).run(branches, mechanism="cold")
    cold_s = time.perf_counter() - t0
    identical = (json.dumps(branched, sort_keys=True)
                 == json.dumps(cold, sort_keys=True))
    speedup = cold_s / forked_s if forked_s > 0 else float("inf")
    return {
        "branches": n_branches,
        "warm_bytes": warm_bytes,
        "branch_bytes": branch_bytes,
        "mechanism": mechanism,
        "forked_seconds": round(forked_s, 3),
        "cold_seconds": round(cold_s, 3),
        "speedup": round(speedup, 3),
        "identical": identical,
    }


def check_fork_gate() -> int:
    """Live hard gate: forked sweep beats cold >= 3x, byte-identical.

    Runs on every host with ``os.fork`` — including 1-core ones, since
    the win comes from not re-simulating the prefix, not from
    parallelism.  Elsewhere it still verifies replay/cold equivalence
    (a miss is a hard failure) and skips only the speedup half.
    """
    result = fork_sweep_measure()
    label = (f"{result['branches']}-branch storm sweep "
             f"({result['mechanism']})")
    if not result["identical"]:
        print(f"perf: fork gate FAILED — {label} was not byte-identical "
              f"to its cold runs (a determinism or fork-isolation bug)")
        return 1
    if result["mechanism"] != "fork":
        print(f"perf: fork speedup gate SKIPPED — os.fork unavailable; "
              f"{label} verified byte-identical to cold "
              f"({result['speedup']:.2f}x, informational)")
        return 0
    if fork_gate_verdict(result["speedup"], True) is False:
        print(f"perf: fork gate FAILED — {label} speedup "
              f"{result['speedup']:.2f}x < required "
              f"{FORK_GATE_MIN_SPEEDUP:.1f}x "
              f"(cold {result['cold_seconds']:.2f}s vs forked "
              f"{result['forked_seconds']:.2f}s)")
        return 1
    print(f"perf: fork gate passed — {label} {result['speedup']:.2f}x "
          f">= {FORK_GATE_MIN_SPEEDUP:.1f}x, byte-identical "
          f"(cold {result['cold_seconds']:.2f}s vs forked "
          f"{result['forked_seconds']:.2f}s)")
    return 0


# --------------------------------------------------- fleet coarsening gate
def coarsen_gate_verdict(speedup: float, identical: bool) -> bool:
    """Pure coarsening-gate decision; pinned by tests without timing.

    Mirrors :func:`fork_gate_verdict`: an equivalence break is never
    acceptable, the ratio threshold is inclusive, and there is no
    inapplicable-host case — both halves of the ratio are measured on
    the same host in the same process.
    """
    if not identical:
        return False
    return speedup >= COARSEN_GATE_MIN_RATIO


def _quick_fleet_family():
    """``(label, run(coarsening) -> canonical-JSON rows)`` per quick cell.

    The exact seven fleet cells of the ``--quick`` bench profile, built
    from the same :data:`repro.bench.jobs.PROFILES` sizes so this sweep
    tracks the quick profile automatically.
    """
    from repro.bench.experiments.fleet import (FLEET_NODE_COUNTS,
                                               FLEET_SCALE_SKEW,
                                               FLEET_SKEW_NODES, FLEET_SKEWS,
                                               fleet_incast_point,
                                               fleet_scale_point)
    from repro.bench.jobs import PROFILES
    from repro.bench.runner import rows_to_json

    sizes = PROFILES["quick"]

    def canon(rows) -> str:
        return json.dumps(rows_to_json(rows), sort_keys=True)

    members = []
    for n in FLEET_NODE_COUNTS:
        members.append((f"scale/{n}n", lambda c, n=n: canon(fleet_scale_point(
            n, FLEET_SCALE_SKEW, sizes["fleet_requests"],
            sizes["fleet_objects"], sizes["fleet_scale_gap_ns"],
            coarsening=c))))
    for skew in FLEET_SKEWS:
        members.append((f"skew/z{skew:g}",
                        lambda c, skew=skew: canon(fleet_scale_point(
                            FLEET_SKEW_NODES, skew, sizes["fleet_requests"],
                            sizes["fleet_objects"],
                            sizes["fleet_skew_gap_ns"], coarsening=c))))
    members.append(("incast", lambda c: canon(fleet_incast_point(
        sizes["fleet_incast_senders"], sizes["fleet_incast_mib"],
        coarsening=c))))
    return members


def fleet_coarsening_measure(repeats: int = COARSEN_REPEATS
                             ) -> Dict[str, Any]:
    """Time the quick fleet family train-vs-per-frame, interleaved.

    Each repeat runs the whole family once per mode back to back
    (train, then per_frame) and yields one *paired* ratio; the recorded
    figures are those of the best-ratio pair.  Pairing matters on a
    noisy host: the two runs of a pair are adjacent in time, so load
    swings hit both modes together and mostly cancel in the ratio,
    whereas taking each mode's best total across *different* repeats
    lets a slow train window meet a fast per_frame window and sink the
    gated figure even when every individual pair passes (observed as a
    2.6x flake on a structurally ~3.9x host).  The invariant
    ``speedup == per_frame_seconds / train_seconds`` holds exactly,
    both measured in the same pair.  Every member's canonical row JSON
    is also compared across modes on every repeat: the fast path must
    be observationally indistinguishable, not just fast.
    """
    members = _quick_fleet_family()
    best = {"train": float("inf"), "per_frame": float("inf"),
            "ratio": 0.0}
    identical = True
    for _ in range(repeats):
        docs: Dict[str, list] = {}
        took: Dict[str, float] = {}
        for mode in ("train", "per_frame"):
            t0 = time.perf_counter()
            docs[mode] = [run(mode) for _, run in members]
            took[mode] = time.perf_counter() - t0
        identical = identical and docs["train"] == docs["per_frame"]
        ratio = (took["per_frame"] / took["train"]
                 if took["train"] > 0 else float("inf"))
        if ratio > best["ratio"]:
            best = {"train": took["train"],
                    "per_frame": took["per_frame"], "ratio": ratio}
    return {
        "profile": "quick",
        "members": [label for label, _ in members],
        "repeats": repeats,
        "host_cores": usable_cores(),
        "train_seconds": round(best["train"], 3),
        "per_frame_seconds": round(best["per_frame"], 3),
        "speedup": round(best["ratio"], 3),
        "identical": identical,
    }


def check_coarsening_gate() -> Tuple[int, Optional[Dict[str, Any]]]:
    """Live hard gate: train >= COARSEN_GATE_MIN_RATIO x, byte-identical.

    Returns ``(exit_code, measurement)`` so :func:`check` can reuse the
    live train-mode wall-clock for the advisory baseline comparison
    without timing the family twice.
    """
    result = fleet_coarsening_measure()
    label = (f"quick fleet family ({len(result['members'])} cells, "
             f"best pair of {result['repeats']})")
    if not result["identical"]:
        print(f"perf: coarsening gate FAILED — {label} train rows were "
              f"not byte-identical to per_frame (an exactness bug in the "
              f"frame-train fast path)")
        return 1, result
    if coarsen_gate_verdict(result["speedup"], True) is False:
        print(f"perf: coarsening gate FAILED — {label} train speedup "
              f"{result['speedup']:.2f}x < required "
              f"{COARSEN_GATE_MIN_RATIO:.1f}x (per_frame "
              f"{result['per_frame_seconds']:.2f}s vs train "
              f"{result['train_seconds']:.2f}s)")
        return 1, result
    print(f"perf: coarsening gate passed — {label} "
          f"{result['speedup']:.2f}x >= {COARSEN_GATE_MIN_RATIO:.1f}x, "
          f"rows byte-identical (per_frame "
          f"{result['per_frame_seconds']:.2f}s vs train "
          f"{result['train_seconds']:.2f}s)")
    return 0, result


def parallel_runner_sweep(jobs_sweep: Sequence[int] = JOBS_SWEEP
                          ) -> Dict[str, Any]:
    """Wall-clock the warm-pool runner across worker counts, uncached.

    Runs the **full tiny plan** once per entry of *jobs_sweep* (``1`` is
    the serial reference) and records wall-clock, speedup versus serial,
    and the warm-pool build time for each parallel entry.  The full plan
    (not a stage subset) is the right granule: its serial runtime is an
    order of magnitude above the pool's spawn/dispatch overhead, so the
    recorded speedup measures the runner, not the pool tax on a
    too-small workload.  Every report text is asserted byte-identical to
    the serial one — a speedup that changes the output would be a
    determinism bug, not a win.
    """
    from repro.bench.jobs import build_plan, execute_plan, render_report
    from repro.bench.pool import last_warmup_seconds

    plan = build_plan("tiny")
    n_jobs = sum(len(stage.jobs) for stage in plan)
    sweep = []
    serial_s: Optional[float] = None
    serial_text: Optional[str] = None
    for jobs in jobs_sweep:
        t0 = time.perf_counter()
        results, _ = execute_plan(plan, jobs=jobs)
        elapsed = time.perf_counter() - t0
        text, _ = render_report(results)
        if jobs == 1:
            serial_s, serial_text = elapsed, text
        elif text != serial_text:
            raise AssertionError(
                f"--jobs {jobs} report text diverged from the serial run")
        speedup = (serial_s / elapsed
                   if serial_s is not None and elapsed > 0 else 1.0)
        # warmup_seconds semantics (schema 4): the pool-build cost this
        # entry paid.  jobs=1 runs in-process — no warm pool is ever
        # built, so its warmup cost is 0.0 *by definition*, not unknown;
        # the schema validator rejects null here.
        warmup = (last_warmup_seconds() or 0.0) if jobs > 1 else 0.0
        sweep.append({
            "jobs": jobs,
            "seconds": round(elapsed, 3),
            "speedup": round(speedup, 3),
            "warmup_seconds": round(warmup, 3),
        })
        note = "" if jobs == 1 else f", pool warmup {warmup:.2f}s"
        print(f"  --jobs {jobs}: {elapsed:.2f}s ({speedup:.2f}x{note}, "
              f"report byte-identical)")
    cores = usable_cores()
    return {
        "n_jobs": n_jobs,
        "host_cores": cores,
        # A sweep recorded below the gate's core floor measures pool tax,
        # not runner scaling: stamp it advisory so no checker ever treats
        # it as a regression reference (the committed 0.92x @ host_cores=1
        # sweep used to masquerade as a meaningful baseline).
        "advisory": cores < GATE_MIN_CORES,
        "sweep": sweep,
    }


def measure(skip_experiments: bool = False) -> Dict[str, Any]:
    """Full measurement pass; returns the baseline document."""
    print(f"kernel microbenchmark ({N_PROCS} procs x {N_ITERS} iters) ...")
    events, elapsed = kernel_microbench()
    eps = events / elapsed if elapsed > 0 else float("inf")
    print(f"  {events} events in {elapsed:.3f}s = {eps:,.0f} events/sec")
    doc: Dict[str, Any] = {
        "schema": SCHEMA,
        "kernel": {
            "n_procs": N_PROCS,
            "n_iters": N_ITERS,
            # recorded so --check can refuse to compare throughput
            # against a baseline from a differently-sized host
            "host_cores": usable_cores(),
            "events": events,
            "seconds": round(elapsed, 4),
            "events_per_sec": round(eps),
        },
    }
    if not skip_experiments:
        print("timed experiment subsets ...")
        doc["experiments"] = timed_experiments()
        print(f"parallel runner sweep (--jobs {list(JOBS_SWEEP)}, "
              "uncached) ...")
        doc["parallel_runner"] = parallel_runner_sweep()
        print(f"fork sweep ({FORK_BRANCHES} branches, forked vs cold) ...")
        fork = fork_sweep_measure()
        print(f"  {fork['mechanism']}: {fork['forked_seconds']:.2f}s vs "
              f"cold {fork['cold_seconds']:.2f}s = {fork['speedup']:.2f}x, "
              f"identical={fork['identical']}")
        doc["fork_sweep"] = fork
        print("fleet coarsening sweep (quick family, train vs per_frame, "
              f"best pair of {COARSEN_REPEATS}) ...")
        fleet = fleet_coarsening_measure()
        print(f"  train {fleet['train_seconds']:.2f}s vs per_frame "
              f"{fleet['per_frame_seconds']:.2f}s = "
              f"{fleet['speedup']:.2f}x, identical={fleet['identical']}")
        doc["fleet_coarsening"] = fleet
    return doc


def check_parallel_gate() -> int:
    """Live hard gate: --jobs 4 speedup on capable hosts; skip elsewhere."""
    cores = usable_cores()
    if parallel_gate_verdict(GATE_MIN_SPEEDUP, cores) is None:
        print(f"perf: parallel gate SKIPPED — {cores} usable core(s) < "
              f"{GATE_MIN_CORES} required for a meaningful "
              f"{GATE_MIN_SPEEDUP:.1f}x target")
        return 0
    result = parallel_runner_sweep(jobs_sweep=(1, GATE_JOBS))
    speedup = result["sweep"][-1]["speedup"]
    if parallel_gate_verdict(speedup, cores) is False:
        print(f"perf: parallel gate FAILED — --jobs {GATE_JOBS} speedup "
              f"{speedup:.2f}x < required {GATE_MIN_SPEEDUP:.1f}x")
        return 1
    print(f"perf: parallel gate passed — --jobs {GATE_JOBS} speedup "
          f"{speedup:.2f}x >= {GATE_MIN_SPEEDUP:.1f}x")
    return 0


def check(tolerance: float) -> int:
    """Validate the current tree against the committed baseline.

    Hard failures (exit 1): kernel event-count divergence; a committed
    baseline that fails its own recorded parallel, fork, or coarsening
    gate (checked on every host — the contradiction is in the file, not
    in local timing); live parallel-gate miss on a >= GATE_MIN_CORES
    host; live fork-gate miss wherever ``os.fork`` exists; live
    coarsening-gate miss on any host (equivalence break or train ratio
    below COARSEN_GATE_MIN_RATIO).  Stale baseline (schema, workload
    shape, null warmup_seconds, missing fleet_coarsening) exits 2.  A
    wall-clock regression beyond *tolerance* — kernel throughput or the
    quick fleet train time — is advisory (exit 3), and is only judged
    at all when this host's core count matches the one recorded next to
    the figure (cross-host wall-clock comparison is noise, not signal).
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
              "the committed baseline fails its own gate, regenerate it "
              "with scripts/perf.py after fixing the runner")
        return 1

    base_kernel = baseline["kernel"]
    base_eps = base_kernel["events_per_sec"]
    base_events = base_kernel.get("events")
    events, elapsed = kernel_microbench()
    eps = events / elapsed if elapsed > 0 else float("inf")
    if events != base_events:
        print(f"perf: DETERMINISM VIOLATION — kernel event count {events} "
              f"!= baseline {base_events}; the simulated workload diverged")
        return 1

    gate = check_parallel_gate()
    if gate:
        return gate
    gate = check_fork_gate()
    if gate:
        return gate
    gate, fleet_live = check_coarsening_gate()
    if gate:
        return gate

    base_cores = base_kernel.get("host_cores")
    cores = usable_cores()
    if base_cores is not None and base_cores != cores:
        print(f"perf: throughput comparison SKIPPED — baseline recorded "
              f"on a {base_cores}-core host, this host has {cores}; "
              f"cross-host wall-clock deltas are not regressions")
        return 0
    delta_pct = (eps - base_eps) / base_eps * 100.0
    print(f"perf: {eps:,.0f} events/sec vs committed baseline "
          f"{base_eps:,.0f} ({delta_pct:+.1f}%)")
    if eps * tolerance < base_eps:
        print(f"perf: kernel throughput regressed more than "
              f"{(tolerance - 1) * 100:.0f}% below the baseline "
              "(advisory — rerun on an idle host before trusting it)")
        return 3
    base_fleet = baseline.get("fleet_coarsening") or {}
    base_train = base_fleet.get("train_seconds")
    if (fleet_live is not None and base_train
            and base_fleet.get("host_cores") == cores):
        live_train = fleet_live["train_seconds"]
        print(f"perf: quick fleet (train) {live_train:.2f}s vs committed "
              f"baseline {base_train:.2f}s")
        if live_train > base_train * tolerance:
            print(f"perf: quick fleet train wall-clock regressed more "
                  f"than {(tolerance - 1) * 100:.0f}% above the baseline "
                  "(advisory — rerun on an idle host before trusting it)")
            return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="validate against the committed baseline")
    parser.add_argument("--tolerance", type=float, default=1.3,
                        help="slowdown ratio treated as an advisory "
                             "regression in --check mode (default 1.3)")
    parser.add_argument("--no-experiments", action="store_true",
                        help="skip the timed experiment subsets")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.tolerance)
    doc = measure(skip_experiments=args.no_experiments)
    contradiction = baseline_contradiction(doc)
    if contradiction is not None:
        print(f"perf: REFUSING to write a self-contradictory baseline — "
              f"{contradiction}; fix the parallel runner (or the gated "
              "workload size) before committing a new baseline")
        return 1
    BASELINE_FILE.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {BASELINE_FILE.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
