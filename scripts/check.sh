#!/usr/bin/env bash
# One-shot static gate: snacclint + ruff + mypy + perf smoke.
#
#   ./scripts/check.sh
#
# snacclint (python -m repro.analysis) is always run — it has no
# third-party dependencies.  ruff and mypy run when installed (pip
# install -e '.[lint]') and are skipped with a notice otherwise, so the
# gate works in minimal containers.  The perf gate compares the kernel
# microbenchmark against the committed BENCH_sim_kernel.json: event-count
# determinism, the >=4-core parallel speedup target, and the fleet
# coarsening gate (train >= 3x per_frame, rows byte-identical) are hard
# failures, while throughput regressions only *warn* (wall-clock moves
# with host load).  The coarsening byte-identity section additionally
# pins the ENTIRE quick report — all families — across both modes.
# Exit code is non-zero if any hard gate that ran failed.
# tests/analysis/test_check_script.py runs this script under plain
# pytest, so `pytest -x -q` alone catches regressions.
set -u
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
status=0

echo "== snacclint (python -m repro.analysis) =="
# Hard gate: per-file rules SIM001-SIM005 + SIM011 + whole-program
# rules SIM006-SIM010, fanned over 4 workers with the incremental cache.
# Emits the machine-readable findings artifact (snacclint.json) and
# enforces the suppression-debt ratchet against the checked-in baseline.
python -m repro.analysis src tests benchmarks examples scripts \
    --jobs 4 \
    --output snacclint.json \
    --baseline snacclint_baseline.json || status=1

echo "== ruff =="
if python -m ruff --version >/dev/null 2>&1; then
    python -m ruff check src tests benchmarks examples scripts || status=1
else
    echo "skipped (ruff not installed; pip install -e '.[lint]')"
fi

echo "== mypy =="
if python -m mypy --version >/dev/null 2>&1; then
    python -m mypy || status=1
else
    echo "skipped (mypy not installed; pip install -e '.[lint]')"
fi

echo "== fault smoke (python -m repro.faults) =="
python -m repro.faults || status=1

echo "== fault ablation (tiny) =="
python - <<'EOF' || status=1
from repro.bench.experiments.fault_tolerance import ablation_fault_rate
from repro.units import MiB
result = ablation_fault_rate(rand_bytes=1 * MiB, seq_bytes=2 * MiB,
                             rates=(0.0, 0.05))
print(result.render())
EOF

echo "== parallel runner smoke (--jobs 2, tiny transfers) =="
python - <<'EOF' || status=1
from repro.bench.jobs import build_plan, execute_plan, render_report

plan = build_plan("tiny", only={"table1", "fig4b", "ablation_fc"})
serial, _ = execute_plan(plan, jobs=1)
parallel, _ = execute_plan(plan, jobs=2)
serial_text, serial_ok = render_report(serial)
parallel_text, parallel_ok = render_report(parallel)
assert serial_text == parallel_text, "parallel report diverged from serial"
assert serial_ok == parallel_ok
n_jobs = sum(len(stage.jobs) for stage in plan)
print(f"--jobs 2 byte-identical to serial across {n_jobs} jobs "
      f"in {len(plan)} stages")
EOF

echo "== fleet smoke (2 nodes, fixed seed, exact stats) =="
python - <<'EOF' || status=1
from repro.fleet import FleetConfig, FleetWorkload, run_fleet

result = run_fleet(FleetConfig(n_nodes=2),
                   FleetWorkload(n_objects=128, n_requests=160,
                                 mean_interarrival_ns=4000))
# Exact-stat pins: any drift here is a determinism break in the fleet
# stack (workload RNG, placement, switch fabric, or node model).
assert result.completed == 160, result.completed
assert result.total_bytes == 8334441, result.total_bytes
assert result.elapsed_ns == 779700, result.elapsed_ns
assert result.per_node_requests == {"n0": 94, "n1": 66}, \
    result.per_node_requests
assert result.spilled == 16, result.spilled
assert result.dropped_frames == 0, result.dropped_frames
# Conservation: every frame entering the fabric left it.
assert result.frames_in == result.frames_out + result.frames_in_flight, \
    (result.frames_in, result.frames_out, result.frames_in_flight)
print(f"2-node fleet: {result.completed} streams, "
      f"{result.agg_gbps:.2f} GB/s, exact stats stable")
EOF

echo "== fork-sweep smoke (4 branches, exact stats, fork == cold) =="
python - <<'EOF' || status=1
import json
from repro.bench.experiments.fork_sweep import storm_scenario
from repro.sim.snapshot import ScenarioEngine, fork_available
from repro.units import KiB

setup, warm, branches = storm_scenario(512 * KiB, 256 * KiB, 4)
engine = ScenarioEngine(setup, warm)
mechanism = "fork" if fork_available() else "replay"
shared = engine.run(branches, mechanism=mechanism)
cold = ScenarioEngine(setup, warm).run(branches, mechanism="cold")
assert json.dumps(shared, sort_keys=True) == \
    json.dumps(cold, sort_keys=True), \
    f"{mechanism} branches diverged from cold re-simulation"
# Exact-stat pins: any drift is a determinism break in the checkpoint
# path (quiesce barrier, freelist drain, fault-RNG capture, or the
# rate_scale draw-position contract).  `events` counts kernel events,
# which exact event removals (inline grants, fetch lanes) lower by
# design; `now`, `gbps`, `retries` and `injected` must never move.
ck = engine.checkpoint
assert (ck.now, ck.events) == (525114, 7068), (ck.now, ck.events)
pinned = [  # (scale, gbps, now, events, retries, injected)
    (0.0, 1.2985075366181067, 726995, 10434, 0, 0),
    (1.0, 1.2978903538521713, 727091, 10475, 1, 1),
    (2.0, 1.1469774930869123, 753666, 10546, 3, 3),
    (3.0, 1.1469774930869123, 753666, 10548, 3, 3),
]
got = [(p["scale"], p["gbps"], p["now"], p["events"],
        p["faults"]["retries"], p["faults"]["nvme_failures_injected"])
       for p in shared]
assert got == pinned, got
print(f"4-branch storm sweep ({mechanism}) byte-identical to cold, "
      f"exact stats stable from checkpoint t={ck.now}ns")
EOF

echo "== quickstart smoke (examples/quickstart.py) =="
python examples/quickstart.py > /dev/null || status=1

echo "== coarsening byte-identity (full quick report, train vs per_frame) =="
# Hard gate: the ENTIRE quick report — every family — must be
# byte-identical between the frame-train fast path and the per-frame
# reference path.  Both runs share one throwaway cache, so the second run
# re-simulates only the case-study, A7 flow-control and fleet jobs
# (coarsening is part of their cache keys); everything else is a hit,
# which keeps this gate well short of two full runs.
coarsen_cache=$(mktemp -d)
coarsen_train=$(mktemp)
coarsen_pf=$(mktemp)
coarsen_ok=1
python -m repro.bench --quick --cache-dir "$coarsen_cache" \
    --coarsening train > "$coarsen_train" 2>/dev/null || coarsen_ok=0
python -m repro.bench --quick --cache-dir "$coarsen_cache" \
    --coarsening per_frame > "$coarsen_pf" 2>/dev/null || coarsen_ok=0
if [ "$coarsen_ok" -eq 1 ] && cmp -s "$coarsen_train" "$coarsen_pf"; then
    echo "quick report byte-identical between coarsening modes"
else
    echo "FAIL: quick report differs between train and per_frame" \
         "(or a run failed); diff:"
    diff "$coarsen_train" "$coarsen_pf" | head -40
    status=1
fi
rm -rf "$coarsen_cache" "$coarsen_train" "$coarsen_pf"

echo "== perf gate (scripts/perf.py --check) =="
if [ -f BENCH_sim_kernel.json ]; then
    # Exit 1 is a hard gate (event-count determinism, fork-sweep
    # equivalence + speedup, parallel speedup on >=4-core hosts, and the
    # fleet coarsening gate: train >= 3x faster than per_frame with
    # byte-identical rows); exit 3 is an advisory wall-clock regression
    # and exit 2 a stale baseline — both warn without failing the tree.
    python scripts/perf.py --check
    perf_rc=$?
    case $perf_rc in
        0) ;;
        3) echo "WARNING: wall-clock regressed vs" \
                "BENCH_sim_kernel.json (advisory; see scripts/perf.py)" ;;
        2) echo "WARNING: BENCH_sim_kernel.json is stale;" \
                "regenerate with scripts/perf.py" ;;
        *) status=1 ;;
    esac
else
    echo "skipped (no BENCH_sim_kernel.json; run scripts/perf.py)"
fi

exit $status
