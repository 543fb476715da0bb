"""Fork-sweep experiment: scales, mechanism independence, plan wiring.

The fault-storm sweep is the scenario the checkpoint/fork engine exists
for, so this is where cross-mechanism equivalence is proven *with a
fault plan in the loop*: per-site RNG streams are part of the
checkpoint, and the rows must not depend on whether branches forked,
replayed, or ran cold.
"""

import threading
import time

import pytest

from repro.bench.experiments.fork_sweep import (FORK_SWEEP_TITLE,
                                                fork_sweep_point,
                                                storm_scales, storm_scenario)
from repro.bench.jobs import build_plan, execute_plan
from repro.bench.pool import shutdown_pool
from repro.bench.runner import rows_to_json
from repro.sim.snapshot import ScenarioEngine, fork_available
from repro.units import KiB

# small enough to run three mechanisms in a test, big enough to inject
# faults at the x3 end of the scale
TINY = dict(n_branches=3, warm_bytes=64 * KiB, branch_bytes=32 * KiB)

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="os.fork not available")


@pytest.fixture(autouse=True)
def single_threaded_host():
    # the engine refuses to fork next to a live warm pool: retire any
    # pool a previously-run test module left behind (see test_snapshot)
    shutdown_pool(wait=True)
    for _ in range(100):
        if threading.active_count() == 1:
            break
        time.sleep(0.05)


class TestStormScales:
    def test_spread_covers_zero_to_three_x(self):
        scales = storm_scales(16)
        assert len(scales) == 16
        assert scales[0] == 0.0 and scales[-1] == 3.0
        assert scales == sorted(scales)

    def test_single_branch_is_baseline_rate(self):
        assert storm_scales(1) == [1.0]

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            storm_scales(0)


class TestMechanismIndependence:
    def run_rows(self, mechanism):
        return fork_sweep_point(mechanism=mechanism, **TINY)

    def test_replay_equals_cold(self):
        assert rows_to_json(self.run_rows("replay")) == \
            rows_to_json(self.run_rows("cold"))

    @needs_fork
    def test_fork_equals_cold(self):
        assert rows_to_json(self.run_rows("fork")) == \
            rows_to_json(self.run_rows("cold"))

    @needs_fork
    def test_branch_payloads_identical_across_all_mechanisms(self):
        # the full payloads (event counts, clocks, complete fault-stat
        # dicts), not just the rows distilled from them
        payloads = {}
        for mechanism in ("fork", "replay", "cold"):
            setup, warm, branches = storm_scenario(
                TINY["warm_bytes"], TINY["branch_bytes"], TINY["n_branches"])
            engine = ScenarioEngine(setup, warm)
            payloads[mechanism] = engine.run(branches, mechanism=mechanism)
        assert payloads["fork"] == payloads["replay"] == payloads["cold"]
        events = [p["events"] for p in payloads["fork"]]
        assert all(isinstance(n, int) and n > 0 for n in events)

    def test_checkpoint_includes_fault_state(self):
        setup, warm, branches = storm_scenario(
            TINY["warm_bytes"], TINY["branch_bytes"], TINY["n_branches"])
        engine = ScenarioEngine(setup, warm)
        ck = engine.prepare()
        assert ck.fault_state is not None and len(ck.fault_state) > 0


class TestStormRows:
    def test_row_shape_and_fault_response(self):
        rows = fork_sweep_point(**TINY)
        assert [r.series for r in rows[:3]] == \
            ["storm_gbps", "storm_retries", "storm_injected"]
        assert len(rows) == 3 * TINY["n_branches"]
        by = {(r.series, r.system): r.measured for r in rows}
        # the suspended end of the scale injects nothing; the x3 end
        # visibly stresses the retry machinery
        assert by[("storm_injected", "x0")] == 0.0
        assert by[("storm_injected", "x3")] > 0.0
        assert by[("storm_retries", "x3")] >= by[("storm_retries", "x0")]


class TestPlanWiring:
    def test_every_profile_schedules_the_sweep_as_one_job(self):
        for profile in ("full", "quick", "tiny"):
            stages = [s for s in build_plan(profile, only={"fork_sweep"})]
            assert len(stages) == 1
            # the shared prefix lives in process memory: the whole sweep
            # must be a single job, never split across pool workers
            assert len(stages[0].jobs) == 1

    def test_stage_matches_direct_run(self):
        plan = build_plan("tiny", only={"fork_sweep"})
        (merged,), _stats = execute_plan(plan, jobs=1)
        sizes = {"n_branches": 4, "warm_bytes": 512 * KiB,
                 "branch_bytes": 64 * KiB}
        assert merged.title == FORK_SWEEP_TITLE
        assert rows_to_json(merged.rows) == \
            rows_to_json(fork_sweep_point(**sizes))
