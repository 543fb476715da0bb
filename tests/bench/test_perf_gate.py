"""Perf-harness gates: verdicts, baseline validation, self-consistency.

These tests exist because a committed baseline once recorded a --jobs 4
speedup of 0.787x while the harness gated >= 2.0x — a contradiction
that survived because the live gate skipped on the small hosts that ran
it.  The gate logic is pure (:func:`parallel_gate_verdict`,
:func:`fork_gate_verdict`), schema validation is pure
(:func:`validate_baseline`), and the committed baseline is itself
validated, on every host.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "perf_harness", REPO_ROOT / "scripts" / "perf.py")
perf = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf)


def doc(host_cores, jobs4_speedup, schema=None, fork=None):
    """A structurally valid baseline document with the given sweep."""
    fork_section = {
        "branches": perf.FORK_BRANCHES,
        "warm_bytes": perf.FORK_WARM_BYTES,
        "branch_bytes": perf.FORK_BRANCH_BYTES,
        "mechanism": "fork", "forked_seconds": 0.3, "cold_seconds": 1.8,
        "speedup": 6.0, "identical": True,
    }
    if fork is not None:
        fork_section.update(fork)
    return {
        "schema": perf.SCHEMA if schema is None else schema,
        "kernel": {"n_procs": perf.N_PROCS,
                   "n_iters": perf.N_ITERS, "host_cores": host_cores,
                   "events": 192128, "seconds": 0.2,
                   "events_per_sec": 1_000_000},
        "parallel_runner": {
            "n_jobs": 60, "host_cores": host_cores,
            "advisory": host_cores < perf.GATE_MIN_CORES,
            "sweep": [
                # jobs=1 runs in-process: no pool, so warmup is 0.0 by
                # definition (schema 4 rejects the old null spelling)
                {"jobs": 1, "seconds": 5.0, "speedup": 1.0,
                 "warmup_seconds": 0.0},
                {"jobs": perf.GATE_JOBS, "seconds": 5.0 / jobs4_speedup,
                 "speedup": jobs4_speedup, "warmup_seconds": 0.3},
            ],
        },
        "fork_sweep": fork_section,
    }


class TestParallelGateVerdict:
    def test_sub_threshold_sweep_fails(self):
        # the exact historical contradiction: 0.787x on a capable host
        assert perf.parallel_gate_verdict(0.787, 64) is False

    def test_threshold_is_inclusive(self):
        assert perf.parallel_gate_verdict(perf.GATE_MIN_SPEEDUP,
                                          perf.GATE_MIN_CORES) is True
        assert perf.parallel_gate_verdict(perf.GATE_MIN_SPEEDUP - 0.01,
                                          perf.GATE_MIN_CORES) is False

    def test_small_hosts_are_exempt(self):
        assert perf.parallel_gate_verdict(0.5, 1) is None
        assert perf.parallel_gate_verdict(0.5,
                                          perf.GATE_MIN_CORES - 1) is None


class TestForkGateVerdict:
    def test_threshold_is_inclusive(self):
        assert perf.fork_gate_verdict(perf.FORK_GATE_MIN_SPEEDUP,
                                      True) is True
        assert perf.fork_gate_verdict(perf.FORK_GATE_MIN_SPEEDUP - 0.01,
                                      True) is False

    def test_equivalence_break_fails_at_any_speedup(self):
        # a fast-but-wrong fork is the worst possible outcome
        assert perf.fork_gate_verdict(100.0, False) is False

    def test_no_small_host_exemption(self):
        # prefix sharing needs no cores: the verdict is never None
        assert perf.fork_gate_verdict(0.5, True) is False


class TestValidateBaseline:
    def test_healthy_doc_validates(self):
        assert perf.validate_baseline(doc(1, 1.0)) is None

    def test_old_schema_is_stale(self):
        stale = perf.validate_baseline(doc(8, 2.6, schema=perf.SCHEMA - 1))
        assert stale is not None

    def test_null_warmup_seconds_is_stale(self):
        bad = doc(1, 1.0)
        bad["parallel_runner"]["sweep"][0]["warmup_seconds"] = None
        stale = perf.validate_baseline(bad)
        assert stale is not None and "warmup_seconds" in stale


class TestBaselineContradiction:
    def test_gate_failing_sweep_from_capable_host(self):
        message = perf.baseline_contradiction(doc(64, 0.787))
        assert message is not None and "0.79x" in message

    def test_small_host_sweep_is_consistent(self):
        # a 1-core host legitimately records ~1x: gate inapplicable
        assert perf.baseline_contradiction(doc(1, 0.787)) is None

    def test_passing_sweep_is_consistent(self):
        assert perf.baseline_contradiction(doc(8, 2.6)) is None

    def test_doc_without_host_cores_is_ignored(self):
        legacy = doc(8, 0.787)
        del legacy["parallel_runner"]["host_cores"]
        assert perf.baseline_contradiction(legacy) is None

    def test_doc_without_sweep_is_ignored(self):
        assert perf.baseline_contradiction({"schema": perf.SCHEMA}) is None

    def test_non_identical_fork_sweep_contradicts(self):
        message = perf.baseline_contradiction(
            doc(1, 1.0, fork={"identical": False}))
        assert message is not None and "byte-identical" in message

    def test_sub_gate_fork_speedup_contradicts(self):
        message = perf.baseline_contradiction(
            doc(1, 1.0, fork={"speedup": 1.4}))
        assert message is not None and "1.40x" in message

    def test_replay_fallback_speedup_is_not_judged(self):
        # recorded on a fork-less host: the speedup is informational
        assert perf.baseline_contradiction(
            doc(1, 1.0, fork={"mechanism": "replay",
                              "speedup": 1.0})) is None


class TestCheckExitCodes:
    @pytest.fixture
    def baseline(self, tmp_path, monkeypatch):
        path = tmp_path / "BENCH_sim_kernel.json"
        monkeypatch.setattr(perf, "BASELINE_FILE", path)
        return path

    def test_missing_baseline_exits_2(self, baseline):
        assert perf.check(tolerance=1.3) == 2

    def test_stale_schema_exits_2(self, baseline):
        baseline.write_text(json.dumps(doc(8, 2.6, schema=perf.SCHEMA - 1)))
        assert perf.check(tolerance=1.3) == 2

    def test_null_warmup_seconds_exits_2(self, baseline):
        bad = doc(8, 2.6)
        bad["parallel_runner"]["sweep"][0]["warmup_seconds"] = None
        baseline.write_text(json.dumps(bad))
        assert perf.check(tolerance=1.3) == 2

    def test_self_contradictory_baseline_exits_1_on_any_host(self, baseline):
        # fires before any timing: judged from the committed file alone,
        # so even a 1-core CI host rejects the contradictory baseline
        baseline.write_text(json.dumps(doc(64, 0.787)))
        assert perf.check(tolerance=1.3) == 1

    def test_non_identical_fork_baseline_exits_1(self, baseline):
        baseline.write_text(
            json.dumps(doc(1, 1.0, fork={"identical": False})))
        assert perf.check(tolerance=1.3) == 1

    def test_measure_refuses_contradictory_baseline(self, baseline,
                                                    monkeypatch):
        monkeypatch.setattr(perf, "measure",
                            lambda **kw: doc(64, 0.787))
        assert perf.main([]) == 1
        assert not baseline.exists()


class TestCommittedBaseline:
    """The committed file must satisfy the harness that gates on it —
    this is the test that would have caught the original 0.787x commit."""

    def test_baseline_is_current_and_self_consistent(self):
        committed = json.loads(
            (REPO_ROOT / "BENCH_sim_kernel.json").read_text())
        assert committed["schema"] == perf.SCHEMA
        assert committed["kernel"]["n_procs"] == perf.N_PROCS
        assert committed["kernel"]["n_iters"] == perf.N_ITERS
        assert "host_cores" in committed["kernel"]
        assert "host_cores" in committed["parallel_runner"]
        assert perf.validate_baseline(committed) is None
        assert perf.baseline_contradiction(committed) is None

    def test_committed_sweep_advisory_flag_matches_its_host(self):
        committed = json.loads(
            (REPO_ROOT / "BENCH_sim_kernel.json").read_text())
        runner = committed["parallel_runner"]
        assert runner["advisory"] == (
            runner["host_cores"] < perf.GATE_MIN_CORES)

    def test_committed_fork_sweep_passes_its_own_gate(self):
        committed = json.loads(
            (REPO_ROOT / "BENCH_sim_kernel.json").read_text())
        fork = committed["fork_sweep"]
        assert fork["identical"] is True
        assert fork["branches"] == perf.FORK_BRANCHES
        if fork["mechanism"] == "fork":
            assert perf.fork_gate_verdict(fork["speedup"], True) is True

    def test_committed_sweep_has_no_null_warmups(self):
        committed = json.loads(
            (REPO_ROOT / "BENCH_sim_kernel.json").read_text())
        for entry in committed["parallel_runner"]["sweep"]:
            assert isinstance(entry["warmup_seconds"], float)


def doc_with_fleet(host_cores=4, speedup=3.5, identical=True):
    """A schema-5 doc whose fleet_coarsening section is fully populated."""
    d = doc(host_cores, 2.5)
    d["experiments"] = {"fig4a_seq_16MiB": {"seconds": 1.0}}
    d["fleet_coarsening"] = {
        "profile": "quick", "members": ["scale/4n", "incast"],
        "repeats": perf.COARSEN_REPEATS, "host_cores": host_cores,
        "train_seconds": 1.0, "per_frame_seconds": speedup,
        "speedup": speedup, "identical": identical,
    }
    return d


class TestCoarsenGateVerdict:
    def test_threshold_is_inclusive(self):
        assert perf.coarsen_gate_verdict(
            perf.COARSEN_GATE_MIN_RATIO, True) is True
        assert perf.coarsen_gate_verdict(
            perf.COARSEN_GATE_MIN_RATIO - 0.01, True) is False

    def test_equivalence_break_fails_at_any_speedup(self):
        assert perf.coarsen_gate_verdict(100.0, False) is False

    def test_no_host_exemption(self):
        # unlike the parallel gate there is no None case: both halves of
        # the ratio come from the same host, so the gate always applies
        assert perf.coarsen_gate_verdict(0.5, True) is False


class TestFleetCoarseningBaseline:
    def test_healthy_fleet_section_validates(self):
        d = doc_with_fleet()
        assert perf.validate_baseline(d) is None
        assert perf.baseline_contradiction(d) is None

    def test_missing_fleet_section_is_stale(self):
        d = doc_with_fleet()
        del d["fleet_coarsening"]
        assert "fleet_coarsening" in perf.validate_baseline(d)

    def test_sub_gate_speedup_contradicts(self):
        d = doc_with_fleet(speedup=2.4)
        assert "2.40x" in perf.baseline_contradiction(d)

    def test_non_identical_contradicts(self):
        d = doc_with_fleet(identical=False)
        assert "byte-identical" in perf.baseline_contradiction(d)

    def test_committed_baseline_records_passing_coarsening(self):
        committed = json.loads(
            (REPO_ROOT / "BENCH_sim_kernel.json").read_text())
        fleet = committed["fleet_coarsening"]
        assert fleet["identical"] is True
        assert perf.coarsen_gate_verdict(fleet["speedup"], True) is True
