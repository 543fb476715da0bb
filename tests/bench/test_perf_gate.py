"""Perf-harness gates: the table's verdicts, staleness, self-consistency.

These tests exist because a committed baseline once recorded a --jobs 4
speedup of 0.787x while the harness gated >= 2.0x — a contradiction
that survived because the live gate skipped on the small hosts that ran
it.  Every gate is a row of :data:`GATES` whose verdict is pure, so the
rules are pinned here without timing anything, the same verdict judges
recorded and live sections, and the committed baseline is itself
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


def gate(section, hard=True):
    """The one row of the table that owns *section* with that hardness."""
    (row,) = [g for g in perf.GATES
              if g.section == section and g.hard == hard]
    return row


def judge(section, got, base=None):
    """The hard verdict's ``ok`` for *got* (by default against itself)."""
    ok, _ = gate(section).verdict(got, got if base is None else base, 1.3)
    return ok


def parallel(host_cores, jobs4_speedup):
    return {
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
    }


def fork_sweep(**changes):
    section = {
        "branches": perf.FORK_BRANCHES, "warm_bytes": perf.FORK_WARM_BYTES,
        "branch_bytes": perf.FORK_BRANCH_BYTES, "mechanism": "fork",
        "forked_seconds": 0.3, "cold_seconds": 1.8, "speedup": 6.0,
        "identical": True,
    }
    section.update(changes)
    return section


def fleet(host_cores=1, **changes):
    section = {
        "profile": "quick", "members": ["scale/4n", "incast"],
        "repeats": perf.COARSEN_REPEATS, "host_cores": host_cores,
        "train_seconds": 1.0, "per_frame_seconds": 3.5, "speedup": 3.5,
        "identical": True,
    }
    section.update(changes)
    return section


def doc(host_cores, jobs4_speedup, schema=None, fork=None, coarsening=None):
    """A complete, structurally valid baseline document."""
    return {
        "schema": perf.SCHEMA if schema is None else schema,
        "kernel": {"n_procs": perf.N_PROCS,
                   "n_iters": perf.N_ITERS, "host_cores": host_cores,
                   "events": 192128, "seconds": 0.2,
                   "events_per_sec": 1_000_000},
        "parallel_runner": parallel(host_cores, jobs4_speedup),
        "fork_sweep": fork_sweep(**(fork or {})),
        "fleet_coarsening": fleet(host_cores, **(coarsening or {})),
    }


class TestGateTable:
    def test_six_rows_three_sections_hard_and_advisory(self):
        assert [(g.section, g.hard) for g in perf.GATES] == [
            ("kernel", True), ("kernel", False),
            ("parallel_runner", True), ("fork_sweep", True),
            ("fleet_coarsening", True), ("fleet_coarsening", False)]

    def test_event_count_drift_fails(self):
        base = doc(1, 1.0)["kernel"]
        assert judge("kernel", dict(base, events=192129), base) is False
        assert judge("kernel", dict(base), base) is True

    @pytest.mark.parametrize("section,key,worse,better", [
        ("kernel", "events_per_sec", 700_000, 800_000),
        ("fleet_coarsening", "train_seconds", 1.4, 1.3),
    ])
    def test_advisory_rows_use_the_tolerance_on_one_host_only(
            self, section, key, worse, better):
        base = doc(1, 1.0)[section]
        verdict = gate(section, hard=False).verdict
        assert verdict(dict(base, **{key: worse}), base, 1.3)[0] is False
        assert verdict(dict(base, **{key: better}), base, 1.3)[0] is True
        # cross-host wall-clock deltas are never judged
        moved = dict(base, host_cores=8, **{key: worse})
        assert verdict(moved, base, 1.3)[0] is None


class TestParallelGateVerdict:
    def test_sub_threshold_sweep_fails(self):
        # the exact historical contradiction: 0.787x on a capable host
        assert judge("parallel_runner", parallel(64, 0.787)) is False

    def test_threshold_is_inclusive(self):
        cores = perf.GATE_MIN_CORES
        assert judge("parallel_runner",
                     parallel(cores, perf.GATE_MIN_SPEEDUP)) is True
        assert judge("parallel_runner",
                     parallel(cores, perf.GATE_MIN_SPEEDUP - 0.01)) is False

    def test_small_hosts_are_exempt(self):
        assert judge("parallel_runner", parallel(1, 0.5)) is None
        assert judge("parallel_runner",
                     parallel(perf.GATE_MIN_CORES - 1, 0.5)) is None


class TestForkGateVerdict:
    def test_threshold_is_inclusive(self):
        floor = perf.FORK_GATE_MIN_SPEEDUP
        assert judge("fork_sweep", fork_sweep(speedup=floor)) is True
        assert judge("fork_sweep", fork_sweep(speedup=floor - 0.01)) is False

    def test_equivalence_break_fails_at_any_speedup(self):
        # a fast-but-wrong fork is the worst possible outcome, and a
        # replayed sweep that diverged from cold is just as wrong
        assert judge("fork_sweep", fork_sweep(speedup=100.0,
                                              identical=False)) is False
        assert judge("fork_sweep", fork_sweep(mechanism="replay",
                                              identical=False)) is False

    def test_no_small_host_exemption(self):
        # prefix sharing needs no cores: the verdict is never None
        assert judge("fork_sweep", fork_sweep(speedup=0.5)) is False


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

    @pytest.mark.parametrize("section", [
        "parallel_runner", "fork_sweep", "fleet_coarsening"])
    def test_any_missing_gate_section_is_stale(self, section):
        bad = doc(1, 1.0)
        del bad[section]
        assert section in perf.validate_baseline(bad)


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

    @pytest.fixture
    def live(self, monkeypatch):
        """Replace every row's measure with a canned section lookup."""
        sections = {}
        monkeypatch.setattr(perf, "GATES", tuple(
            g._replace(measure=lambda s=g.section: sections[s])
            for g in perf.GATES))
        return sections

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

    def test_recorded_and_live_sections_get_the_same_verdict(
            self, baseline, live, capsys):
        slow = fleet(speedup=2.4, per_frame_seconds=2.4)
        # recorded: the committed baseline carries the failing section
        recorded_doc = doc(1, 1.0)
        recorded_doc["fleet_coarsening"] = slow
        baseline.write_text(json.dumps(recorded_doc))
        assert perf.check(tolerance=1.3) == 1
        recorded = capsys.readouterr().out
        # live: a healthy baseline, and the same section measured now
        healthy = doc(1, 1.0)
        baseline.write_text(json.dumps(healthy))
        live.update(healthy, fleet_coarsening=slow)
        assert perf.check(tolerance=1.3) == 1
        measured = capsys.readouterr().out
        _, note = gate("fleet_coarsening").verdict(slow, slow, 1.3)
        assert "2.40x" in note and note in recorded and note in measured

    def test_hard_miss_outranks_an_advisory_miss(self, baseline, live):
        healthy = doc(1, 1.0)
        baseline.write_text(json.dumps(healthy))
        live.update(healthy)
        assert perf.check(tolerance=1.3) == 0
        live["kernel"] = dict(healthy["kernel"], events_per_sec=500_000)
        assert perf.check(tolerance=1.3) == 3
        live["fork_sweep"] = fork_sweep(identical=False)
        assert perf.check(tolerance=1.3) == 1

    def test_measure_refuses_contradictory_baseline(self, baseline,
                                                    monkeypatch):
        monkeypatch.setattr(perf, "measure", lambda: doc(64, 0.787))
        assert perf.main([]) == 1
        assert not baseline.exists()


class TestCommittedBaseline:
    """The committed file must satisfy the harness that gates on it —
    this is the test that would have caught the original 0.787x commit."""

    @pytest.fixture
    def committed(self):
        return json.loads((REPO_ROOT / "BENCH_sim_kernel.json").read_text())

    def test_baseline_is_current_and_self_consistent(self, committed):
        assert committed["schema"] == perf.SCHEMA
        assert committed["kernel"]["n_procs"] == perf.N_PROCS
        assert committed["kernel"]["n_iters"] == perf.N_ITERS
        assert "host_cores" in committed["kernel"]
        assert "host_cores" in committed["parallel_runner"]
        assert perf.validate_baseline(committed) is None
        assert perf.baseline_contradiction(committed) is None
        for row in perf.GATES:
            section = committed[row.section]
            assert row.verdict(section, section, 1.0)[0] is not False

    def test_committed_sweep_advisory_flag_matches_its_host(self, committed):
        runner = committed["parallel_runner"]
        assert runner["advisory"] == (
            runner["host_cores"] < perf.GATE_MIN_CORES)

    def test_committed_fork_sweep_passes_its_own_gate(self, committed):
        fork = committed["fork_sweep"]
        assert fork["identical"] is True
        assert fork["branches"] == perf.FORK_BRANCHES
        if fork["mechanism"] == "fork":
            assert judge("fork_sweep", fork) is True

    def test_committed_sweep_has_no_null_warmups(self, committed):
        for entry in committed["parallel_runner"]["sweep"]:
            assert isinstance(entry["warmup_seconds"], float)


class TestCoarsenGateVerdict:
    def test_threshold_is_inclusive(self):
        floor = perf.COARSEN_GATE_MIN_RATIO
        assert judge("fleet_coarsening", fleet(speedup=floor)) is True
        assert judge("fleet_coarsening",
                     fleet(speedup=floor - 0.01)) is False

    def test_equivalence_break_fails_at_any_speedup(self):
        assert judge("fleet_coarsening",
                     fleet(speedup=100.0, identical=False)) is False

    def test_no_host_exemption(self):
        # unlike the parallel gate there is no None case: both halves of
        # the ratio come from the same host, so the gate always applies
        assert judge("fleet_coarsening", fleet(speedup=0.5)) is False


class TestFleetCoarseningBaseline:
    def test_healthy_fleet_section_validates(self):
        d = doc(4, 2.5)
        assert perf.validate_baseline(d) is None
        assert perf.baseline_contradiction(d) is None

    def test_missing_fleet_section_is_stale(self):
        d = doc(4, 2.5)
        del d["fleet_coarsening"]
        assert "fleet_coarsening" in perf.validate_baseline(d)

    def test_sub_gate_speedup_contradicts(self):
        d = doc(4, 2.5, coarsening={"speedup": 2.4})
        assert "2.40x" in perf.baseline_contradiction(d)

    def test_non_identical_contradicts(self):
        d = doc(4, 2.5, coarsening={"identical": False})
        assert "byte-identical" in perf.baseline_contradiction(d)

    def test_committed_baseline_records_passing_coarsening(self):
        committed = json.loads(
            (REPO_ROOT / "BENCH_sim_kernel.json").read_text())
        fleet_section = committed["fleet_coarsening"]
        assert fleet_section["identical"] is True
        assert judge("fleet_coarsening", fleet_section) is True
