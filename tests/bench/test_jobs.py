"""The parallel job runner: plan shape, determinism, merge fidelity."""

import pickle

from repro.bench.experiments.ablations import ablation_flow_control
from repro.bench.experiments.fig6_fig7 import (fig6_from_results,
                                               fig7_from_results,
                                               run_case_study_all)
from repro.bench.experiments.fleet import run_fleet_suite
from repro.bench.jobs import (EXPERIMENTS, POINT_FUNCTIONS, build_plan,
                              execute_plan, render_report)
from repro.bench.paper import Band
from repro.bench.runner import ExperimentResult, ExperimentRow

import pytest


class TestPlan:
    def test_declared_order_matches_experiments(self):
        plan = build_plan("tiny")
        assert [s.experiment for s in plan] == list(EXPERIMENTS)

    def test_every_job_fn_is_registered(self):
        for stage in build_plan("tiny"):
            for spec in stage.jobs:
                assert spec.fn in POINT_FUNCTIONS, spec.label

    def test_specs_are_picklable_and_hashable(self):
        # spawn-safety: specs must cross a process boundary intact.
        for stage in build_plan("tiny"):
            for spec in stage.jobs:
                assert pickle.loads(pickle.dumps(spec)) == spec
                hash(spec)

    def test_plan_is_reproducible(self):
        assert build_plan("tiny") == build_plan("tiny")

    def test_only_filters_stages(self):
        plan = build_plan("tiny", only={"fig4a", "ablation_fc"})
        assert [s.experiment for s in plan] == ["fig4a", "ablation_fc"]

    def test_only_rejects_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            build_plan("tiny", only={"fig9"})

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            build_plan("huge")

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            execute_plan(build_plan("tiny", only={"table1"}), jobs=0)


class TestSerialParallelEquivalence:
    #: small but multi-stage subset: pure-arithmetic, simulation-heavy,
    #: integer-valued, fault-injected, and fleet rows all cross the pool.
    SUBSET = {"table1", "fig4b", "ablation_fc", "ablation_faults", "fleet"}

    def test_rows_and_text_identical(self):
        plan = build_plan("tiny", only=self.SUBSET)
        serial, serial_stats = execute_plan(plan, jobs=1)
        parallel, parallel_stats = execute_plan(plan, jobs=4)
        assert [r.rows for r in serial] == [r.rows for r in parallel]
        serial_text, serial_ok = render_report(serial)
        parallel_text, parallel_ok = render_report(parallel)
        assert serial_text == parallel_text
        assert serial_ok == parallel_ok
        assert serial_stats.executed == parallel_stats.executed \
            == sum(len(s.jobs) for s in plan)


class TestMergeFidelity:
    def test_ablation_stage_matches_direct_run(self):
        # the point decomposition must reproduce the historical
        # function's result exactly (id, title, and every row).
        plan = build_plan("tiny", only={"ablation_fc"})
        (merged,), _ = execute_plan(plan, jobs=1)
        direct = ablation_flow_control(n_frames=60)
        assert merged.experiment == direct.experiment
        assert merged.title == direct.title
        assert merged.rows == direct.rows

    def test_case_study_stage_matches_direct_run(self):
        plan = build_plan("tiny", only={"case_study"})
        (fig6, fig7), _ = execute_plan(plan, jobs=1)
        runs = run_case_study_all(n_images=6, warmup_images=1)
        assert fig6.rows == fig6_from_results(runs).rows
        assert fig7.rows == fig7_from_results(runs).rows

    def test_fleet_stage_matches_direct_run(self):
        plan = build_plan("tiny", only={"fleet"})
        (merged,), _ = execute_plan(plan, jobs=1)
        direct = run_fleet_suite(n_requests=160, n_objects=128,
                                 scale_interarrival_ns=4000,
                                 skew_interarrival_ns=6000,
                                 incast_senders=3, incast_mib=1)
        assert merged.experiment == direct.experiment
        assert merged.title == direct.title
        assert merged.rows == direct.rows


class TestRenderReport:
    def make(self, measured):
        result = ExperimentResult("ablation_x", "synthetic ablation")
        result.add("bw", "sys", measured, "GB/s", Band(1.0, 2.0))
        return result

    def test_ok_requires_every_result_in_band(self):
        text, ok = render_report([self.make(1.5)])
        assert ok and text.endswith("ALL PAPER BANDS HIT\n")

    def test_out_of_band_ablation_fails_the_run(self):
        # regression: ablation rows used to be excluded from the
        # verdict, so an out-of-band ablation still reported success.
        text, ok = render_report([self.make(9.9)])
        assert not ok
        assert text.endswith("SOME ROWS OUT OF BAND\n")

    def test_report_contains_each_table_once(self):
        text, _ = render_report([self.make(1.5), self.make(1.2)])
        assert text.count("== ablation_x: synthetic ablation ==") == 2


class TestRowSerialization:
    def test_round_trip_preserves_floats_exactly(self):
        row = ExperimentRow("s", "sys", 0.1 + 0.2, "GB/s", Band(1 / 3, 2.0))
        back = ExperimentRow.from_json(row.to_json())
        assert back == row
        assert back.measured == row.measured

    def test_round_trip_without_band(self):
        row = ExperimentRow("s", "sys", 42, "frames")
        assert ExperimentRow.from_json(row.to_json()) == row


class TestCoarseningPlan:
    def test_coarsening_reaches_fleet_and_case_study_jobs(self):
        plan = build_plan("tiny", coarsening="per_frame")
        for stage in plan:
            for spec in stage.jobs:
                kwargs = spec.kwargs_dict()
                if stage.experiment in ("case_study", "ablation_fc",
                                        "fleet"):
                    assert kwargs["coarsening"] == "per_frame", spec.label
                else:
                    assert "coarsening" not in kwargs, spec.label

    def test_default_plan_uses_train(self):
        plan = build_plan("tiny", only={"fleet"})
        for spec in plan[0].jobs:
            assert spec.kwargs_dict()["coarsening"] == "train"

    def test_unknown_coarsening_rejected(self):
        with pytest.raises(ValueError, match="unknown coarsening"):
            build_plan("tiny", coarsening="warp")

    def test_modes_render_identical_tiny_fleet_reports(self):
        texts = {}
        for mode in ("train", "per_frame"):
            results, _ = execute_plan(
                build_plan("tiny", only={"fleet"}, coarsening=mode))
            texts[mode], _ = render_report(results)
        assert texts["train"] == texts["per_frame"]
