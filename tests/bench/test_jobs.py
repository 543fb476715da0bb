"""The parallel job runner: plan shape, determinism, merge fidelity."""

import pickle

from repro.apps.case_study import IMPLEMENTATIONS
from repro.bench.experiments.ablations import (ABLATION_TITLES,
                                               ablation_flow_control_point)
from repro.bench.experiments.fig6_fig7 import (case_study_point,
                                               fig6_from_results,
                                               fig7_from_results)
from repro.bench.experiments.fleet import (FLEET_NODE_COUNTS,
                                           FLEET_SCALE_SKEW,
                                           FLEET_SKEW_NODES, FLEET_SKEWS,
                                           FLEET_TITLE, fleet_incast_point,
                                           fleet_scale_point)
from repro.bench.jobs import (EXPERIMENTS, POINT_FUNCTIONS, PROFILES,
                              build_plan, execute_plan, render_report)
from repro.bench.paper import CLAIMS, Band
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


def _reference_ablation_fc(sizes):
    rows = []
    for label in ("flow_control_on", "flow_control_off"):
        rows += ablation_flow_control_point(label, sizes["fc_frames"])
    return [ExperimentResult("ablation_fc", ABLATION_TITLES["ablation_fc"],
                             rows)]


def _reference_case_study(sizes):
    runs = {impl: case_study_point(impl, sizes["images"],
                                   sizes["warmup_images"])
            for impl in IMPLEMENTATIONS}
    return [fig6_from_results(runs), fig7_from_results(runs)]


def _reference_fleet(sizes):
    rows = []
    for n in FLEET_NODE_COUNTS:
        rows += fleet_scale_point(n, FLEET_SCALE_SKEW,
                                  sizes["fleet_requests"],
                                  sizes["fleet_objects"],
                                  sizes["fleet_scale_gap_ns"])
    for skew in FLEET_SKEWS:
        rows += fleet_scale_point(FLEET_SKEW_NODES, skew,
                                  sizes["fleet_requests"],
                                  sizes["fleet_objects"],
                                  sizes["fleet_skew_gap_ns"])
    rows += fleet_incast_point(sizes["fleet_incast_senders"],
                               sizes["fleet_incast_mib"])
    return [ExperimentResult("fleet", FLEET_TITLE, rows)]


class TestMergeFidelity:
    @pytest.mark.parametrize("stage, reference", [
        ("ablation_fc", _reference_ablation_fc),
        ("case_study", _reference_case_study),
        ("fleet", _reference_fleet),
    ], ids=["ablation_fc", "case_study", "fleet"])
    def test_stage_matches_its_points_in_declared_order(self, stage,
                                                        reference):
        # the reference composes the stage's *_point functions by hand;
        # the job graph must merge the same rows, ids and titles
        results, _ = execute_plan(build_plan("tiny", only={stage}), jobs=1)
        expected = reference(PROFILES["tiny"])
        assert [(r.experiment, r.title) for r in results] == \
            [(r.experiment, r.title) for r in expected]
        assert [r.rows for r in results] == [r.rows for r in expected]


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


class TestClaims:
    @staticmethod
    def ooo(in_order, out_of_order):
        result = ExperimentResult("ablation_ooo", "retirement")
        result.add("rand_read", "in_order", in_order, "GB/s")
        result.add("rand_read", "out_of_order", out_of_order, "GB/s")
        return result

    def test_the_paper_makes_23_claims(self):
        assert len(CLAIMS) == 23

    def test_every_claim_reads_a_result_the_plan_produces(self):
        full = build_plan("full")
        tiny = build_plan("tiny")
        assert [s.experiment for s in full] == [s.experiment for s in tiny]
        results, _ = execute_plan(tiny, jobs=1)
        assert {c.experiment for c in CLAIMS} <= \
            {r.experiment for r in results}
        # every predicate finds its rows (no KeyError) and is reported
        text, _ok = render_report(results)
        for number in range(1, len(CLAIMS) + 1):
            assert f"  C{number:<2}  " in text

    def test_violated_claim_fails_the_report(self):
        text, ok = render_report([self.ooo(2.0, 2.4)])  # 1.2x < 1.3x
        assert not ok
        assert "ablation_ooo: out_of_order > 1.3x in_order  [CLAIM FAILS]" \
            in text
        assert text.endswith("SOME PAPER CLAIMS FAIL\n")

    def test_holding_claim_passes(self):
        text, ok = render_report([self.ooo(2.0, 3.6)])
        assert ok
        assert "out_of_order > 1.3x in_order  [holds]" in text
        assert text.endswith("ALL PAPER BANDS HIT\n")

    def test_band_and_claim_failures_are_both_named(self):
        out_of_band = TestRenderReport().make(9.9)
        text, ok = render_report([out_of_band, self.ooo(2.0, 2.0)])
        assert not ok
        assert text.endswith(
            "SOME ROWS OUT OF BAND; SOME PAPER CLAIMS FAIL\n")

    def test_claims_of_absent_results_are_skipped(self):
        text, ok = render_report([self.ooo(2.0, 3.6)])
        claims = [line for line in text.splitlines()
                  if line.startswith("  C")]
        assert len(claims) == 1 and "ablation_ooo" in claims[0]
        text, ok = render_report([TestRenderReport().make(1.5)])
        assert ok and "== claims" not in text


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
