"""Checks of the benchmark itself, at tiny sizes (well under a minute).

    PYTHONPATH=src python -m pytest perfbench/test_harness.py

Not part of the tier-1 suite (``testpaths`` is ``tests``): these run the
simulator end to end and time it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import add_sources

assert add_sources()

from perfbench.compare import verdict  # noqa: E402
from perfbench.harness import END_TO_END, PER_LAYER, run_workload  # noqa: E402
from perfbench.__main__ import WORKLOAD_NAMES  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: per-layer metrics that are exact counts, not host times
EXACT = [name for name, unit in PER_LAYER.items()
         if unit != "s" and not name.startswith(("trace.", "sim.events_per"))]


def _tiny(name: str, seed: int = 1, trace: bool = False):
    return run_workload(name, seed, seconds=0.0, trace=trace, size="tiny",
                        setup=False)


@pytest.fixture(scope="module")
def reports():
    """Two untraced and two traced tiny runs of every workload, seed 1."""
    return {name: [_tiny(name), _tiny(name), _tiny(name, trace=True),
                   _tiny(name, trace=True)]
            for name in WORKLOAD_NAMES}


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    assert list(WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert SPEC["command"] == ["python3", "-m", "perfbench"]


def test_metric_names_and_units(reports):
    for runs in reports.values():
        for report in runs:
            units = PER_LAYER if report.traced else END_TO_END
            assert set(report.result) == {"correct", "attempted", "failed",
                                          "metrics"}
            assert {k: m["unit"] for k, m in
                    report.result["metrics"].items()} == units


def test_no_operation_fails(reports):
    for runs in reports.values():
        for report in runs:
            assert report.result["attempted"] > 0
            assert report.result["failed"] == 0, report.problems
            assert not report.problems


def test_same_seed_repeats_digest_and_counters(reports):
    for name, (first, second, traced, traced_again) in reports.items():
        assert first.digest == second.digest, name
        exact = {k: traced.result["metrics"][k]["value"] for k in EXACT}
        again = {k: traced_again.result["metrics"][k]["value"] for k in EXACT}
        assert exact == again, name


def test_tracing_never_perturbs_the_simulation(reports):
    for name, (untraced, _, traced, _) in reports.items():
        assert traced.digest == untraced.digest, name


def test_layer_self_times_sum_to_traced_host_time(reports):
    for runs in reports.values():
        for report in runs[2:]:
            m = {k: v["value"] for k, v in report.result["metrics"].items()}
            assert m["sim.self_s"] >= 0
            layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
            assert layers == pytest.approx(m["trace.host_s"])
            assert report.raw_spans


@pytest.mark.parametrize("name", ["rand_4k", "fleet_zipf"])
def test_seed_reaches_the_inputs(reports, name):
    assert _tiny(name, seed=2).digest != reports[name][0].digest


def test_cli_prints_one_json_result_last():
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "seq_read",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_cli_fails_without_the_simulator(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "seq_read"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [v * 0.8 for v in parent]
    assert verdict(parent, faster, 0.1, True, False) == ("improved", 10)
    assert verdict(parent, faster, 0.1, True, True)[0] == "unchanged"
    assert verdict(parent, [v * 1.2 for v in parent], 0.1, True,
                   False)[0] == "regressed"
    assert verdict(parent, parent, 0.1, True, False)[0] == "unchanged"
    noisy = [1.0, 1.5] * 5
    assert verdict(noisy, noisy, 0.1, True, False)[0] == "unresolved"


@pytest.mark.xfail(strict=False, reason="known: the GPU case study stalls "
                   "at 32+ images (SimulationError in _store_records_host)")
def test_gpu_case_study_at_32_images():
    from repro.bench.experiments.fig6_fig7 import case_study_point
    assert case_study_point("gpu", 32, 6).images == 26
