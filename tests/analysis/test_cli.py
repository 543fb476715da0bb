"""End-to-end CLI tests: fixtures, JSON output, exit codes.

Fixture files mark every intentional hazard with a trailing
``# HAZARD SIMxxx`` comment; the tests derive the expected (rule, line)
pairs from those markers so the fixtures stay self-documenting.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

HAZARD_RE = re.compile(r"#\s*HAZARD\s+(SIM\d{3})")

RULE_FIXTURES = [
    "sim001_unconsumed.py",
    "sim002_unregistered.py",
    "sim004_nondeterminism.py",
    "sim006_deadlock.py",
    "sim007_recovery.py",
    "sim008_spawn.py",
    "sim009_fingerprint.py",
    "sim010_units.py",
    "sim011/true_positive.py",
]


def expected_hazards(path):
    """(rule_id, line) pairs from # HAZARD markers, sorted by line."""
    out = []
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        m = HAZARD_RE.search(text)
        if m:
            out.append((m.group(1), lineno))
    assert out, f"fixture {path.name} has no HAZARD markers"
    return out


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )


class TestFixtures:
    @pytest.mark.parametrize("name", RULE_FIXTURES)
    def test_fixture_findings_match_hazard_markers(self, name):
        from repro.analysis import analyze_paths

        path = FIXTURES / name
        report = analyze_paths([str(path)])
        assert report.errors == []
        assert report.files_analyzed == 1
        got = [(f.rule_id, f.line) for f in report.findings]
        assert got == expected_hazards(path)

    def test_fixtures_dir_excluded_from_tree_walks(self):
        from repro.analysis import iter_python_files

        walked = iter_python_files([str(FIXTURES.parent)])
        assert not any("fixtures" in str(p) for p in walked)


class TestCli:
    def test_findings_exit_1_with_locations(self):
        proc = run_cli(str(FIXTURES / "sim001_unconsumed.py"))
        assert proc.returncode == 1
        for rule, line in expected_hazards(FIXTURES / "sim001_unconsumed.py"):
            assert f":{line}:" in proc.stdout
            assert rule in proc.stdout

    def test_json_format(self):
        fixture = FIXTURES / "sim004_nondeterminism.py"
        proc = run_cli(str(fixture), "--format", "json")
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["version"] == 2
        assert doc["files_analyzed"] == 1
        assert doc["count"] == len(doc["findings"])
        got = [(f["rule"], f["line"]) for f in doc["findings"]]
        assert got == expected_hazards(fixture)
        first = doc["findings"][0]
        assert set(first) == {"path", "line", "col", "rule", "message"}
        # v2 additions: suppression-debt counters
        assert doc["suppressed_findings"] == 0
        assert doc["suppression_comments"] == 0

    def test_clean_file_exits_0(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("def proc(sim):\n    yield sim.timeout(5)\n")
        proc = run_cli(str(clean))
        assert proc.returncode == 0
        assert "0 findings" in proc.stdout

    def test_syntax_error_exits_2(self):
        proc = run_cli(str(FIXTURES / "bad_syntax.py"))
        assert proc.returncode == 2
        assert "bad_syntax.py" in proc.stderr

    def test_no_paths_exits_2(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_unknown_rule_exits_2(self):
        proc = run_cli(str(FIXTURES / "sim001_unconsumed.py"),
                       "--select", "SIM999")
        assert proc.returncode == 2

    def test_select_narrows_rules(self):
        proc = run_cli(str(FIXTURES / "sim001_unconsumed.py"),
                       "--select", "SIM004", "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["findings"] == []

    def test_ignore_drops_rules(self):
        fixture = FIXTURES / "sim004_nondeterminism.py"
        proc = run_cli(str(fixture), "--ignore", "SIM004")
        assert proc.returncode == 0

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rid in ("SIM001", "SIM002", "SIM004", "SIM006", "SIM007",
                    "SIM008", "SIM009", "SIM010", "SIM011"):
            assert rid in proc.stdout


class TestCliV2:
    """--jobs, --output, and the baseline ratchet."""

    def test_jobs_output_identical_to_serial(self):
        files = [str(FIXTURES / name) for name in RULE_FIXTURES]
        serial = run_cli(*files, "--format", "json")
        parallel = run_cli(*files, "--format", "json", "--jobs", "4")
        assert serial.returncode == parallel.returncode == 1
        assert json.loads(serial.stdout) == json.loads(parallel.stdout)

    def test_jobs_rejects_zero(self):
        proc = run_cli(str(FIXTURES / "sim001_unconsumed.py"), "--jobs", "0")
        assert proc.returncode == 2

    def test_output_artifact_written(self, tmp_path):
        out = tmp_path / "snacclint.json"
        proc = run_cli(str(FIXTURES / "sim001_unconsumed.py"),
                       "--output", str(out))
        assert proc.returncode == 1
        doc = json.loads(out.read_text())
        assert doc["version"] == 2
        got = [(f["rule"], f["line"]) for f in doc["findings"]]
        assert got == expected_hazards(FIXTURES / "sim001_unconsumed.py")

    def test_write_baseline_then_ratchet_passes(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        src = tmp_path / "mod.py"
        src.write_text("import time\n"
                       "t0 = time.time()  # snacclint: disable=SIM004\n")
        proc = run_cli(str(src), "--write-baseline", str(baseline))
        assert proc.returncode == 0
        assert json.loads(baseline.read_text())["suppression_comments"] == 1
        proc = run_cli(str(src), "--baseline", str(baseline))
        assert proc.returncode == 0

    def test_ratchet_fails_when_debt_grows(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps({"version": 1, "suppression_comments": 0}))
        src = tmp_path / "mod.py"
        src.write_text("import time\n"
                       "t0 = time.time()  # snacclint: disable=SIM004\n")
        proc = run_cli(str(src), "--baseline", str(baseline))
        assert proc.returncode == 1
        assert "suppression debt increased" in proc.stderr

    def test_ratchet_nags_when_debt_shrinks(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps({"version": 1, "suppression_comments": 5}))
        src = tmp_path / "mod.py"
        src.write_text("x = 1\n")
        proc = run_cli(str(src), "--baseline", str(baseline))
        assert proc.returncode == 0
        assert "ratchet it down" in proc.stdout

    def test_malformed_baseline_exits_2(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{not json")
        src = tmp_path / "mod.py"
        src.write_text("x = 1\n")
        proc = run_cli(str(src), "--baseline", str(baseline))
        assert proc.returncode == 2
