"""SIM011 fork-safety rule: fixtures, allowlist, and edge cases."""

import textwrap
from pathlib import Path

from repro.analysis import analyze_paths, analyze_source

FIXTURES = Path(__file__).parent / "fixtures" / "sim011"


def check(source, path="proj/branchy.py"):
    return analyze_source(textwrap.dedent(source), path=path,
                          select=["SIM011"])


class TestFixtures:
    def test_true_positive_findings_match_hazard_markers(self):
        from .test_cli import expected_hazards

        path = FIXTURES / "true_positive.py"
        report = analyze_paths([str(path)])
        assert report.errors == [] and report.files_analyzed == 1
        got = [(f.rule_id, f.line) for f in report.findings]
        assert got == expected_hazards(path)
        assert all(rule == "SIM011" for rule, _line in got)

    def test_near_miss_is_clean(self):
        report = analyze_paths([str(FIXTURES / "near_miss.py")])
        assert report.errors == [] and report.files_analyzed == 1
        assert report.findings == []


class TestDirectFork:
    def test_os_fork_flagged_outside_engine(self):
        findings = check("""
            import os

            def branch():
                return os.fork()
        """)
        assert [f.rule_id for f in findings] == ["SIM011"]
        assert "snapshot engine" in findings[0].message

    def test_os_fork_allowed_in_snapshot_engine(self):
        findings = check("""
            import os

            def _run_forked():
                return os.fork()
        """, path="src/repro/sim/snapshot.py")
        assert findings == []

    def test_allowlisted_file_still_checks_resources(self):
        # the allowlist waives the *direct-call* finding, not the
        # live-resource analysis around the fork point
        findings = check("""
            import os
            import threading

            def _run_forked():
                t = threading.Thread(target=print)
                t.start()
                return os.fork()
        """, path="src/repro/sim/snapshot.py")
        assert [f.rule_id for f in findings] == ["SIM011"]
        assert "'t'" in findings[0].message


class TestLiveResources:
    def test_unbound_pool_can_never_be_cleaned(self):
        findings = check("""
            from concurrent.futures import ProcessPoolExecutor
            from repro.sim.snapshot import ScenarioEngine

            def sweep(setup, branches, jobs):
                ProcessPoolExecutor(max_workers=2).map(len, jobs)
                return ScenarioEngine(setup).run(branches)
        """)
        assert [f.rule_id for f in findings] == ["SIM011"]
        assert "(unbound)" in findings[0].message

    def test_multiprocessing_pool_counts_as_thread_owner(self):
        # Pool's result-handler threads live in the driving process
        findings = check("""
            import multiprocessing
            from repro.sim.snapshot import ScenarioEngine

            def sweep(setup, warm, branches):
                pool = multiprocessing.Pool(2)
                engine = ScenarioEngine(setup, warm)
                return engine.run(branches)
        """)
        assert [f.rule_id for f in findings] == ["SIM011"]

    def test_engine_before_resource_is_clean(self):
        # construction order matters: the fork point precedes the pool
        findings = check("""
            from concurrent.futures import ThreadPoolExecutor
            from repro.sim.snapshot import ScenarioEngine

            def sweep(setup, warm, branches, jobs):
                engine = ScenarioEngine(setup, warm)
                results = engine.run(branches)
                with ThreadPoolExecutor(max_workers=2) as pool:
                    return list(pool.map(len, results))
        """)
        assert findings == []

    def test_resource_in_other_scope_not_attributed(self):
        # a thread started in one function does not taint a fork point
        # in another — the analysis is per enclosing scope
        findings = check("""
            import threading
            from repro.sim.snapshot import ScenarioEngine

            def spin():
                t = threading.Thread(target=print)
                t.start()

            def sweep(setup, branches):
                return ScenarioEngine(setup).run(branches)
        """)
        assert findings == []

    def test_inline_suppression_honoured(self):
        findings = check("""
            import threading
            from repro.sim.snapshot import ScenarioEngine

            def sweep(setup, branches):
                t = threading.Thread(target=print)  # snacclint: disable=SIM011
                t.start()
                return ScenarioEngine(setup).run(branches)
        """)
        assert findings == []
