"""Suppression edge cases: disable-file interplay, unknown ids,
continuation lines, and the suppression-debt counters."""

import textwrap

from repro.analysis import analyze_source
from repro.analysis.engine import Module

WALLCLOCK = "import time\nt0 = time.time()\n"


def findings_for(source):
    return analyze_source(textwrap.dedent(source))


class TestLineLevel:
    def test_line_suppression_drops_finding(self):
        assert findings_for(
            "import time\n"
            "t0 = time.time()  # snacclint: disable=SIM004\n") == []

    def test_line_suppression_is_line_scoped(self):
        findings = findings_for(
            "import time\n"
            "t0 = time.time()  # snacclint: disable=SIM004\n"
            "t1 = time.time()\n")
        assert [(f.rule_id, f.line) for f in findings] == [("SIM004", 3)]

    def test_bare_disable_suppresses_every_rule(self):
        assert findings_for(
            "import time\n"
            "t0 = time.time()  # snacclint: disable\n") == []

    def test_unknown_rule_id_in_disable_list_is_inert(self):
        # suppressing a rule that does not exist must neither crash nor
        # suppress anything else
        findings = findings_for(
            "import time\n"
            "t0 = time.time()  # snacclint: disable=SIM999\n")
        assert [f.rule_id for f in findings] == ["SIM004"]

    def test_unknown_id_alongside_real_id_still_suppresses(self):
        assert findings_for(
            "import time\n"
            "t0 = time.time()  # snacclint: disable=SIM999,SIM004\n") == []


class TestFileLevel:
    def test_disable_file_suppresses_everywhere(self):
        assert findings_for(
            "# snacclint: disable-file=SIM004\n"
            "import time\n"
            "t0 = time.time()\n"
            "t1 = time.time()\n") == []

    def test_disable_file_is_rule_scoped(self):
        findings = findings_for(
            "# snacclint: disable-file=SIM001\n"
            "import time\n"
            "t0 = time.time()\n")
        assert [f.rule_id for f in findings] == ["SIM004"]

    def test_bare_disable_file_suppresses_all_rules(self):
        assert findings_for(
            "# snacclint: disable-file\n"
            "import time\n"
            "t0 = time.time()\n") == []

    def test_file_and_line_suppressions_compose(self):
        # file level kills SIM004 everywhere; the line level must still
        # cover a *different* rule on its own line
        findings = findings_for(
            "# snacclint: disable-file=SIM004\n"
            "import time\n"
            "def proc(sim):\n"
            "    t0 = time.time()\n"
            "    sim.timeout(1)  # snacclint: disable=SIM001\n")
        assert findings == []

    def test_unknown_rule_id_in_disable_file_is_inert(self):
        findings = findings_for(
            "# snacclint: disable-file=SIM999\n"
            "import time\n"
            "t0 = time.time()\n")
        assert [f.rule_id for f in findings] == ["SIM004"]


class TestContinuationLines:
    """A disable comment anywhere on a multi-line statement covers the
    whole logical line — findings anchor to the first physical line while
    the comment usually fits on a later one."""

    def test_comment_on_last_line_covers_statement_start(self):
        assert findings_for(
            "import time\n"
            "t0 = max(\n"
            "    time.time(),\n"
            "    0.0,\n"
            ")  # snacclint: disable=SIM004\n") == []

    def test_comment_on_interior_line_covers_statement(self):
        assert findings_for(
            "import time\n"
            "t0 = max(\n"
            "    time.time(),  # snacclint: disable=SIM004\n"
            "    0.0,\n"
            ")\n") == []

    def test_coverage_stops_at_statement_boundary(self):
        findings = findings_for(
            "import time\n"
            "t0 = max(\n"
            "    time.time(),\n"
            ")  # snacclint: disable=SIM004\n"
            "t1 = time.time()\n")
        assert [(f.rule_id, f.line) for f in findings] == [("SIM004", 5)]

    def test_standalone_comment_does_not_leak_to_next_statement(self):
        findings = findings_for(
            "import time\n"
            "# snacclint: disable=SIM004\n"
            "t0 = time.time()\n")
        assert [(f.rule_id, f.line) for f in findings] == [("SIM004", 3)]


class TestDebtCounters:
    def test_suppression_comments_are_counted(self):
        module = Module("<m>", textwrap.dedent("""\
            # snacclint: disable-file=SIM001
            import time
            t0 = time.time()  # snacclint: disable=SIM004
            t1 = time.time()  # snacclint: disable
            """))
        assert module.suppression_comments == 3

    def test_plain_comments_are_not_counted(self):
        module = Module("<m>", "x = 1  # a comment about snacclint\n")
        assert module.suppression_comments == 0
