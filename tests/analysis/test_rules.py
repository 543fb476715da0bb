"""Per-rule unit tests: ≥2 should-flag and ≥2 should-pass snippets each,
plus suppression-comment and alias handling.

Snippets are inline source strings run through
:func:`repro.analysis.analyze_source`; nothing here executes the snippet.
"""

import textwrap

import pytest

from repro.analysis import analyze_source


def findings_for(source, rule=None):
    src = textwrap.dedent(source).lstrip("\n")
    select = [rule] if rule else None
    return analyze_source(src, path="snippet.py", select=select)


def rule_ids(source, rule=None):
    return [f.rule_id for f in findings_for(source, rule)]


# --------------------------------------------------------------------- SIM001
class TestSim001Unconsumed:
    def test_flags_bare_timeout(self):
        fs = findings_for(
            """
            def proc(sim):
                sim.timeout(5)
                yield sim.timeout(1)
            """, rule="SIM001")
        assert [(f.rule_id, f.line) for f in fs] == [("SIM001", 2)]

    def test_flags_bare_process_and_event(self):
        fs = findings_for(
            """
            def setup(sim, gen):
                sim.process(gen())
                sim.event()
            """, rule="SIM001")
        assert [f.line for f in fs] == [2, 3]
        assert all(f.rule_id == "SIM001" for f in fs)

    def test_flags_self_sim_attribute_receiver(self):
        assert rule_ids(
            """
            def go(self):
                self.sim.timeout(30)
            """, rule="SIM001") == ["SIM001"]

    def test_passes_yielded_and_bound(self):
        assert rule_ids(
            """
            def proc(sim):
                yield sim.timeout(5)
                ev = sim.event()
                yield ev
            """, rule="SIM001") == []

    def test_passes_passed_on_and_returned(self):
        assert rule_ids(
            """
            def wait_all(sim, evs):
                yield sim.all_of([sim.timeout(1), sim.timeout(2)])
                return sim.timeout(3)
            """, rule="SIM001") == []

    def test_alias_call_is_flagged(self):
        # `t = sim.timeout; t(5)` resolves through the alias table.
        fs = findings_for(
            """
            def proc(sim):
                t = sim.timeout
                t(5)
                yield t(1)
            """, rule="SIM001")
        assert [(f.rule_id, f.line) for f in fs] == [("SIM001", 3)]

    def test_line_suppression(self):
        assert rule_ids(
            """
            def proc(sim):
                sim.timeout(5)  # snacclint: disable=SIM001
                yield sim.timeout(1)
            """, rule="SIM001") == []

    def test_file_suppression(self):
        assert rule_ids(
            """
            # snacclint: disable-file=SIM001
            def proc(sim):
                sim.timeout(5)
            """, rule="SIM001") == []

    def test_bare_disable_suppresses_all_rules(self):
        assert rule_ids(
            """
            def proc(sim):
                sim.timeout(1.5)  # snacclint: disable
            """) == []


# --------------------------------------------------------------------- SIM002
class TestSim002Unregistered:
    def test_flags_bare_generator_call(self):
        fs = findings_for(
            """
            def worker(sim):
                yield sim.timeout(5)

            def main(sim):
                worker(sim)
            """, rule="SIM002")
        assert [(f.rule_id, f.line) for f in fs] == [("SIM002", 5)]

    def test_flags_bare_generator_method_call(self):
        assert rule_ids(
            """
            class Engine:
                def run(self):
                    yield self.sim.timeout(1)

                def start(self):
                    self.run()
            """, rule="SIM002") == ["SIM002"]

    def test_passes_registered_via_process(self):
        assert rule_ids(
            """
            def worker(sim):
                yield sim.timeout(5)

            def main(sim):
                _ = sim.process(worker(sim))
            """, rule="SIM002") == []

    def test_passes_iterated_or_assigned(self):
        assert rule_ids(
            """
            def numbers():
                yield 1

            def main(sim):
                vals = list(numbers())
                g = numbers()
                return vals, g
            """, rule="SIM002") == []

    def test_suppression(self):
        assert rule_ids(
            """
            def worker(sim):
                yield sim.timeout(5)

            def main(sim):
                worker(sim)  # snacclint: disable=SIM002
            """, rule="SIM002") == []


# --------------------------------------------------------------------- SIM004
class TestSim004Nondeterminism:
    def test_flags_wall_clock(self):
        fs = findings_for(
            """
            import time

            def stamp():
                return time.time()
            """, rule="SIM004")
        assert [(f.rule_id, f.line) for f in fs] == [("SIM004", 4)]

    def test_flags_from_import_and_datetime(self):
        assert rule_ids(
            """
            from time import time
            from datetime import datetime

            def stamp():
                return time(), datetime.now()
            """, rule="SIM004") == ["SIM004", "SIM004"]

    def test_flags_global_random_module(self):
        assert rule_ids(
            """
            import random

            def jitter():
                return random.random() + random.randint(0, 5)
            """, rule="SIM004") == ["SIM004", "SIM004"]

    def test_flags_unseeded_default_rng_and_legacy_numpy(self):
        assert rule_ids(
            """
            import numpy as np

            def make():
                rng = np.random.default_rng()
                return rng, np.random.rand(3)
            """, rule="SIM004") == ["SIM004", "SIM004"]

    def test_passes_seeded_rngs(self):
        assert rule_ids(
            """
            import random

            import numpy as np

            def make(seed):
                return np.random.default_rng(seed), random.Random(1234)
            """, rule="SIM004") == []

    def test_passes_sim_clock_and_unrelated_time_attrs(self):
        assert rule_ids(
            """
            def now(sim, record):
                return sim.now, record.time
            """, rule="SIM004") == []

    def test_wallclock_allowlist_is_path_scoped(self):
        src = "import time\nt0 = time.time()\n"
        allowed = analyze_source(
            src, path="src/repro/bench/__main__.py", select=["SIM004"])
        elsewhere = analyze_source(
            src, path="src/repro/core/streamer.py", select=["SIM004"])
        assert allowed == []
        assert [f.rule_id for f in elsewhere] == ["SIM004"]

    def test_wallclock_allowlist_covers_perf_harness(self):
        # scripts/perf.py measures real elapsed time by design; the
        # allowlist must admit it while still flagging other scripts.
        src = "import time\nt0 = time.perf_counter()\n"
        harness = analyze_source(
            src, path="scripts/perf.py", select=["SIM004"])
        other_script = analyze_source(
            src, path="scripts/make_figures.py", select=["SIM004"])
        assert harness == []
        assert [f.rule_id for f in other_script] == ["SIM004"]

    def test_wallclock_allowlist_covers_job_runner_not_model(self):
        # the parallel job runner times stages for stderr progress
        # lines; experiment/model modules stay locked down.
        src = "import time\nt0 = time.perf_counter()\n"
        runner = analyze_source(
            src, path="src/repro/bench/jobs.py", select=["SIM004"])
        experiment = analyze_source(
            src, path="src/repro/bench/experiments/fig4.py",
            select=["SIM004"])
        cache = analyze_source(
            src, path="src/repro/bench/cache.py", select=["SIM004"])
        assert runner == []
        assert [f.rule_id for f in experiment] == ["SIM004"]
        assert [f.rule_id for f in cache] == ["SIM004"]

    def test_flags_literal_none_seeds(self):
        # default_rng(None) / SeedSequence(entropy=None) are the
        # documented spelling of "seed from OS entropy" — exactly as
        # nondeterministic as passing no argument at all.
        assert rule_ids(
            """
            import numpy as np

            def make():
                a = np.random.default_rng(None)
                b = np.random.default_rng(seed=None)
                c = np.random.SeedSequence(entropy=None)
                return a, b, c
            """, rule="SIM004") == ["SIM004", "SIM004", "SIM004"]

    def test_passes_fault_plan_seeding_idiom(self):
        # The repro.faults.plan idiom: per-site seeds derived from the
        # config seed + a site-name hash.  Non-literal arguments must
        # pass even though the rule can't prove they are deterministic.
        assert rule_ids(
            """
            import zlib

            import numpy as np

            def site_rng(seed, name):
                ss = np.random.SeedSequence(
                    (seed, zlib.crc32(name.encode("utf-8"))))
                return np.random.default_rng(ss)
            """, rule="SIM004") == []

    def test_suppression(self):
        assert rule_ids(
            """
            import time

            def stamp():
                return time.time()  # snacclint: disable=SIM004
            """, rule="SIM004") == []


# ------------------------------------------------------------------- engine
class TestEngineBehavior:
    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="unknown rule ids"):
            analyze_source("x = 1\n", select=["SIM999"])

    def test_ignore_drops_rules(self):
        src = "import time\ndef p(sim):\n    sim.timeout(time.time())\n"
        assert {f.rule_id for f in analyze_source(src)} == {"SIM001", "SIM004"}
        only = analyze_source(src, ignore=["SIM001"])
        assert [f.rule_id for f in only] == ["SIM004"]

    def test_findings_are_sorted_and_formatted(self):
        fs = analyze_source(
            "def p(sim):\n    sim.timeout(2)\n    sim.timeout(1)\n",
            path="mod.py")
        assert [f.line for f in fs] == [2, 3]
        assert fs[0].format().startswith("mod.py:2:5: SIM001 ")

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            analyze_source("def broken(:\n")
