"""Unit tests for the whole-program rules (SIM008, SIM009).

Each rule gets at least one true positive and one near miss, built as
in-memory multi-file projects through :func:`analyze_sources` so the
cross-module shape of every case is visible right next to the assertion.
The final class seeds a known-bad fixture into a *tree-wide* run to
prove the gate would catch it buried in the real codebase.
"""

from pathlib import Path

from repro.analysis import analyze_paths, analyze_sources

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestSim008SpawnSafety:
    JOB_ROOT = "POINT_FUNCTIONS = {}\nimport shared\n"

    def test_mutated_global_in_job_path(self):
        findings = analyze_sources({
            "jobs.py": self.JOB_ROOT,
            "shared.py": "CACHE = {}\n"
                         "def put(k, v):\n"
                         "    CACHE[k] = v\n",
        })
        assert rule_ids(findings) == ["SIM008"]
        assert findings[0].path == "shared.py"

    def test_read_only_global_is_clean(self):
        findings = analyze_sources({
            "jobs.py": self.JOB_ROOT,
            "shared.py": "TABLE = {'a': 1}\n"
                         "def get(k):\n"
                         "    return TABLE[k]\n",
        })
        assert findings == []

    def test_unreachable_module_is_clean(self):
        # same mutation, but no import path from the job root to it
        findings = analyze_sources({
            "jobs.py": "POINT_FUNCTIONS = {}\n",
            "shared.py": "CACHE = {}\n"
                         "def put(k, v):\n"
                         "    CACHE[k] = v\n",
        })
        assert findings == []

    def test_mutator_method_counts(self):
        findings = analyze_sources({
            "jobs.py": self.JOB_ROOT,
            "shared.py": "ROWS = []\n"
                         "def add(r):\n"
                         "    ROWS.append(r)\n",
        })
        assert rule_ids(findings) == ["SIM008"]

    def test_local_shadow_is_clean(self):
        # the function builds its *own* list; the module global is untouched
        findings = analyze_sources({
            "jobs.py": self.JOB_ROOT,
            "shared.py": "ROWS = []\n"
                         "def add(r):\n"
                         "    ROWS = []\n"
                         "    ROWS.append(r)\n"
                         "    return ROWS\n",
        })
        assert findings == []

    def test_transitive_reachability(self):
        findings = analyze_sources({
            "jobs.py": "POINT_FUNCTIONS = {}\nimport middle\n",
            "middle.py": "import shared\n",
            "shared.py": "CACHE = {}\n"
                         "def put(k, v):\n"
                         "    CACHE[k] = v\n",
        })
        assert rule_ids(findings) == ["SIM008"]

    def test_aliased_mutation_counts(self):
        # the freelist hot-loop idiom: bind the global to a local, then
        # mutate through the local — still a write to module state
        findings = analyze_sources({
            "jobs.py": self.JOB_ROOT,
            "shared.py": "POOL = []\n"
                         "def recycle(obj):\n"
                         "    pool = POOL\n"
                         "    pool.append(obj)\n",
        })
        assert rule_ids(findings) == ["SIM008"]
        assert findings[0].line == 1

    def test_spawn_safe_allowlist_exempts_kernel_freelists(self):
        # repro.sim.core's freelists are declared spawn-safe by
        # construction in SPAWN_SAFE_GLOBALS; an unlisted global in the
        # same module is still flagged — the exemption is per-name
        findings = analyze_sources({
            "src/repro/bench/jobs.py": "POINT_FUNCTIONS = {}\n"
                                       "import repro.sim.core\n",
            "src/repro/sim/core.py": "_EVENT_POOL = []\n"
                                     "_ROGUE = []\n"
                                     "def recycle(ev):\n"
                                     "    pool = _EVENT_POOL\n"
                                     "    pool.append(ev)\n"
                                     "def leak(ev):\n"
                                     "    _ROGUE.append(ev)\n",
        })
        assert rule_ids(findings) == ["SIM008"]
        assert findings[0].line == 2  # _ROGUE, not the allowlisted pool

    def test_spawn_safe_allowlist_covers_warm_pool_state(self):
        # the warm worker pool's driver-side handle is exempt; workers
        # only import the module to resolve the initializer by name
        findings = analyze_sources({
            "src/repro/bench/jobs.py": "POINT_FUNCTIONS = {}\n"
                                       "import repro.bench.pool\n",
            "src/repro/bench/pool.py": "_pool = None\n"
                                       "_pool_workers = 0\n"
                                       "_registry = {}\n"
                                       "def shutdown_pool():\n"
                                       "    global _pool, _pool_workers\n"
                                       "    _registry['last'] = _pool\n"
                                       "    _pool = None\n"
                                       "    _pool_workers = 0\n",
        })
        assert rule_ids(findings) == ["SIM008"]
        assert "_registry" in findings[0].message


class TestSim009FingerprintGap:
    def test_env_read_in_job_path(self):
        findings = analyze_sources({
            "jobs.py": "POINT_FUNCTIONS = {}\nimport cfg\n",
            "cfg.py": "import os\n"
                      "def depth():\n"
                      "    return os.environ.get('DEPTH')\n",
        })
        assert rule_ids(findings) == ["SIM009"]

    def test_file_read_in_job_path(self):
        findings = analyze_sources({
            "jobs.py": "POINT_FUNCTIONS = {}\nimport cfg\n",
            "cfg.py": "from pathlib import Path\n"
                      "def load(p):\n"
                      "    return Path(p).read_text()\n",
        })
        assert rule_ids(findings) == ["SIM009"]

    def test_write_mode_open_is_clean(self):
        findings = analyze_sources({
            "jobs.py": "POINT_FUNCTIONS = {}\nimport rep\n",
            "rep.py": "def dump(p, text):\n"
                      "    with open(p, 'w') as fh:\n"
                      "        fh.write(text)\n",
        })
        assert findings == []

    def test_read_outside_job_path_is_clean(self):
        findings = analyze_sources({
            "jobs.py": "POINT_FUNCTIONS = {}\n",
            "tooling.py": "import os\n"
                          "def depth():\n"
                          "    return os.environ.get('DEPTH')\n",
        })
        assert findings == []

    def test_cache_module_itself_is_allowlisted(self):
        findings = analyze_sources({
            "repro/bench/jobs.py": "POINT_FUNCTIONS = {}\n"
                                   "from . import cache\n",
            "repro/bench/cache.py": "import os\n"
                                    "def cache_dir():\n"
                                    "    return os.environ.get("
                                    "'REPRO_BENCH_CACHE')\n",
        })
        assert findings == []


class TestProgramSuppressions:
    """Whole-program findings honor the suppression tables each module
    summary carries, and the full driver counts what they drop."""

    PROJECT = {
        "jobs.py": "POINT_FUNCTIONS = {}\nimport shared\nimport cfg\n",
        "shared.py": "CACHE = {}  # snacclint: disable=SIM008\n"
                     "def put(k, v):\n"
                     "    CACHE[k] = v\n",
        "cfg.py": "# snacclint: disable-file=SIM009\n"
                  "import os\n"
                  "def depth():\n"
                  "    return os.environ.get('DEPTH')\n",
    }

    def test_line_disable_drops_program_finding(self):
        unsuppressed = {**self.PROJECT, "shared.py": self.PROJECT[
            "shared.py"].replace("  # snacclint: disable=SIM008", "")}
        assert rule_ids(analyze_sources(unsuppressed)) == ["SIM008"]
        assert analyze_sources(self.PROJECT) == []

    def test_file_disable_drops_program_finding(self):
        unsuppressed = {**self.PROJECT, "cfg.py": self.PROJECT[
            "cfg.py"].replace("# snacclint: disable-file=SIM009\n", "")}
        assert rule_ids(analyze_sources(unsuppressed)) == ["SIM009"]
        assert analyze_sources(self.PROJECT) == []

    def test_analyze_paths_counts_program_suppressions(self, tmp_path):
        for name, source in self.PROJECT.items():
            (tmp_path / name).write_text(source)
        report = analyze_paths([str(tmp_path)])
        assert report.errors == []
        assert report.findings == []
        assert report.suppressed_findings == 2
        assert report.suppression_comments == 2


class TestSeededTreeWideGate:
    """The acceptance-criteria drill: drop a known-bad file into the real
    tree and prove the tree-wide run reports it (and only it)."""

    GATED = ["src", "tests", "examples", "scripts"]

    def _gated_paths(self):
        return [str(REPO_ROOT / p) for p in self.GATED
                if (REPO_ROOT / p).exists()]

    def test_seeded_sim009_fingerprint_gap_is_caught(self):
        seeded = self._gated_paths() + [str(FIXTURES / "sim009_fingerprint.py")]
        report = analyze_paths(seeded)
        assert report.errors == []
        findings = report.findings
        sim009 = [f for f in findings if f.rule_id == "SIM009"]
        assert {f.path for f in sim009} == {
            str(FIXTURES / "sim009_fingerprint.py")}
        assert len(sim009) == 2
        assert {f.rule_id for f in findings} == {"SIM009"}
