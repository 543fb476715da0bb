"""Unit tests for the whole-program rules (SIM006–SIM010).

Each rule gets at least one true positive and one near miss, built as
in-memory multi-file projects through :func:`analyze_sources` so the
cross-module shape of every case is visible right next to the assertion.
The final class seeds the known-bad fixtures into a *tree-wide* run to
prove the gate would catch them buried in the real codebase.
"""

from pathlib import Path

from repro.analysis import analyze_paths, analyze_sources

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestSim006Deadlock:
    def test_local_event_never_triggered(self):
        findings = analyze_sources({
            "mod.py": "def proc(sim):\n"
                      "    ev = sim.event()\n"
                      "    yield ev\n",
        })
        assert rule_ids(findings) == ["SIM006"]
        assert findings[0].line == 3

    def test_local_event_with_setter_is_clean(self):
        findings = analyze_sources({
            "mod.py": "def proc(sim):\n"
                      "    ev = sim.event()\n"
                      "    ev.succeed()\n"
                      "    yield ev\n",
        })
        assert findings == []

    def test_local_event_escaping_is_clean(self):
        findings = analyze_sources({
            "mod.py": "def proc(sim, out):\n"
                      "    ev = sim.event()\n"
                      "    out.append(ev)\n"
                      "    yield ev\n",
        })
        assert findings == []

    def test_setter_in_nested_closure_counts(self):
        findings = analyze_sources({
            "mod.py": "def proc(sim):\n"
                      "    ev = sim.event()\n"
                      "    def on_done():\n"
                      "        ev.succeed()\n"
                      "    register(on_done)\n"
                      "    yield ev\n",
        })
        assert findings == []

    def test_attr_event_with_no_setter_anywhere(self):
        findings = analyze_sources({
            "a.py": "class Engine:\n"
                    "    def __init__(self, sim):\n"
                    "        self._stall_evt = sim.event()\n"
                    "    def run(self):\n"
                    "        yield self._stall_evt\n",
        })
        assert rule_ids(findings) == ["SIM006"]
        assert findings[0].line == 5

    def test_attr_event_with_cross_module_setter_is_clean(self):
        findings = analyze_sources({
            "a.py": "class Engine:\n"
                    "    def __init__(self, sim):\n"
                    "        self._stall_evt = sim.event()\n"
                    "    def run(self):\n"
                    "        yield self._stall_evt\n",
            "b.py": "def release(engine):\n"
                    "    engine._stall_evt.succeed()\n",
        })
        assert findings == []

    def test_swap_kick_idiom_is_clean(self):
        # the kernel's broadcast idiom: swap the attr out, trigger the old
        findings = analyze_sources({
            "mac.py": "from repro.sim.core import Event\n"
                      "class Port:\n"
                      "    def __init__(self, sim):\n"
                      "        self.sim = sim\n"
                      "        self._rx_kick = Event(sim)\n"
                      "    def _deliver(self):\n"
                      "        kick, self._rx_kick = self._rx_kick, "
                      "Event(self.sim)\n"
                      "        kick.succeed()\n"
                      "    def recv(self):\n"
                      "        yield self._rx_kick\n",
        })
        assert findings == []

    def test_unminted_attr_wait_stays_quiet(self):
        # we cannot prove `self._queue` is an event — no finding
        findings = analyze_sources({
            "a.py": "class C:\n"
                    "    def run(self):\n"
                    "        yield self._queue\n",
        })
        assert "SIM006" not in rule_ids(findings)


class TestSim007RecoveryWait:
    def test_bare_wait_in_retry_generator(self):
        findings = analyze_sources({
            "drv.py": "class Driver:\n"
                      "    def _retry_io(self):\n"
                      "        yield self._sq_space\n",
        })
        assert rule_ids(findings) == ["SIM007"]

    def test_watchdog_in_same_class_exempts(self):
        findings = analyze_sources({
            "drv.py": "class Driver:\n"
                      "    def _retry_io(self):\n"
                      "        yield self._sq_space\n"
                      "    def _scan_timeouts(self):\n"
                      "        pass\n",
        })
        assert findings == []

    def test_module_level_watchdog_exempts_all_classes(self):
        findings = analyze_sources({
            "drv.py": "def watchdog(sim):\n"
                      "    pass\n"
                      "class Driver:\n"
                      "    def _retry_io(self):\n"
                      "        yield self._sq_space\n",
        })
        assert findings == []

    def test_watchdog_in_other_class_does_not_exempt(self):
        findings = analyze_sources({
            "drv.py": "class A:\n"
                      "    def _retry_io(self):\n"
                      "        yield self._sq_space\n"
                      "class B:\n"
                      "    def _scan_timeouts(self):\n"
                      "        pass\n",
        })
        assert rule_ids(findings) == ["SIM007"]

    def test_timeout_wait_in_retry_generator_is_clean(self):
        findings = analyze_sources({
            "drv.py": "class Driver:\n"
                      "    def _retry_io(self, sim):\n"
                      "        yield sim.timeout(100)\n",
        })
        assert findings == []

    def test_non_recovery_name_is_clean(self):
        findings = analyze_sources({
            "drv.py": "class Driver:\n"
                      "    def consume(self):\n"
                      "        yield self._sq_space\n",
        })
        assert "SIM007" not in rule_ids(findings)


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


class TestSim010UnitConfusion:
    def test_bytes_into_timeout(self):
        findings = analyze_sources({
            "a.py": "def go(sim, chunk_bytes):\n"
                    "    yield sim.timeout(chunk_bytes)\n",
        })
        assert rule_ids(findings) == ["SIM010"]

    def test_ns_into_timeout_is_clean(self):
        findings = analyze_sources({
            "a.py": "def go(sim, wait_ns):\n"
                    "    yield sim.timeout(wait_ns)\n",
        })
        assert findings == []

    def test_cross_module_positional_mismatch(self):
        findings = analyze_sources({
            "sink.py": "def issue(delay_ns):\n    pass\n",
            "use.py": "from sink import issue\n"
                      "def go(nbytes):\n"
                      "    issue(nbytes)\n",
        })
        assert rule_ids(findings) == ["SIM010"]
        assert findings[0].path == "use.py"

    def test_keyword_mismatch_needs_no_resolution(self):
        findings = analyze_sources({
            "a.py": "def go(report, total_cycles):\n"
                    "    report(elapsed_ns=total_cycles)\n",
        })
        assert rule_ids(findings) == ["SIM010"]

    def test_matching_keyword_is_clean(self):
        findings = analyze_sources({
            "a.py": "def go(report, total_ns):\n"
                    "    report(elapsed_ns=total_ns)\n",
        })
        assert findings == []

    def test_ambiguous_symbol_stays_quiet(self):
        # two defs of `issue` disagree on the parameter's unit — no call
        # can be checked against either
        findings = analyze_sources({
            "s1.py": "def issue(delay_ns):\n    pass\n",
            "s2.py": "def issue(nbytes):\n    pass\n",
            "use.py": "from s1 import issue\n"
                      "def go(chunk_bytes):\n"
                      "    issue(chunk_bytes)\n",
        })
        assert findings == []

    def test_units_helper_intrinsics(self):
        findings = analyze_sources({
            "a.py": "from repro.units import ns_for_bytes\n"
                    "def go(elapsed_ns):\n"
                    "    return ns_for_bytes(elapsed_ns, 1)\n",
        })
        assert rule_ids(findings) == ["SIM010"]

    def test_method_self_is_dropped(self):
        findings = analyze_sources({
            "a.py": "class Link:\n"
                    "    def push(self, payload_bytes):\n"
                    "        pass\n",
            "b.py": "def go(link, span_ns):\n"
                    "    link.push(span_ns)\n",
        })
        assert rule_ids(findings) == ["SIM010"]


class TestSeededTreeWideGate:
    """The acceptance-criteria drill: drop a known-bad file into the real
    tree and prove the tree-wide run reports it (and only it)."""

    GATED = ["src", "tests", "examples", "scripts"]

    def _gated_paths(self):
        return [str(REPO_ROOT / p) for p in self.GATED
                if (REPO_ROOT / p).exists()]

    def test_seeded_sim006_deadlock_is_caught(self):
        seeded = self._gated_paths() + [str(FIXTURES / "sim006_deadlock.py")]
        report = analyze_paths(seeded)
        assert report.errors == []
        findings = report.findings
        sim006 = [f for f in findings if f.rule_id == "SIM006"]
        assert {f.path for f in sim006} == {str(FIXTURES / "sim006_deadlock.py")}
        assert len(sim006) == 2
        # nothing else in the tree regressed while the fixture was seeded
        assert {f.rule_id for f in findings} == {"SIM006"}

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
