"""Checkpoint/fork scenario engine: equivalence, guards, fork hygiene.

The load-bearing property is *mechanism independence*: a branch returns
byte-identical payloads whether it ran in a forked child, a verified
replay, or a cold rebuild (DESIGN.md §10).  Everything else here guards
the ways that property could silently break — non-deterministic
factories, live threads at the fork point, and recycled kernel objects
crossing the fork boundary.
"""

import json
import threading
import time

import pytest

from repro.bench.pool import shutdown_pool
from repro.errors import SnapshotError
from repro.sim import core
from repro.sim.core import Simulator
from repro.sim.resources import Store
from repro.sim.snapshot import (Checkpoint, ScenarioEngine, fork_available,
                                fork_scenarios)

from .test_calendar import KERNELS

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="os.fork not available")


@pytest.fixture(autouse=True)
def single_threaded_host():
    """Retire the warm worker pool earlier tests may have left running.

    The engine (correctly) refuses to fork while the pool's management
    threads are alive, so fork-based tests must start single-threaded —
    the same discipline ``scripts/perf.py`` applies before its sweep.
    """
    shutdown_pool(wait=True)
    for _ in range(100):
        if threading.active_count() == 1:
            break
        time.sleep(0.05)


class MiniWorld:
    """A tiny producer/consumer pipeline with churn worth checkpointing.

    The warm phase runs it to completion with the drain loop, which
    recycles dead events into the freelists, so a checkpoint taken
    afterwards sits on top of real recycling traffic.
    """

    def __init__(self):
        self.sim = Simulator()
        self.store = Store(self.sim, capacity=4)
        self.seen = []
        _ = self.sim.process(self._producer(200), name="producer")
        _ = self.sim.process(self._consumer(200), name="consumer")

    def _producer(self, n):
        for i in range(n):
            yield self.sim.timeout(2)
            yield self.store.put(i)

    def _consumer(self, n):
        for _ in range(n):
            item = yield self.store.get()
            self.seen.append(item)
            yield self.sim.timeout(3)


def make_world():
    return MiniWorld()


def warm_world(world):
    world.sim.run()


def burst_branch(extra_delay):
    """A branch that injects a divergent burst and reports the outcome."""

    def branch(world):
        def burst(sim, store):
            yield sim.timeout(extra_delay)
            for i in range(5):
                yield store.put(1000 + extra_delay + i)

        def drain(sim, store):
            for _ in range(5):
                item = yield store.get()
                world.seen.append(item)

        _ = world.sim.process(burst(world.sim, world.store), name="burst")
        _ = world.sim.process(drain(world.sim, world.store), name="drain")
        world.sim.run()
        return {"delay": extra_delay, "now": world.sim.now,
                "seen": list(world.seen)}

    return branch


BRANCHES = [burst_branch(d) for d in (1, 7, 13)]


def payloads_json(results):
    return json.dumps(results, sort_keys=True)


class TestQuiesce:
    @KERNELS
    def test_settles_current_instant_without_advancing(self, sim_cls):
        sim = sim_cls()
        fired = []

        def now_proc(sim):
            fired.append(sim.now)
            yield sim.timeout(0)
            fired.append(sim.now)
            yield sim.timeout(5)
            fired.append(sim.now)

        _ = sim.process(now_proc(sim))
        info = sim.quiesce()
        # the zero-delay wake ran, the 5ns one did not
        assert fired == [0, 0]
        assert info.now == sim.now == 0
        assert info.events == sim._seq

    def test_drains_freelists(self):
        core._TIMEOUT_POOL.clear()
        core._EVENT_POOL.clear()
        world = MiniWorld()
        world.sim.run()
        assert core._TIMEOUT_POOL, "warmup recycled nothing; vacuous test"
        world.sim.quiesce()
        assert core._TIMEOUT_POOL == []
        assert core._EVENT_POOL == []


class TestEquivalence:
    """fork == replay == cold, byte for byte."""

    def run_mech(self, mechanism):
        engine = ScenarioEngine(make_world, warm_world)
        results = engine.run(BRANCHES, mechanism=mechanism)
        return engine, results

    def test_replay_equals_cold(self):
        _, replayed = self.run_mech("replay")
        _, cold = self.run_mech("cold")
        assert payloads_json(replayed) == payloads_json(cold)
        # branches genuinely diverge from the shared prefix
        assert len({payloads_json([r]) for r in replayed}) == len(BRANCHES)

    @needs_fork
    def test_fork_equals_cold(self):
        _, forked = self.run_mech("fork")
        _, cold = self.run_mech("cold")
        assert payloads_json(forked) == payloads_json(cold)

    @needs_fork
    def test_checkpoints_agree_across_mechanisms(self):
        checkpoints = set()
        for mechanism in ("fork", "replay", "cold"):
            engine, _ = self.run_mech(mechanism)
            assert engine.mechanism_used == mechanism
            checkpoints.add(engine.checkpoint)
        assert len(checkpoints) == 1
        ck = checkpoints.pop()
        assert isinstance(ck, Checkpoint)
        assert ck.now > 0 and ck.events > 0
        assert "events" in ck.describe()

    @needs_fork
    def test_refork_from_same_checkpoint_is_identical(self):
        engine = ScenarioEngine(make_world, warm_world)
        first = engine.run(BRANCHES, mechanism="fork")
        second = engine.run(BRANCHES, mechanism="fork")
        assert payloads_json(first) == payloads_json(second)

    def test_payload_round_trips_json_under_every_mechanism(self):
        # a tuple comes back as a list even without a fork pipe: the
        # round-trip is applied deliberately so payload types can never
        # depend on which mechanism happened to run
        def branch(world):
            return ("tuple", 1)

        engine = ScenarioEngine(make_world)
        assert engine.run([branch], mechanism="replay") == [["tuple", 1]]

    def test_bare_simulator_world(self):
        # a world that IS the simulator (no .sim attribute indirection)
        def setup():
            sim = Simulator()

            def tick(sim):
                yield sim.timeout(4)

            _ = sim.process(tick(sim), name="tick")
            return sim

        def branch(sim):
            sim.run()
            return sim.now

        assert fork_scenarios(setup, [branch], mechanism="replay") == [4]


class TestGuards:
    def test_invalid_mechanism_rejected(self):
        with pytest.raises(SnapshotError, match="mechanism"):
            ScenarioEngine(make_world, mechanism="psychic")
        engine = ScenarioEngine(make_world)
        with pytest.raises(SnapshotError, match="mechanism"):
            engine.run(BRANCHES, mechanism="psychic")

    def test_world_without_simulator_rejected(self):
        with pytest.raises(SnapshotError, match="sim_of"):
            ScenarioEngine(object).prepare()

    def test_replay_divergence_hard_fails(self):
        drift = {"n": 0}

        def leaky_setup():
            # deliberately non-deterministic: each build runs longer
            drift["n"] += 1
            world = MiniWorld()
            world.sim.run(until=20 * drift["n"])
            return world

        engine = ScenarioEngine(leaky_setup)
        engine.run([BRANCHES[0]], mechanism="replay")  # reference build
        with pytest.raises(SnapshotError, match="replay divergence"):
            engine.run([BRANCHES[0]], mechanism="replay")

    def test_cold_never_guards(self):
        drift = {"n": 0}

        def leaky_setup():
            drift["n"] += 1
            world = MiniWorld()
            world.sim.run(until=20 * drift["n"])
            return world

        engine = ScenarioEngine(leaky_setup)
        results = engine.run([BRANCHES[0], BRANCHES[0]], mechanism="cold")
        # no guard, so the drift shows up as differing payloads instead
        assert results[0] != results[1]

    def test_fork_unavailable_raises_and_auto_degrades(self, monkeypatch):
        from repro.sim import snapshot

        monkeypatch.setattr(snapshot, "fork_available", lambda: False)
        engine = ScenarioEngine(make_world, warm_world)
        with pytest.raises(SnapshotError, match="not available"):
            engine.run(BRANCHES[:1], mechanism="fork")
        engine.run(BRANCHES[:1], mechanism="auto")
        assert engine.mechanism_used == "replay"

    @needs_fork
    def test_fork_refused_while_threads_alive(self):
        engine = ScenarioEngine(make_world, warm_world)
        release = threading.Event()
        parked = threading.Thread(target=release.wait)
        parked.start()
        try:
            with pytest.raises(SnapshotError, match="live threads"):
                engine.run(BRANCHES[:1], mechanism="fork")
            engine.run(BRANCHES[:1], mechanism="auto")
            assert engine.mechanism_used == "replay"
        finally:
            release.set()
            parked.join()

    @needs_fork
    def test_failing_branch_surfaces_as_snapshot_error(self):
        def bad_branch(world):
            raise RuntimeError("boom in the child")

        engine = ScenarioEngine(make_world)
        with pytest.raises(SnapshotError, match="branch 0"):
            engine.run([bad_branch], mechanism="fork")


@needs_fork
class TestForkHygiene:
    def test_no_recycled_kernel_object_crosses_the_fork_boundary(self):
        core._TIMEOUT_POOL.clear()
        core._EVENT_POOL.clear()
        captured = []

        def warm_and_capture(world):
            warm_world(world)
            # the objects recycled during the prefix: exactly what a
            # checkpoint taken without draining would hand every child
            captured.extend(core._TIMEOUT_POOL)
            captured.extend(core._EVENT_POOL)

        engine = ScenarioEngine(make_world, warm_and_capture)
        engine.prepare()
        assert captured, "prefix recycled nothing; vacuous test"
        assert core._TIMEOUT_POOL == [] and core._EVENT_POOL == []

        def branch(world):
            shared = 0

            def probe(sim):
                nonlocal shared
                for _ in range(80):
                    t = sim.timeout(1)
                    if any(t is c for c in captured):
                        shared += 1
                    yield t

            _ = world.sim.process(probe(world.sim), name="probe")
            world.sim.run(until=world.sim.now + 200)
            return {"shared": shared}

        results = engine.run([branch, branch], mechanism="fork")
        assert [r["shared"] for r in results] == [0, 0]
        # the parent allocates fresh objects too: the captured-alive
        # refs keep any pool re-admission (getrefcount == 2) impossible
        fresh = engine._world.sim.timeout(1)
        assert all(fresh is not c for c in captured)
