"""Freelist reuse-safety tests.

The kernel recycles dead leaf ``Timeout``/``Event`` objects through
module-level pools (DESIGN.md §5).  An object may only enter a pool when
the drain loop holds the *last* reference (``getrefcount == 2``), and a
recycled object must come back indistinguishable from a freshly
constructed one — no stale ``_waiter``, ``_callbacks``, ``_value``,
``_exc``, or ``sim`` leaking across reuses, even across different
``Simulator`` instances in the same process.
"""

import pytest

from repro.sim import core
from repro.sim.core import _PENDING, Simulator
from repro.sim.resources import Store


def _drain_pools():
    core._TIMEOUT_POOL.clear()
    core._EVENT_POOL.clear()


def _spin(sim, n, value=None):
    for _ in range(n):
        yield sim.timeout(1, value=value)


def test_dead_timeouts_are_recycled():
    _drain_pools()
    sim = Simulator()
    for _ in range(8):
        _ = sim.process(_spin(sim, 5))
    sim.run()
    assert core._TIMEOUT_POOL, "no timeout was recycled"
    for t in core._TIMEOUT_POOL:
        assert t.sim is None
        assert t._value is None
        assert t._exc is None
        assert t._waiter is None
        assert t._callbacks is None
        assert t._timeout_value is None


def test_dead_store_grant_events_are_recycled():
    _drain_pools()
    sim = Simulator()
    store = Store(sim, capacity=None)

    def producer(sim, store):
        for i in range(10):
            yield store.put(i)

    def consumer(sim, store):
        for _ in range(10):
            _ = yield store.get()

    _ = sim.process(producer(sim, store))
    _ = sim.process(consumer(sim, store))
    sim.run()
    assert core._EVENT_POOL, "no grant event was recycled"
    for ev in core._EVENT_POOL:
        assert ev.sim is None
        assert ev._value is None
        assert ev._waiter is None
        assert ev._callbacks is None


def test_user_held_event_is_never_recycled():
    _drain_pools()
    sim = Simulator()
    held = sim.timeout(5, value="keep")
    _ = sim.process(_spin(sim, 3))
    sim.run()
    assert held not in core._TIMEOUT_POOL
    assert held.processed
    assert held.value == "keep"  # still readable after the run
    assert held.sim is sim


def test_callback_retained_event_is_never_recycled():
    # an event captured by user code (here: a callback stashing it)
    # has refcount > 2 at processing time and must stay out of the pool
    _drain_pools()
    sim = Simulator()
    seen = []
    t = sim.timeout(2)
    t.add_callback(seen.append)
    del t
    sim.run()
    assert len(seen) == 1
    assert seen[0] not in core._TIMEOUT_POOL


def test_no_stale_value_leaks_across_recycle():
    _drain_pools()
    sim_a = Simulator()
    _ = sim_a.process(_spin(sim_a, 4, value="SECRET"))
    sim_a.run()
    assert core._TIMEOUT_POOL  # primed with "SECRET"-carrying corpses

    sim_b = Simulator()
    got = []

    def probe(sim):
        got.append((yield sim.timeout(1)))       # default value
        got.append((yield sim.timeout(1, "x")))  # explicit value

    _ = sim_b.process(probe(sim_b))
    sim_b.run()
    assert got == [None, "x"]


def test_recycled_event_starts_pending_and_clean():
    _drain_pools()
    sim_a = Simulator()
    store = Store(sim_a, capacity=None)

    def churn(sim, store):
        for i in range(6):
            yield store.put(i)
            _ = yield store.get()

    _ = sim_a.process(churn(sim_a, store))
    sim_a.run()
    assert core._EVENT_POOL

    sim_b = Simulator()
    ev = sim_b.event()  # must come from the pool
    assert ev.sim is sim_b
    assert ev._value is _PENDING
    assert not ev.triggered
    assert not ev.processed
    assert ev._waiter is None
    assert ev._callbacks is None
    assert ev.exception is None


def test_pool_never_exceeds_cap():
    _drain_pools()
    sim = Simulator()
    n = core._POOL_CAP + 500
    for _ in range(n):
        _ = sim.process(_spin(sim, 1))
    sim.run()
    assert len(core._TIMEOUT_POOL) <= core._POOL_CAP


#: every public way to drain a simulator; each must go through the one
#: recycling loop
ENTRY_POINTS = {
    "run": lambda sim: sim.run(),
    "run_bounded": lambda sim: sim.run(until=1_000),
    "run_until": lambda sim: sim.run_until(sim.event()),
    "quiesce": lambda sim: sim.quiesce(),
}


def _drain_through(entry, monkeypatch):
    """Churn timeouts and deferred calls at t=0, drained via *entry*."""
    _drain_pools()
    core._CALL_POOL.clear()
    # quiesce empties the pools on its way out; keep what its loop put there
    monkeypatch.setattr(core, "drain_freelists", lambda: (0, 0))
    sim = Simulator()
    seen = []

    def churn(sim):
        for i in range(5):
            yield sim.timeout(0)
            # unbound on purpose: a held handle would block the recycle
            sim.schedule_call(0, seen.append, i)

    for _ in range(4):
        _ = sim.process(churn(sim))
    ENTRY_POINTS[entry](sim)
    assert sorted(seen) == sorted(list(range(5)) * 4)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_recycles(entry, monkeypatch):
    _drain_through(entry, monkeypatch)
    assert core._TIMEOUT_POOL, f"{entry} should recycle timeouts"
    assert core._CALL_POOL, f"{entry} should recycle deferred calls"


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_pooled_call_state_is_independent_of_entry_point(entry, monkeypatch):
    # a _Call is never triggered, so a pooled one keeps its constructor
    # _value/_exc; only its references are scrubbed
    _drain_through(entry, monkeypatch)
    assert core._CALL_POOL
    for c in core._CALL_POOL:
        assert (c.sim, c._value, c._exc, c.fn, c.arg, c._processed) == (
            None, _PENDING, None, None, None, True)
