"""Calendar-queue vs global-heap equivalence property tests.

The calendar-queue scheduler (DESIGN.md §5) must be *observably
identical* to one global binary heap of ``(when, seq, event)`` tuples:
same process interleaving, same timestamps, same final clock and
sequence count, for any workload and through every public entry point
(``run``, ``run(until=)``, ``run_until`` and ``quiesce``).
:class:`HeapSimulator` below is that reference — these tests run seeded
pseudo-random workloads on both kernels and require the logs to match
exactly.

Each worker owns a private seeded ``random.Random``, so its *behaviour*
is a pure function of its seed; the shared log then captures the
kernel's interleaving decisions and nothing else.

The ``inline`` variant acquires through ``Resource.acquire_inline``.  The
exact-inline rule never fires on the reference (its ready stand-in is
always truthy), so matching logs and clocks show that taking a grant
inline never changes the interleaving; only the sequence count differs.
"""

import random
from heapq import heappop, heappush

import pytest

from repro.sim.core import _PENDING, Simulator
from repro.sim.resources import Resource, Store

N_WORKERS = 8
N_STEPS = 40
#: mix of zero, small, clustered, and far-future delays so ready-deque,
#: same-timestamp, and far-future ordering paths all get exercised
DELAYS = (0, 0, 1, 3, 7, 97, 1_000, 1_000_000)


class _HeapReady:
    """Stands in for the ready-deque: a delay-0 append goes onto the
    global heap at the current time, under the seq the caller just took."""

    __slots__ = ("sim",)

    def __init__(self, sim):
        self.sim = sim

    def append(self, event):
        sim = self.sim
        heappush(sim._times, (sim._now, sim._seq, event))


class HeapSimulator(Simulator):
    """Reference kernel: every event on one ``(when, seq, event)`` heap,
    processed one at a time through the virtual methods."""

    def __init__(self):
        super().__init__()
        self._ready = _HeapReady(self)

    def _drain(self, stop, until):
        if until < self._now:
            return
        times = self._times
        while stop._value is _PENDING and times and times[0][0] <= until:
            when, _seq, event = heappop(times)
            self._now = when
            event._before_process()
            event._process_callbacks()
            if self._crashed:
                self._raise_crash()


KERNELS = pytest.mark.parametrize("sim_cls", (Simulator, HeapSimulator),
                                  ids=("calendar", "heap"))


def _worker(sim, res, store, log, rng, ident, inline):
    for step in range(N_STEPS):
        value = yield sim.timeout(rng.choice(DELAYS), value=(ident, step))
        log.append(("timeout", sim.now, ident, value))
        roll = rng.random()
        if roll < 0.4:
            if not (inline and res.acquire_inline()):
                yield res.acquire()
            try:
                yield sim.timeout(rng.choice(DELAYS))
            finally:
                res.release()
            log.append(("resource", sim.now, ident))
        elif roll < 0.7:
            yield store.put((ident, step))
            log.append(("put", sim.now, ident))
        else:
            item = yield store.get()
            log.append(("get", sim.now, ident, item))


def _run(sim_cls, seed, until=None, stop_at=None, inline=False):
    """One seeded workload; with *stop_at*, first ``run_until`` that
    worker finishes (bounded by *until*) and ``quiesce``, then resume.

    Returns ``(log, marks, now, seq)``; each mark is ``(log length,
    now, seq)``."""
    sim = sim_cls()
    res = Resource(sim, capacity=3)
    store = Store(sim, capacity=4)
    log = []
    procs = []
    for ident in range(N_WORKERS):
        rng = random.Random(seed * 1009 + ident)
        procs.append(sim.process(
            _worker(sim, res, store, log, rng, ident, inline)))
    marks = []
    if stop_at is not None:
        sim.run_until(procs[stop_at], until=until)
        marks.append((len(log), sim.now, sim._seq))
        info = sim.quiesce()
        marks.append((len(log), info.now, info.events))
    sim.run(until=until)
    return log, marks, sim.now, sim._seq


def _assert_inline_matches_heap(seed, until=None, stop_at=None):
    """The inline variant against the reference: same log, marks and
    clock.  Returns how many scheduled grants the calendar kernel
    skipped by taking them inline."""
    log, marks, now, seq = _run(Simulator, seed, until, stop_at, inline=True)
    ref_log, ref_marks, ref_now, ref_seq = _run(HeapSimulator, seed, until,
                                                stop_at, inline=True)
    assert log == ref_log
    assert [m[:2] for m in marks] == [m[:2] for m in ref_marks]
    assert now == ref_now
    assert seq <= ref_seq
    return ref_seq - seq


def test_oracle_schedules_everything_on_one_heap():
    sim = HeapSimulator()
    sim.event().succeed()
    _ = sim.timeout(0)
    _ = sim.timeout(5)
    assert [entry[0] for entry in sorted(sim._times)] == [0, 0, 5]


@pytest.mark.parametrize("seed", range(6))
def test_full_run_equivalence(seed):
    calendar = _run(Simulator, seed)
    heap = _run(HeapSimulator, seed)
    assert calendar == heap


@pytest.mark.parametrize("seed", (0, 3))
def test_bounded_run_equivalence(seed):
    # stop mid-flight: the clock must land on `until` and the partial
    # interleavings must agree entry for entry
    for until in (0, 1, 500, 10_000, 2_000_000):
        calendar = _run(Simulator, seed, until=until)
        heap = _run(HeapSimulator, seed, until=until)
        assert calendar == heap, f"diverged with until={until}"


@pytest.mark.parametrize("seed", (1, 4))
def test_run_until_and_quiesce_equivalence(seed):
    # run_until stops the moment a worker finishes, leaving same-instant
    # work for quiesce to settle; with a bound it may stop on `until`
    # instead — both kernels must agree at every mark
    for stop_at in (0, N_WORKERS - 1):
        for until in (None, 0, 500, 10_000, 2_000_000):
            calendar = _run(Simulator, seed, until=until, stop_at=stop_at)
            heap = _run(HeapSimulator, seed, until=until, stop_at=stop_at)
            assert calendar == heap, (
                f"diverged with stop_at={stop_at}, until={until}")


@pytest.mark.parametrize("seed", range(6))
def test_inline_grants_full_run_equivalence(seed):
    assert _assert_inline_matches_heap(seed) > 0, "no grant was inlined"


@pytest.mark.parametrize("seed", (0, 3))
def test_inline_grants_bounded_run_equivalence(seed):
    for until in (0, 1, 500, 10_000, 2_000_000):
        _assert_inline_matches_heap(seed, until=until)


@pytest.mark.parametrize("seed", (1, 4))
def test_inline_grants_run_until_and_quiesce_equivalence(seed):
    for stop_at in (0, N_WORKERS - 1):
        for until in (None, 0, 500, 10_000, 2_000_000):
            _assert_inline_matches_heap(seed, until=until, stop_at=stop_at)


def test_heap_reference_never_inlines():
    # the reference's ready stand-in is always truthy, so the rule never
    # fires there and its sequence count is the scheduled-grant count
    assert _run(HeapSimulator, 2, inline=True)[3] == _run(HeapSimulator, 2)[3]


@pytest.mark.parametrize("extra_callback", (False, True))
def test_inline_grant_declines_while_a_callback_is_pending(extra_callback):
    """A waiter resumed ahead of its event's other callbacks must not
    take a grant inline: those callbacks run before the grant would."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    ev = sim.event()
    got = []

    def waiter():
        yield ev
        got.append(res.acquire_inline())

    _ = sim.process(waiter())
    sim.run()  # the waiter now holds the event's waiter slot
    if extra_callback:
        ev.add_callback(lambda _ev: got.append("callback"))
    sim.schedule_call(5, lambda _arg: ev.succeed())
    sim.run()
    assert got == ([False, "callback"] if extra_callback else [True])
    assert res.in_use == (0 if extra_callback else 1)


@pytest.mark.parametrize("stop_fires", (False, True))
def test_inline_grant_declines_once_the_stop_event_fired(stop_fires):
    """A process resumed by ``run_until``'s own stop event runs last in
    that drain, so a grant it would schedule runs only after the return."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    stop = sim.timeout(5)
    got = []

    def waiter():
        yield stop
        got.append(res.acquire_inline())

    _ = sim.process(waiter())
    if stop_fires:
        sim.run_until(stop)
    else:
        sim.run()
    assert got == [not stop_fires]


def test_inline_grant_declines_outside_a_drain():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    assert not res.acquire_inline()
    sim.run()
    assert not res.acquire_inline()
    assert res.in_use == 0


@KERNELS
def test_run_until_equivalence(sim_cls):
    def one_shot(sim, store, log):
        item = yield store.get()
        log.append(("got", sim.now, item))
        return item

    def feeder(sim, store):
        for i in range(10):
            yield sim.timeout(50)
            yield store.put(i)

    sim = sim_cls()
    store = Store(sim, capacity=2)
    log = []
    _ = sim.process(feeder(sim, store))
    got = sim.run_process(one_shot(sim, store, log))
    assert got == 0
    assert log == [("got", 50, 0)]
    assert sim.now == 50  # stopped at the trigger, not at queue drain


def test_same_timestamp_fifo_order_matches():
    # every event lands at t=0/t=5 — pure sequence-number ordering,
    # the regime where a sloppy calendar implementation would reorder
    def burst(sim, log, ident):
        yield sim.timeout(0)
        log.append(("a", ident))
        yield sim.timeout(5)
        log.append(("b", ident))
        yield sim.timeout(0)
        log.append(("c", ident))

    logs = []
    for sim_cls in (Simulator, HeapSimulator):
        sim = sim_cls()
        log = []
        for ident in range(16):
            _ = sim.process(burst(sim, log, ident))
        sim.run()
        logs.append(log)
    assert logs[0] == logs[1]
