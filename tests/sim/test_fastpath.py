"""Kernel fast-path semantics: single-waiter slot, inline resume, grants.

The optimizations in ``repro.sim.core`` (DESIGN.md §5) must be invisible:
registration order, interrupt semantics, and FIFO fairness have to match
the unoptimized kernel exactly.  These tests pin the edge cases the fast
paths could plausibly break.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import Interrupt, Simulator
from repro.sim.resources import Resource


class TestSingleWaiterSlot:
    def test_two_processes_waiting_resume_in_registration_order(self, sim):
        """The first waiter rides the slot, the second the callback list —
        both must resume, in the order they registered."""
        ev = sim.event()
        log = []

        def waiter(name):
            value = yield ev
            log.append((name, value))

        _ = sim.process(waiter("first"))
        _ = sim.process(waiter("second"))
        sim.run(until=0)  # both processes reach the yield
        ev.succeed("payload")
        sim.run()
        assert log == [("first", "payload"), ("second", "payload")]

    def test_many_waiters_one_event(self, sim):
        ev = sim.event()
        log = []

        def waiter(i):
            _ = yield ev
            log.append(i)

        for i in range(5):
            _ = sim.process(waiter(i))
        sim.run(until=0)
        ev.succeed()
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_callback_before_process_keeps_order(self, sim):
        """A plain callback registered before any process must still run
        before a process that registers afterwards."""
        ev = sim.event()
        log = []
        ev.add_callback(lambda e: log.append("callback"))

        def waiter():
            _ = yield ev
            log.append("process")

        _ = sim.process(waiter())
        sim.run(until=0)
        ev.succeed()
        sim.run()
        assert log == ["callback", "process"]

    def test_add_callback_after_processing_runs_synchronously(self, sim):
        ev = sim.event()
        ev.succeed(7)
        sim.run()
        assert ev.processed
        log = []
        ev.add_callback(lambda e: log.append(e.value))
        assert log == [7]

    def test_failed_event_raises_in_every_waiter(self, sim):
        ev = sim.event()
        outcomes = []

        def waiter(name):
            try:
                _ = yield ev
                outcomes.append((name, "ok"))
            except RuntimeError as exc:
                outcomes.append((name, str(exc)))

        _ = sim.process(waiter("slot"))
        _ = sim.process(waiter("list"))
        sim.run(until=0)
        ev.fail(RuntimeError("boom"))
        sim.run()
        assert outcomes == [("slot", "boom"), ("list", "boom")]


class TestInterruptDuringFastPath:
    def test_interrupt_lands_while_waiting_in_slot(self, sim):
        """Interrupt a process whose wait occupies the single-waiter slot;
        the stale slot wakeup afterwards must be ignored."""
        log = []

        def victim():
            try:
                yield sim.timeout(100)
                log.append("timeout")
            except Interrupt as intr:
                log.append(("interrupted", intr.cause))
                yield sim.timeout(5)
                log.append(("resumed", sim.now))

        def attacker(proc):
            yield sim.timeout(10)
            proc.interrupt("because")

        victim_proc = sim.process(victim())
        _ = sim.process(attacker(victim_proc))
        sim.run()
        assert log == [("interrupted", "because"), ("resumed", 15)]

    def test_event_firing_before_interrupt_wins(self, sim):
        """The awaited event and the interrupt land at the same timestamp,
        with the interrupt issued first: the awaited event (scheduled
        earlier) is delivered, and the interrupt's deferred throw must
        detect the stale wait and not re-poke the generator."""
        log = []
        holder = {}

        def victim():
            try:
                yield sim.timeout(10)
                log.append("timeout-won")
            except Interrupt:
                log.append("interrupt-won")
            yield sim.timeout(1)
            log.append("after")

        def attacker():
            # Processes at t=10 *before* the victim's timeout (earlier seq):
            # the interrupt targets a wait that then completes normally.
            yield sim.timeout(10)
            holder["victim"].interrupt()

        _ = sim.process(attacker())
        holder["victim"] = sim.process(victim())
        sim.run()
        assert log == ["timeout-won", "after"]

    def test_interrupting_finished_process_raises(self, sim):
        def quick():
            yield sim.timeout(1)

        proc = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            proc.interrupt()


class TestResourceGrantSemantics:
    def test_fifo_fairness_under_contention(self, sim):
        res = Resource(sim, capacity=1)
        log = []

        def worker(name):
            yield res.acquire()
            try:
                log.append((name, sim.now))
                yield sim.timeout(10)
            finally:
                res.release()

        for name in "abcd":
            _ = sim.process(worker(name))
        sim.run()
        assert log == [("a", 0), ("b", 10), ("c", 20), ("d", 30)]

    def test_free_grant_is_scheduled_not_synchronous(self, sim):
        """A free-capacity grant must be delivered through the heap so it
        keeps its sequence position among same-timestamp events — a
        synchronous grant would reorder the deterministic interleaving."""
        res = Resource(sim, capacity=1)
        log = []

        def acquirer():
            yield res.acquire()
            log.append("granted")
            res.release()

        def bystander():
            yield sim.timeout(0)
            log.append("bystander")

        _ = sim.process(bystander())
        _ = sim.process(acquirer())
        sim.run()
        # The bystander's zero-delay timeout was scheduled before the grant
        # event existed, so it must process first.  A synchronous grant
        # would log "granted" ahead of it.
        assert log == ["bystander", "granted"]
        assert res.in_use == 0

    def test_contention_watcher_fires_on_first_queued_acquire(self, sim):
        res = Resource(sim, capacity=1)
        log = []

        def holder():
            yield res.acquire()
            wake = sim.event()
            hits = []

            def contended():
                hits.append(sim.now)
                wake.succeed()

            res.watch_contention_fn(contended)
            try:
                _ = yield sim.any_of([wake, sim.timeout(100)])
                log.append(("contended" if hits else "timed-out", sim.now))
            finally:
                res.unwatch_contention_fn(contended)
                res.release()

        def competitor():
            yield sim.timeout(30)
            yield res.acquire()
            log.append(("acquired", sim.now))
            res.release()

        _ = sim.process(holder())
        _ = sim.process(competitor())
        sim.run()
        assert log == [("contended", 30), ("acquired", 30)]
        assert res._contention_fn is None

    def test_queued_waiters_are_the_callers_check(self, sim):
        """Registering never fires the callback, even with waiters queued:
        the holder checks ``queued`` first (``PcieLink.serialize``)."""
        res = Resource(sim, capacity=1)

        def holder():
            yield res.acquire()
            yield sim.timeout(50)
            res.release()

        def competitor():
            yield res.acquire()
            res.release()

        _ = sim.process(holder())
        _ = sim.process(competitor())
        sim.run(until=10)
        hits = []
        res.watch_contention_fn(lambda: hits.append(sim.now))
        assert res.queued == 1
        assert hits == []
        _ = sim.process(competitor())  # the next queueing acquire fires it
        sim.run()
        assert hits == [10]


class TestTimeoutDelayTypes:
    def test_exact_int_and_integral_types_accepted(self, sim):
        import numpy as np

        log = []

        def p():
            yield sim.timeout(3)
            yield sim.timeout(np.int64(4))
            log.append(sim.now)

        _ = sim.process(p())
        sim.run()
        assert log == [7]

    def test_float_delay_rejected_with_units_hint(self, sim):
        with pytest.raises(TypeError, match="repro.units"):
            sim.timeout(1.5)  # snacclint: disable (raising is the point)

    def test_bool_is_an_int_here(self, sim):
        # bool is a subclass of int; the fast path must not misroute it.
        t = sim.timeout(True)
        assert t.delay == 1
