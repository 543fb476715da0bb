"""Event-kernel semantics: ordering, processes, conditions, interrupts."""

import pytest

from repro.errors import SimulationError
from repro.sim import Interrupt, Simulator
from repro.sim import core
from repro.sim.core import Timeout, _Call, drain_freelists

#: stands for a bare ``yield`` among the non-Event cases
_BARE = object()


class TestTimeoutOrdering:
    def test_timeouts_fire_in_time_order(self, sim):
        log = []

        def p(name, delay):
            yield sim.timeout(delay)
            log.append((sim.now, name))

        _ = sim.process(p("late", 30))
        _ = sim.process(p("early", 10))
        _ = sim.process(p("mid", 20))
        sim.run()
        assert log == [(10, "early"), (20, "mid"), (30, "late")]

    def test_same_time_fifo_by_creation(self, sim):
        log = []

        def p(name):
            yield sim.timeout(5)
            log.append(name)

        for name in "abc":
            _ = sim.process(p(name))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_zero_delay_runs_at_current_time(self, sim):
        times = []

        def p():
            yield sim.timeout(0)
            times.append(sim.now)

        _ = sim.process(p())
        sim.run()
        assert times == [0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)  # snacclint: disable=SIM001 (constructor must raise)

    def test_run_until_stops_clock(self, sim):
        def p():
            yield sim.timeout(100)

        _ = sim.process(p())
        sim.run(until=50)
        assert sim.now == 50
        sim.run()
        assert sim.now == 100


class TestProcess:
    def test_return_value_propagates(self, sim):
        def child():
            yield sim.timeout(3)
            return 42

        def parent(out):
            result = yield sim.process(child())
            out.append(result)

        out = []
        _ = sim.process(parent(out))
        sim.run()
        assert out == [42]

    def test_run_process_returns_value(self, sim):
        def body():
            yield sim.timeout(1)
            return "done"

        assert sim.run_process(body()) == "done"

    def test_exception_in_process_surfaces(self, sim):
        def bad():
            yield sim.timeout(1)
            raise ValueError("boom")

        _ = sim.process(bad())
        with pytest.raises(SimulationError) as exc_info:
            sim.run()
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_exception_propagates_to_waiting_parent(self, sim):
        def bad():
            yield sim.timeout(1)
            raise ValueError("boom")

        def parent(out):
            try:
                yield sim.process(bad())
            except ValueError as e:
                out.append(str(e))

        out = []
        _ = sim.process(parent(out))
        # Handled by the waiting parent: the simulation does not crash.
        sim.run()
        assert out == ["boom"]

    def test_yielding_non_event_fails(self):
        # A bare yield, an int, a list and a tuple, each yielded at the
        # first step, after a resume, and after an interrupt (the
        # _throw -> _wait_on path).
        for bad in (_BARE, 17, [1], (1, 2)):
            for when in ("first_step", "after_resume", "after_interrupt"):
                sim = Simulator()

                def body(sim=sim, bad=bad, when=when):
                    if when == "after_resume":
                        yield sim.timeout(5)
                    elif when == "after_interrupt":
                        try:
                            yield sim.event()
                        except Interrupt:
                            pass
                    if bad is _BARE:
                        yield
                    else:
                        yield bad

                proc = sim.process(body())
                if when == "after_interrupt":
                    sim.run()  # park the process on its never-fired event
                    proc.interrupt()
                with pytest.raises(SimulationError) as crash:
                    sim.run()
                assert "expected an Event" in str(crash.value.__cause__), \
                    (bad, when)

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            _ = sim.process(lambda: None)

    def test_is_alive_lifecycle(self, sim):
        def body():
            yield sim.timeout(10)

        p = sim.process(body())
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_process_waits_on_manual_event(self, sim):
        ev = sim.event()
        out = []

        def waiter():
            val = yield ev
            out.append((sim.now, val))

        def trigger():
            yield sim.timeout(7)
            ev.succeed("go")

        _ = sim.process(waiter())
        _ = sim.process(trigger())
        sim.run()
        assert out == [(7, "go")]

    def test_yield_already_triggered_event(self, sim):
        ev = sim.event()
        ev.succeed(5)
        out = []

        def waiter():
            val = yield ev
            out.append(val)

        _ = sim.process(waiter())
        sim.run()
        assert out == [5]


class TestEvent:
    def test_double_succeed_rejected(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_value_before_trigger_rejected(self, sim):
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_callback_after_processed_runs_immediately(self, sim):
        ev = sim.event()
        ev.succeed(1)
        sim.run()
        hits = []
        ev.add_callback(lambda e: hits.append(e.value))
        assert hits == [1]


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        out = []

        def body():
            t1 = sim.timeout(5, value="a")
            t2 = sim.timeout(15, value="b")
            vals = yield sim.all_of([t1, t2])
            out.append((sim.now, vals))

        _ = sim.process(body())
        sim.run()
        assert out == [(15, ["a", "b"])]

    def test_any_of_fires_on_first(self, sim):
        out = []

        def body():
            t1 = sim.timeout(5, value="a")
            t2 = sim.timeout(15, value="b")
            vals = yield sim.any_of([t1, t2])
            out.append((sim.now, vals))

        _ = sim.process(body())
        sim.run()
        assert out == [(5, ["a", None])]

    def test_empty_all_of_fires_immediately(self, sim):
        out = []

        def body():
            vals = yield sim.all_of([])
            out.append((sim.now, vals))

        _ = sim.process(body())
        sim.run()
        assert out == [(0, [])]


class TestInterrupt:
    def test_interrupt_wakes_waiting_process(self, sim):
        out = []

        def sleeper():
            try:
                yield sim.timeout(1000)
                out.append("slept")
            except Interrupt as i:
                out.append(("interrupted", sim.now, i.cause))

        def interrupter(target):
            yield sim.timeout(10)
            target.interrupt(cause="wakeup")

        p = sim.process(sleeper())
        _ = sim.process(interrupter(p))
        sim.run()
        assert out == [("interrupted", 10, "wakeup")]

    def test_interrupt_finished_process_rejected(self, sim):
        def body():
            yield sim.timeout(1)

        p = sim.process(body())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_process_continues_after_interrupt(self, sim):
        out = []

        def sleeper():
            try:
                yield sim.timeout(1000)
            except Interrupt:
                pass
            yield sim.timeout(5)
            out.append(sim.now)

        def interrupter(target):
            yield sim.timeout(10)
            target.interrupt()

        p = sim.process(sleeper())
        _ = sim.process(interrupter(p))
        sim.run()
        assert out == [15]

    def test_stale_timeout_after_interrupt_is_ignored(self, sim):
        # The interrupted timeout still fires later; it must not corrupt
        # the process state.
        out = []

        def sleeper():
            try:
                yield sim.timeout(50)
            except Interrupt:
                out.append("int")
            yield sim.timeout(100)
            out.append(sim.now)

        def interrupter(target):
            yield sim.timeout(10)
            target.interrupt()

        p = sim.process(sleeper())
        _ = sim.process(interrupter(p))
        sim.run()
        assert out == ["int", 110]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def model(sim, log):
            def worker(name, period, count):
                for i in range(count):
                    yield sim.timeout(period)
                    log.append((sim.now, name, i))

            for k in range(5):
                _ = sim.process(worker(f"w{k}", 7 + k, 10))

        log1, log2 = [], []
        s1, s2 = Simulator(), Simulator()
        model(s1, log1)
        model(s2, log2)
        s1.run()
        s2.run()
        assert log1 == log2
        assert len(log1) == 50


def _noop(_arg):
    pass


def _recycle_one_timeout_and_call():
    """Leave a dead Timeout and a dead _Call in the kernel freelists."""
    drain_freelists()
    sim = Simulator()
    sim.schedule_call(1, _noop)

    def body():
        yield sim.timeout(1)

    _ = sim.process(body())
    sim.run()
    assert core._TIMEOUT_POOL and core._CALL_POOL, "nothing was recycled"


def _run_until_float(sim):
    _ = sim.timeout(10)  # a pending later event: the clock would move
    sim.run_until(sim.event(), until=3.7)


#: every kernel entry point that takes a time, fed a float
FLOAT_TIMES = {
    "Timeout": lambda sim: Timeout(sim, 2.5),
    "timeout": lambda sim: sim.timeout(2.5),
    "_Call": lambda sim: _Call(sim, 2.5, _noop, None),
    "schedule_call": lambda sim: sim.schedule_call(2.5, _noop),
    "train_first_delay": lambda sim: sim.schedule_train(2, 2.5, 10, _noop),
    "train_spacing": lambda sim: sim.schedule_train(2, 10, 2.5, _noop),
    "_schedule": lambda sim: sim._schedule(sim.event(), 2.5),
    "run": lambda sim: sim.run(until=2.5),
    "run_until": _run_until_float,
}


@pytest.mark.parametrize("pools", ["drained", "recycled"])
@pytest.mark.parametrize("entry", sorted(FLOAT_TIMES))
def test_float_time_rejected_at_every_entry_point(entry, pools):
    """The clock is integer ns: a float delay or ``until`` raises the
    round-up-policy TypeError on both freelist branches, and the clock
    never turns float."""
    if pools == "drained":
        drain_freelists()
    else:
        _recycle_one_timeout_and_call()
    sim = Simulator()
    with pytest.raises(TypeError, match="integer ns count.*repro.units"):
        FLOAT_TIMES[entry](sim)
    assert type(sim.now) is int
    drain_freelists()
