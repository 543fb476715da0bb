"""Regression tests for Simulator.run(until=) clock semantics.

The original tail advanced the clock to ``until`` only on the drained-heap
path and could *rewind* it on the break path when ``until`` lay in the
past; both exits now share one policy: ``now = max(now, until)``.
``run_until`` differs on purpose: it advances to ``until`` only when a
pending event later than ``until`` stopped it.  Also covers the integer-only delay contract enforced at the kernel edge.
"""

import pytest

from repro.sim.core import Simulator

np = pytest.importorskip("numpy")


def ticker(sim, period, log):
    while True:
        yield sim.timeout(period)
        log.append(sim.now)


def one_shot(sim, delay, log):
    yield sim.timeout(delay)
    log.append(sim.now)


class TestRunUntilClock:
    def test_drained_heap_advances_to_until(self):
        sim = Simulator()
        log = []
        _ = sim.process(one_shot(sim, 10, log))
        sim.run(until=100)
        assert log == [10]
        assert sim.now == 100

    def test_break_path_advances_to_until(self):
        # A pending event beyond `until` must not block the clock advance.
        sim = Simulator()
        log = []
        _ = sim.process(one_shot(sim, 500, log))
        sim.run(until=100)
        assert log == []
        assert sim.now == 100
        # The future event is still pending and fires on the next run().
        sim.run()
        assert log == [500]
        assert sim.now == 500

    def test_until_in_past_never_rewinds_clock(self):
        sim = Simulator()
        log = []
        _ = sim.process(ticker(sim, 50, log))
        sim.run(until=100)
        assert sim.now == 100
        # until < now with a future event pending: the old while/else tail
        # rewound the clock here.
        sim.run(until=30)
        assert sim.now == 100
        assert log == [50, 100]

    def test_event_exactly_at_until_is_processed(self):
        sim = Simulator()
        log = []
        _ = sim.process(one_shot(sim, 100, log))
        sim.run(until=100)
        assert log == [100]
        assert sim.now == 100

    def test_run_until_break_path_does_not_rewind(self):
        sim = Simulator()
        log = []
        _ = sim.process(ticker(sim, 50, log))
        sim.run(until=200)
        assert sim.now == 200
        ev = sim.event()
        sim.run_until(ev, until=60)
        assert sim.now == 200

    def test_run_until_break_path_advances_to_until(self):
        sim = Simulator()
        log = []
        _ = sim.process(one_shot(sim, 500, log))
        sim.run_until(sim.event(), until=100)
        assert log == []
        assert sim.now == 100

    def test_run_until_drained_queue_keeps_clock(self):
        # unlike run(until=), a queue that drains before `until` leaves
        # the clock on the last processed event
        sim = Simulator()
        log = []
        _ = sim.process(one_shot(sim, 10, log))
        sim.run_until(sim.event(), until=100)
        assert log == [10]
        assert sim.now == 10

    def test_run_until_trigger_keeps_clock(self):
        sim = Simulator()
        log = []
        _ = sim.process(ticker(sim, 50, log))
        done = sim.timeout(120)
        sim.run_until(done, until=1_000)
        assert sim.now == 120


class TestIntegerDelayContract:
    def test_float_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(TypeError, match="round-up policy"):
            sim.timeout(1.5)  # snacclint: disable (raising is the point)

    def test_numpy_integer_delay_accepted(self):
        sim = Simulator()
        log = []
        _ = sim.process(one_shot(sim, np.int64(7), log))
        sim.run()
        assert log == [7]
        assert sim.now == 7

    def test_ns_ceil_rounds_up(self):
        from repro.units import ns_ceil

        assert ns_ceil(0.0) == 0
        assert ns_ceil(1.0) == 1
        assert ns_ceil(1.0001) == 2
        with pytest.raises(ValueError):
            ns_ceil(-0.5)
