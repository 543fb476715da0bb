"""Store / Resource semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Resource, Simulator, Store


class TestStoreFifo:
    def test_items_arrive_in_order(self, sim):
        st_ = Store(sim)
        out = []

        def producer():
            for i in range(10):
                yield st_.put(i)
                yield sim.timeout(1)

        def consumer():
            for _ in range(10):
                item = yield st_.get()
                out.append(item)

        _ = sim.process(producer())
        _ = sim.process(consumer())
        sim.run()
        assert out == list(range(10))

    def test_capacity_blocks_producer(self, sim):
        st_ = Store(sim, capacity=2)
        progress = []

        def producer():
            for i in range(4):
                yield st_.put(i)
                progress.append((sim.now, i))

        def consumer():
            yield sim.timeout(100)
            for _ in range(4):
                yield st_.get()
                yield sim.timeout(10)

        _ = sim.process(producer())
        _ = sim.process(consumer())
        sim.run()
        # First two puts complete at t=0; the rest wait for the consumer.
        assert progress[0] == (0, 0)
        assert progress[1] == (0, 1)
        assert progress[2][0] >= 100
        assert progress[3][0] > progress[2][0]

    def test_get_blocks_until_put(self, sim):
        st_ = Store(sim)
        out = []

        def consumer():
            item = yield st_.get()
            out.append((sim.now, item))

        def producer():
            yield sim.timeout(42)
            yield st_.put("x")

        _ = sim.process(consumer())
        _ = sim.process(producer())
        sim.run()
        assert out == [(42, "x")]

    def test_multiple_getters_served_fifo(self, sim):
        st_ = Store(sim)
        out = []

        def consumer(name):
            item = yield st_.get()
            out.append((name, item))

        def producer():
            yield sim.timeout(1)
            for i in range(3):
                yield st_.put(i)

        for name in ("c0", "c1", "c2"):
            _ = sim.process(consumer(name))
        _ = sim.process(producer())
        sim.run()
        assert out == [("c0", 0), ("c1", 1), ("c2", 2)]

    def test_try_put_try_get(self, sim):
        st_ = Store(sim, capacity=1)
        assert st_.try_put(1) is True
        assert st_.try_put(2) is False
        ok, item = st_.try_get()
        assert ok and item == 1
        ok, _ = st_.try_get()
        assert not ok

    def test_peek(self, sim):
        st_ = Store(sim)
        st_.try_put("a")
        assert st_.peek() == "a"
        assert len(st_) == 1
        with pytest.raises(SimulationError):
            Store(sim).peek()

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)

    @given(st.lists(st.integers(), min_size=1, max_size=50),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_property_fifo_preserved_any_capacity(self, items, cap):
        sim = Simulator()
        store = Store(sim, capacity=cap)
        out = []

        def producer():
            for it in items:
                yield store.put(it)

        def consumer():
            for _ in items:
                v = yield store.get()
                out.append(v)
                yield sim.timeout(1)

        _ = sim.process(producer())
        _ = sim.process(consumer())
        sim.run()
        assert out == items


class TestResource:
    def test_capacity_limits_concurrency(self, sim):
        res = Resource(sim, capacity=2)
        active = []
        peaks = []

        def user(i):
            yield res.acquire()
            active.append(i)
            peaks.append(len(active))
            yield sim.timeout(10)
            active.remove(i)
            res.release()

        for i in range(5):
            _ = sim.process(user(i))
        sim.run()
        assert max(peaks) == 2

    def test_fifo_grant_order(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def user(i):
            yield res.acquire()
            order.append(i)
            yield sim.timeout(1)
            res.release()

        for i in range(4):
            _ = sim.process(user(i))
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_release_without_acquire_rejected(self, sim):
        res = Resource(sim)
        with pytest.raises(SimulationError):
            res.release()

    def test_counts(self, sim):
        res = Resource(sim, capacity=1)

        def holder():
            yield res.acquire()
            assert res.in_use == 1
            yield sim.timeout(10)
            res.release()

        def waiter():
            yield sim.timeout(1)
            yield res.acquire()
            res.release()

        _ = sim.process(holder())
        _ = sim.process(waiter())

        def checker():
            yield sim.timeout(5)
            assert res.in_use == 1
            assert res.queued == 1

        _ = sim.process(checker())
        sim.run()
        assert res.in_use == 0
