"""Synchronization primitives built on the event kernel.

* :class:`Store` — bounded FIFO of Python objects (the workhorse behind
  AXI4-Stream channels, NVMe queues, and Ethernet links).
* :class:`Resource` — counting semaphore for exclusive/limited facilities
  (DMA ports, DRAM controller, PCIe tags).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from ..errors import SimulationError
from .core import Event, Simulator, _scheduled_event

__all__ = ["Store", "Resource"]


class Store:
    """Bounded FIFO with blocking put/get, preserving request order.

    ``capacity=None`` means unbounded (puts never block).

    >>> sim = Simulator()
    >>> st = Store(sim, capacity=1)
    >>> def producer(sim, st):
    ...     for i in range(3):
    ...         yield st.put(i)
    >>> def consumer(sim, st, out):
    ...     for _ in range(3):
    ...         item = yield st.get()
    ...         out.append(item)
    >>> out = []
    >>> _ = sim.process(producer(sim, st))
    >>> _ = sim.process(consumer(sim, st, out))
    >>> sim.run()
    >>> out
    [0, 1, 2]
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = "") -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()  # (event, item)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        """True when a put would block."""
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Event that fires once *item* has been accepted into the store."""
        if self._getters and not self._items:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            return _scheduled_event(self.sim, None)
        if not self.is_full:
            self._items.append(item)
            return _scheduled_event(self.sim, None)
        ev = self.sim.event()
        self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if self._getters and not self._items:
            self._getters.popleft().succeed(item)
            return True
        if self.is_full:
            return False
        self._items.append(item)
        return True

    def get(self) -> Event:
        """Event that fires with the oldest item once one is available."""
        if self._items:
            ev = _scheduled_event(self.sim, self._items.popleft())
            self._admit_putter()
            return ev
        ev = self.sim.event()
        self._getters.append(ev)
        return ev

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get; returns ``(ok, item)``."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        self._admit_putter()
        return True, item

    def peek(self) -> Any:
        """The oldest item without removing it (raises when empty)."""
        if not self._items:
            raise SimulationError(f"peek on empty store {self.name!r}")
        return self._items[0]

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            ev, item = self._putters.popleft()
            self._items.append(item)
            ev.succeed()


class Resource:
    """Counting semaphore: up to *capacity* concurrent holders, FIFO grants.

    Usage inside a process::

        yield resource.acquire()
        try:
            yield sim.timeout(busy_time)
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        #: single registered contention callback (see
        #: :meth:`watch_contention_fn`)
        self._contention_fn: Optional[Callable[[], None]] = None

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Event firing when a slot is granted to the caller.

        A free-capacity grant succeeds immediately but is still *scheduled*
        (delivered through the event heap, never left pending), so grants
        keep their sequence-number position relative to every other event
        at the same timestamp.  A fully synchronous grant would resume the
        caller ahead of already-scheduled same-timestamp events and change
        the deterministic interleaving (DESIGN.md §5) — except when
        nothing could run in between, which :meth:`acquire_inline` checks.
        """
        sim = self.sim
        if self._in_use < self.capacity:
            self._in_use += 1
            # fused alloc+succeed+schedule — the hottest grant path
            return _scheduled_event(sim, None)
        ev = sim.event()
        self._waiters.append(ev)
        fn = self._contention_fn
        if fn is not None:
            self._contention_fn = None
            fn()
        return ev

    def acquire_inline(self) -> bool:
        """Take a free slot synchronously when its grant would run next.

        The exact sibling of :meth:`try_acquire`.  It succeeds only when
        :meth:`Simulator.grant_runs_next` holds: the grant that
        :meth:`acquire` would schedule is then the very next event the
        kernel dispatches, so skipping it resumes the caller at the same
        point of the same-timestamp order, and only the kernel's sequence
        counter differs.  Otherwise it takes nothing and returns False::

            if not resource.acquire_inline():
                yield resource.acquire()
        """
        if self._in_use < self.capacity and self.sim.grant_runs_next():
            self._in_use += 1
            return True
        return False

    def try_acquire(self) -> bool:
        """Take a free slot synchronously; False when none is free.

        Zero kernel events.  Skipping the scheduled grant means the
        caller proceeds a scheduler slot earlier than :meth:`acquire`
        would at the same timestamp, so this belongs to coarsened fast
        paths only (DESIGN.md §11) — the per-frame reference machinery
        must keep using :meth:`acquire`.  FIFO fairness is unaffected:
        a free slot means nobody is queued, and a same-timestamp
        competitor arriving later in the slot order queues behind the
        taken slot exactly as it would behind a scheduled grant.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        """Return a slot; the oldest waiter (if any) is granted immediately."""
        if self._in_use <= 0:
            raise SimulationError(f"release without acquire on {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1

    def watch_contention_fn(self, fn: Callable[[], None]) -> None:
        """Register *fn* to run once when the next acquire queues.

        Used by *elastic* holders that batch their occupancy while
        uncontended and must fall back to fine-grained interleaving the
        moment a competitor arrives (the PCIe elastic span, the MAC frame
        train).  No event, no callback list: the resource invokes *fn*
        synchronously inside that :meth:`acquire`, after queueing the
        waiter; *fn* schedules whatever wake-up its caller needs.  At
        most one callback is registered at a time: registering replaces
        any previous fn, and firing or :meth:`unwatch_contention_fn`
        clears it.  The caller must check for already-queued waiters
        itself before registering.
        """
        self._contention_fn = fn

    def unwatch_contention_fn(self, fn: Callable[[], None]) -> None:
        """Deregister *fn* if it is still the active contention callback."""
        if self._contention_fn is fn:
            self._contention_fn = None
