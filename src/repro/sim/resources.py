"""Synchronization primitives built on the event kernel.

* :class:`Store` — bounded FIFO of Python objects (the workhorse behind
  AXI4-Stream channels, NVMe queues, and Ethernet links).
* :class:`Resource` — counting semaphore for exclusive/limited facilities
  (DMA ports, DRAM controller, PCIe tags).
* :class:`TokenBucket` — byte-budget pacing used by rate-limited links.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Iterator, Optional, Tuple

from ..errors import SimulationError
from .core import Event, Simulator, _scheduled_event

__all__ = ["Store", "Resource", "TokenBucket"]


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
        #: single registered contention watcher (see :meth:`watch_contention`)
        self._contention: Optional[Event] = None
        #: single registered contention callback (see
        #: :meth:`watch_contention_fn`) — the event-free sibling
        self._contention_fn = None

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
        watcher = self._contention
        if watcher is not None:
            self._contention = None
            watcher.succeed()
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

    def watch_contention(self) -> Event:
        """Event firing when the next acquire has to queue behind a holder.

        Used by *elastic* holders (e.g. :meth:`repro.pcie.link.PcieLink.
        serialize`) that batch their occupancy while uncontended and must
        fall back to fine-grained interleaving the moment a competitor
        arrives.  At most one watcher is active at a time — registering a
        new one replaces the old (which then never fires); callers must
        :meth:`unwatch_contention` when they stop caring.  If waiters are
        already queued the returned event is triggered immediately.
        """
        ev = Event(self.sim)
        if self._waiters:
            ev.succeed()
        else:
            self._contention = ev
        return ev

    def unwatch_contention(self, ev: Event) -> None:
        """Deregister *ev* if it is still the active contention watcher."""
        if self._contention is ev:
            self._contention = None

    def watch_contention_fn(self, fn) -> None:
        """Register *fn* to run once when the next acquire queues.

        The allocation-free sibling of :meth:`watch_contention` for hot
        callers (the MAC frame-train): no event, no callback list — the
        resource invokes *fn* synchronously at the contention instant,
        exactly where the watcher event would have been succeeded.  Same
        single-slot discipline: registering replaces any previous fn;
        clear with :meth:`unwatch_contention_fn`.  The caller must check
        for already-queued waiters itself before registering.
        """
        self._contention_fn = fn

    def unwatch_contention_fn(self, fn) -> None:
        """Deregister *fn* if it is still the active contention callback."""
        if self._contention_fn is fn:
            self._contention_fn = None


class TokenBucket:
    """Byte-budget pacer: ``consume(n)`` blocks until *n* tokens accrued.

    Tokens accrue continuously at *rate_bytes_per_ns*; the bucket holds at
    most *burst* tokens.  Used to model sustained-rate limits where the
    fine-grained serialization model would be too slow.
    """

    def __init__(self, sim: Simulator, rate_gbps: float, burst: int,
                 name: str = "") -> None:
        if rate_gbps <= 0:
            raise ValueError(f"rate must be > 0, got {rate_gbps}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.sim = sim
        self.rate = rate_gbps  # bytes per ns == GB/s
        self.burst = burst
        self.name = name
        self._tokens = float(burst)
        self._last = sim.now
        self._lock = Resource(sim, 1, name=f"{name}.lock")

    def _refill(self) -> None:
        now = self.sim.now
        self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now

    def consume(self, nbytes: int) -> Iterator[Event]:
        """Process body: waits until *nbytes* tokens are available, then takes them."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        yield self._lock.acquire()
        try:
            self._refill()
            if self._tokens < nbytes:
                deficit = nbytes - self._tokens
                wait_ns = max(1, math.ceil(deficit / self.rate))
                yield self.sim.timeout(wait_ns)
                # Accrue without clamping to burst mid-deficit: the cap only
                # applies to idle accumulation, otherwise a request larger
                # than the burst would lose the tokens it just waited for.
                self._tokens = min(max(self.burst, nbytes),
                                   self._tokens + wait_ns * self.rate)
                self._last = self.sim.now
            self._tokens -= nbytes
        finally:
            self._lock.release()
