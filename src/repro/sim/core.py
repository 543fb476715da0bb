"""Discrete-event simulation kernel.

A lean, simpy-style kernel: *processes* are Python generators that ``yield``
:class:`Event` objects to suspend until the event fires.  The clock is an
integer count of nanoseconds.  Determinism is guaranteed by a monotonically
increasing sequence number used as a scheduling tie-breaker, so two runs of
the same model always interleave identically.

Hot-path design (see DESIGN.md §5 for the full invariants)
----------------------------------------------------------
The kernel optimizes the overwhelmingly common pattern — one process
waiting on one event — without changing observable scheduling semantics:

* every :class:`Event` carries a *single-waiter slot* (``_waiter``); the
  callback list is only materialized for the second registration onward,
  so the typical resume allocates neither a list nor a closure;
* :meth:`Process._resume` drives ``gen.send`` / ``gen.throw`` directly
  instead of building a lambda per step;
* the scheduler is a **calendar queue**: events scheduled *at the
  current time* (the dominant class — ``succeed()``, resource grants,
  finished processes) go into a plain FIFO deque whose append order *is*
  sequence order, O(1) both ends and no tuple allocation; future events
  go into a ``(when, seq, event)`` min-heap (sequence order within one
  timestamp is insertion order).  The order is exactly that of one global
  ``(when, seq, event)`` heap — the reference the scheduler equivalence
  property tests run against (DESIGN.md §5.2);
* hot :class:`Timeout`/:class:`Event` instances are interned in
  module-level **freelists**: the drain loop recycles an event object
  only when ``sys.getrefcount`` proves the kernel holds the last
  reference, so user code that keeps an event alive (``t = sim.timeout(…)
  … t.value``) always keeps its pristine object.  The pools are
  per-process scratch state: they never influence event ordering or
  results, which is why they are allowlisted in snacclint's SIM008
  spawn-safety rule (``repro.analysis.rules.spawn.SPAWN_SAFE_GLOBALS``);
* :meth:`Simulator.run`, :meth:`~Simulator.run_until` and
  :meth:`~Simulator.quiesce` share one drain loop that inlines event
  processing for plain ``Event``/``Timeout``/deferred-call instances;
  subclasses with processing hooks (``Process``, ``Condition``) still go
  through the virtual methods.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a", 10))
>>> _ = sim.process(worker(sim, "b", 5))
>>> sim.run()
>>> log
[(5, 'b'), (10, 'a')]
"""

from __future__ import annotations

import operator
from collections import deque
from heapq import heappop, heappush
from sys import getrefcount
from typing import (Any, Callable, Deque, Dict, Generator, Iterable, List,
                    NamedTuple, Optional, Tuple)

from ..errors import SimulationError

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "Interrupt",
    "Simulator",
    "CheckpointInfo",
    "TrainSchedule",
    "drain_freelists",
]

#: Sentinel distinguishing "not yet triggered" from a ``None`` event value.
_PENDING = object()

#: Freelists for the two hottest allocation sites.  Per-process scratch
#: state only: pool membership never affects scheduling order or results
#: (each worker process grows its own pool), so the pools are spawn-safe
#: by construction and allowlisted in SIM008.  An object enters a pool
#: only when ``getrefcount`` shows the drain loop holds the last
#: reference, so no live ``_waiter``/``_value``/user reference can leak
#: into a recycled event.
_TIMEOUT_POOL: List["Timeout"] = []
_EVENT_POOL: List["Event"] = []
_CALL_POOL: List["_Call"] = []
#: upper bound on any pool, so a burst of a million timeouts does not
#: pin a million dead objects for the rest of the process lifetime.
_POOL_CAP = 4096


def _int_ns(value: Any, what: str) -> int:
    """*value* as an integer ns count, or the round-up-policy TypeError.

    The clock is integer ns: anything integral (int, np.int64) is accepted
    and floats are rejected at the source.  Callers reach this only from
    their ``type(x) is not int`` branch, so plain ints never pay for it.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(
            f"{what} must be an integer ns count, got {value!r}; apply the "
            f"round-up policy from repro.units (ns_for_bytes / ns_ceil)"
        ) from None


def drain_freelists() -> Tuple[int, int]:
    """Empty the event freelists; returns the (timeout, event) counts dropped.

    Pool membership never affects results, so draining is safe at any
    point.  :meth:`Simulator.quiesce` calls this before a checkpoint so a
    recycled object allocated *before* the barrier can never be handed
    out *after* it — in the parent or in any forked child (children start
    from the same empty pools).  See DESIGN.md §10.
    """
    counts = (len(_TIMEOUT_POOL), len(_EVENT_POOL))
    _TIMEOUT_POOL.clear()
    _EVENT_POOL.clear()
    _CALL_POOL.clear()
    return counts


class Event:
    """A one-shot occurrence processes can wait on.

    Events start *pending*; :meth:`succeed` (or :meth:`fail`) triggers them,
    after which every registered callback runs at the current simulation time.
    Yielding an already-triggered event resumes the process immediately (at
    the same timestamp, after currently scheduled work).
    """

    __slots__ = ("sim", "_value", "_exc", "_waiter", "_callbacks", "_processed")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        #: fast path: the single Process waiting on this event, if the
        #: process registered before any callback did (the common case).
        self._waiter: Optional["Process"] = None
        #: extra callbacks; allocated lazily on the second registration.
        self._callbacks: Optional[List[Callable[["Event"], None]]] = None
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def value(self) -> Any:
        """The value the event was triggered with (raises if still pending)."""
        if self._value is _PENDING:
            raise SimulationError("event value read before trigger")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, if :meth:`fail` was used."""
        return self._exc

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with *value*; callbacks run at the current time."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        sim = self.sim
        sim._seq += 1
        sim._ready.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception, re-raised in waiting processes."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._value = exc
        self._exc = exc
        sim = self.sim
        sim._seq += 1
        sim._ready.append(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run *fn(event)* when the event is processed.

        If the event has already been processed the callback runs
        synchronously right away.
        """
        if self._processed:
            fn(self)
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def _before_process(self) -> None:
        """Hook run just before callbacks (used by deferred-value events)."""

    def _process_callbacks(self) -> None:
        # Invariant: the waiter slot always holds the *earliest*
        # registration (a slot is only taken while the callback list is
        # empty), so waiter-then-callbacks preserves registration order.
        self._processed = True
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            waiter._resume(self)
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires *delay* nanoseconds after creation.

    The timeout counts as *triggered* only once its firing time arrives —
    until then ``triggered`` is False, so conditions over pending timeouts
    behave correctly.
    """

    __slots__ = ("delay", "_timeout_value")

    def __init__(self, sim: "Simulator", delay: int, value: Any = None) -> None:
        if type(delay) is not int:
            delay = _int_ns(delay, "timeout delay")
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ + scheduling: one attribute batch and a
        # direct scheduler push (this constructor is the hottest allocation
        # site in the whole simulator; sim.timeout() additionally recycles
        # instances through the module freelist).
        self.sim = sim
        self._value = _PENDING
        self._exc = None
        self._waiter = None
        self._callbacks = None
        self._processed = False
        self.delay = delay
        self._timeout_value = value
        sim._seq += 1
        if delay:
            heappush(sim._times, (sim._now + delay, sim._seq, self))
        else:
            sim._ready.append(self)

    def _before_process(self) -> None:
        if self._value is _PENDING:
            self._value = self._timeout_value


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value given to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The generator yields :class:`Event` objects; its ``return`` value becomes
    the process event's value, so processes can wait on each other:

    >>> sim = Simulator()
    >>> def child(sim):
    ...     yield sim.timeout(3)
    ...     return 42
    >>> def parent(sim):
    ...     result = yield sim.process(child(sim))
    ...     return result
    >>> p = sim.process(parent(sim))
    >>> sim.run()
    >>> p.value
    42
    """

    __slots__ = ("_gen", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise TypeError(f"process body must be a generator, got {gen!r}")
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(gen, "__name__", "process")
        # Kick off at the current time (via the bootstrap's waiter slot —
        # _resume sends the event value, None, starting the generator).
        bootstrap = sim.event()
        bootstrap._waiter = self
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Only valid while the process is alive and waiting on an event.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        if self._waiting_on is None:
            raise SimulationError(f"process {self.name} is not waiting")
        waited = self._waiting_on
        kick = Event(self.sim)
        kick.add_callback(lambda _ev: self._throw(waited, cause))
        kick.succeed()

    def _throw(self, waited: Event, cause: Any) -> None:
        if not self.is_alive or self._waiting_on is not waited:
            return  # the awaited event fired before the interrupt landed
        self._waiting_on = None
        gen = self._gen
        try:
            target = gen.throw(Interrupt(cause))
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Exception as exc:
            self._fail_process(exc)
            return
        self._wait_on(target)

    def _resume(self, event: Event) -> None:
        """Advance the generator with *event*'s outcome (the hot path).

        Drives ``gen.send`` / ``gen.throw`` directly — no per-step closure.
        """
        if self._value is not _PENDING:
            return  # stale wakeup after the process already finished
        waiting = self._waiting_on
        if waiting is not event and waiting is not None:
            return  # stale wakeup after an interrupt
        self._waiting_on = None
        gen = self._gen
        exc = event._exc
        try:
            if exc is None:
                target = gen.send(event._value)
            else:
                target = gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Exception as caught:
            # Includes an Interrupt the process let escape: treat as failure.
            self._fail_process(caught)
            return
        # Inlined _wait_on (one call per resume adds up on the hot path).
        if isinstance(target, Event):
            self._waiting_on = target
            if target._processed:
                self._resume(target)
            elif target._waiter is None and target._callbacks is None:
                target._waiter = self
            else:
                target.add_callback(self._resume)
        else:
            self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        """Register this process as waiting on the yielded *target*."""
        if not isinstance(target, Event):
            exc = SimulationError(
                f"process {self.name} yielded {target!r}, expected an Event")
            self._gen.close()
            self._fail_process(exc)
            return
        self._waiting_on = target
        if target._processed:
            # Already-processed event (e.g. a free Resource grant): resume
            # synchronously, like add_callback on a processed event would.
            self._resume(target)
        elif target._waiter is None and target._callbacks is None:
            target._waiter = self
        else:
            target.add_callback(self._resume)

    def _finish(self, value: Any) -> None:
        self._value = value
        sim = self.sim
        sim._seq += 1
        sim._ready.append(self)

    def _fail_process(self, exc: BaseException) -> None:
        self._value = exc
        self._exc = exc
        sim = self.sim
        sim._seq += 1
        sim._ready.append(self)

    def _process_callbacks(self) -> None:
        # A crash is "handled" when some other process was waiting on us
        # (the exception is thrown into that process); otherwise it must
        # surface from Simulator.run().
        handled = self._waiter is not None or bool(self._callbacks)
        super()._process_callbacks()
        if self._exc is not None and not handled:
            self.sim._crashed.append((self, self._exc))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if not self.is_alive else "alive"
        return f"<Process {self.name} {state}>"


class Condition(Event):
    """Fires when *all* (or *any*, with ``mode='any'``) child events fire.

    Value is the list of child event values in the order given (for ``any``
    mode, untriggered children contribute ``None``).
    """

    __slots__ = ("_events", "_mode", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event],
                 mode: str = "all") -> None:
        super().__init__(sim)
        if mode not in ("all", "any"):
            raise ValueError(f"mode must be 'all' or 'any', got {mode!r}")
        self._events = list(events)
        self._mode = mode
        self._remaining = len(self._events)
        if not self._events:
            self.succeed([])
            return
        for ev in self._events:
            ev.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self._remaining -= 1
        done = self._remaining == 0 if self._mode == "all" else True
        if done:
            self.succeed([
                (ev._value if ev.triggered and ev._exc is None else None)
                for ev in self._events
            ])


class TrainSchedule(Event):
    """A self-rescheduling tick chain: ``fn(i)`` fires at evenly spaced times.

    The bulk-schedule primitive behind the frame-train fast path
    (DESIGN.md §11): *count* evenly spaced completions ride **one** live
    kernel object instead of *count* timeout/process pairs.  Tick *i*
    invokes ``fn(i)`` at ``t0 + first_delay + i * spacing``; after the
    last tick the chain goes quiet.  :meth:`truncate` shortens a pending
    chain (ticks already fired are never un-fired) — the fast path uses
    it to split a train at the next frame boundary when a disqualifier
    arrives.

    Unlike every other event, a chain is re-inserted into the scheduler
    once per tick and is never *triggered*: it cannot be yielded on.
    """

    __slots__ = ("count", "spacing", "fn", "index")

    def __init__(self, sim: "Simulator", count: int, first_delay: int,
                 spacing: int, fn: Callable[[int], None]) -> None:
        if type(count) is not int or count < 1:
            raise ValueError(f"train count must be a positive int, got "
                             f"{count!r}")
        if type(spacing) is not int:
            spacing = _int_ns(spacing, "train spacing")
        if type(first_delay) is not int:
            first_delay = _int_ns(first_delay, "train first_delay")
        if first_delay < 0 or (spacing < 1 and count > 1):
            raise ValueError(
                f"need first_delay >= 0 and spacing >= 1, got "
                f"({first_delay}, {spacing})")
        super().__init__(sim)
        self.count = count
        self.spacing = spacing
        self.fn = fn
        self.index = 0
        sim._schedule(self, first_delay)

    def truncate(self, count: int) -> None:
        """Clamp the chain to *count* ticks total (never below those fired)."""
        if count < self.count:
            self.count = max(count, self.index)

    def _process_callbacks(self) -> None:
        i = self.index
        if i >= self.count:  # truncated under the pending tick: go quiet
            self._processed = True
            return
        self.index = i + 1
        self.fn(i)
        if self.index < self.count:
            self.sim._schedule(self, self.spacing)
        else:
            self._processed = True


class _Call(Event):
    """One-shot deferred call: ``fn(arg)`` at ``now + delay``.

    The irregular-spacing sibling of :class:`TrainSchedule` (switch
    egress chains re-arm themselves with whatever the next frame's
    serialization time is).  Never *triggered*: cannot be yielded on.
    """

    __slots__ = ("fn", "arg")

    def __init__(self, sim: "Simulator", delay: int, fn: Callable[[Any], None],
                 arg: Any) -> None:
        if type(delay) is not int:
            delay = _int_ns(delay, "call delay")
        if delay < 0:
            raise ValueError(f"negative call delay: {delay}")
        super().__init__(sim)
        self.fn = fn
        self.arg = arg
        sim._schedule(self, delay)

    def _process_callbacks(self) -> None:
        self._processed = True
        self.fn(self.arg)


def _scheduled_event(sim: "Simulator", value: Any) -> Event:
    """A freelist-recycled event already succeeded with *value* and scheduled.

    Fuses ``sim.event()`` + ``ev.succeed(value)`` into straight-line code
    for the hottest grant paths (``Store.put``/``get`` hand-offs,
    ``Resource.acquire`` on free capacity).  Semantically identical to the
    two-call spelling: the event is delivered through the scheduler at the
    current time with the next sequence number.
    """
    pool = _EVENT_POOL
    if pool:
        ev = pool.pop()
        ev.sim = sim
        ev._exc = None
        ev._processed = False
        # pooled events always have _waiter/_callbacks None already
    else:
        ev = Event(sim)
    ev._value = value
    sim._seq += 1
    sim._ready.append(ev)
    return ev


class CheckpointInfo(NamedTuple):
    """What :meth:`Simulator.quiesce` pins down: clock and event count.

    ``events`` is the kernel sequence counter — the total number of
    scheduling decisions taken so far.  Two quiesced simulators built
    from the same deterministic factory agree on both fields or they are
    not the same simulation (the replay fallback in
    :mod:`repro.sim.snapshot` gates on exactly this).
    """

    now: int
    events: int


#: The ``stop`` event of unconditional drains (``run``, ``quiesce``): it
#: belongs to no simulator, so nothing can ever trigger it.
_NEVER = Event(None)  # type: ignore[arg-type]
#: ``Simulator._stop`` outside a drain, and while callbacks of the event
#: being dispatched are still to run: already triggered, so
#: :meth:`Simulator.grant_runs_next` declines.
_HALTED = Event(None)  # type: ignore[arg-type]
_HALTED._value = None
#: The ``until`` bound of unbounded drains: later than any timestamp.
_FOREVER = float("inf")


class Simulator:
    """The event loop: clock, calendar-queue scheduler, process factory."""

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        #: events scheduled at the current time, FIFO (append order is
        #: sequence order).
        self._ready: Deque[Event] = deque()
        #: min-heap of future (when, seq, event) entries, all strictly
        #: later than ``now``; seq order within a timestamp == insertion
        #: order.
        self._times: List[Tuple[int, int, Event]] = []
        self._crashed: List[Tuple[Process, BaseException]] = []
        #: the running drain's ``stop`` event; a triggered stand-in
        #: (``_HALTED``) whenever an inline grant could jump the queue
        self._stop: Event = _HALTED

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event (recycled through the freelist)."""
        pool = _EVENT_POOL
        if pool:
            ev = pool.pop()
            ev.sim = self
            ev._value = _PENDING
            ev._exc = None
            ev._processed = False
            # invariant: pooled events always have _waiter/_callbacks None
            return ev
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event firing *delay* ns from now (recycled via the freelist)."""
        pool = _TIMEOUT_POOL
        if not pool:
            return Timeout(self, delay, value)
        if type(delay) is not int:
            delay = _int_ns(delay, "timeout delay")
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        t = pool.pop()
        t.sim = self
        t._value = _PENDING
        t._exc = None
        t._processed = False
        t.delay = delay
        t._timeout_value = value
        self._seq += 1
        if delay:
            heappush(self._times, (self._now + delay, self._seq, t))
        else:
            self._ready.append(t)
        return t

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register *gen* as a process starting at the current time."""
        return Process(self, gen, name=name)

    def schedule_train(self, count: int, first_delay: int, spacing: int,
                       fn: Callable[[int], None]) -> TrainSchedule:
        """Bulk-schedule *count* evenly spaced completions on one live event.

        Tick *i* invokes ``fn(i)`` at ``now + first_delay + i * spacing``.
        The returned handle's :meth:`TrainSchedule.truncate` shortens the
        chain — how the frame-train fast path splits a train at the next
        frame boundary when a disqualifier arrives (DESIGN.md §11).
        """
        return TrainSchedule(self, count, first_delay, spacing, fn)

    def schedule_call(self, delay: int, fn: Callable[[Any], None],
                      arg: Any = None) -> Event:
        """Run ``fn(arg)`` *delay* ns from now, with no process machinery.

        The irregular-spacing companion of :meth:`schedule_train` (used
        by switch egress chains, whose frame sizes vary tick to tick, and
        by the MAC/ingress fast paths for per-frame deliveries).  The
        returned event is not awaitable.  Instances are recycled through
        a module freelist like :meth:`timeout`'s.
        """
        pool = _CALL_POOL
        if not pool:
            return _Call(self, delay, fn, arg)
        if type(delay) is not int:
            delay = _int_ns(delay, "call delay")
        if delay < 0:
            raise ValueError(f"negative call delay: {delay}")
        c = pool.pop()
        c.sim = self
        # _value/_exc need no reset: a _Call is never triggered, so they
        # keep their constructor values (_PENDING/None) through every
        # recycle.
        c._processed = False
        c.fn = fn
        c.arg = arg
        self._seq += 1
        if delay:
            heappush(self._times, (self._now + delay, self._seq, c))
        else:
            self._ready.append(c)
        return c

    def all_of(self, events: Iterable[Event]) -> Condition:
        """Event that fires once every event in *events* has fired."""
        return Condition(self, events, mode="all")

    def any_of(self, events: Iterable[Event]) -> Condition:
        """Event that fires once any event in *events* has fired."""
        return Condition(self, events, mode="any")

    # -- scheduling ---------------------------------------------------------
    def grant_runs_next(self) -> bool:
        """True when an event scheduled now would be the next one dispatched.

        The exact-inline rule (DESIGN.md §5.3).  It holds inside a drain
        whose ``stop`` has not fired, while the ready deque is empty and
        no callback of the event being dispatched is still to run.  A
        zero-delay event appended now would then be popped before anything
        else runs, so a process may take what that event would deliver
        synchronously and continue: the interleaving is unchanged and only
        ``_seq`` differs.  :meth:`repro.sim.resources.Resource.
        acquire_inline` is its main user.
        """
        return not self._ready and self._stop._value is _PENDING

    def _schedule(self, event: Event, delay: int = 0) -> None:
        self._seq += 1
        if delay:
            if type(delay) is not int:
                delay = _int_ns(delay, "schedule delay")
            heappush(self._times, (self._now + delay, self._seq, event))
        else:
            self._ready.append(event)

    def _raise_crash(self) -> None:
        proc, exc = self._crashed.pop(0)
        raise SimulationError(
            f"process {proc.name!r} crashed at t={self._now}") from exc

    def quiesce(self) -> CheckpointInfo:
        """Checkpoint barrier: settle the current instant, drain the pools.

        Processes every event scheduled *at the current time* — including
        events those events schedule at the same timestamp — without ever
        advancing the clock, so the simulator comes to rest at a point
        where the next thing that can happen is strictly in the future
        (the ready-deque is empty; the future heap is untouched).

        Also empties both module freelists (:func:`drain_freelists`), so
        no recycled :class:`Timeout`/:class:`Event` allocated before the
        barrier can be handed out after it — the invariant that makes an
        ``os.fork`` at this point safe to take (DESIGN.md §10).  Pending
        process crashes surface here rather than leaking into a branch.

        Returns the :class:`CheckpointInfo` the snapshot engine records
        (and the replay fallback verifies) for this barrier.
        """
        self._drain(_NEVER, self._now)
        drain_freelists()
        return CheckpointInfo(self._now, self._seq)

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains, or until time *until* (ns) is reached.

        On return the clock reads ``max(now, until)`` whether the loop
        drained the queue or stopped in front of a future event — ``until``
        in the past never moves the clock backwards.  An event scheduled
        exactly at *until* is still processed.  Raises the first exception
        that escaped a process, if any.
        """
        if until is not None and type(until) is not int:
            until = _int_ns(until, "run until")
        self._drain(_NEVER, _FOREVER if until is None else until)
        if until is not None and until > self._now:
            self._now = until

    def run_until(self, event: Event, until: Optional[int] = None) -> None:
        """Run until *event* triggers (or the queue drains / time *until*).

        Unlike :meth:`run`, this stops as soon as the event fires even while
        perpetual background processes (pollers, device engines) keep the
        queue populated.  The clock advances to *until* only when a pending
        event later than *until* stopped the run — never when the queue
        drained first.
        """
        if until is not None and type(until) is not int:
            until = _int_ns(until, "run_until until")
        self._drain(event, _FOREVER if until is None else until)
        if (until is not None and until > self._now
                and event._value is _PENDING and self._times):
            self._now = until

    def _drain(self, stop: Event, until: float) -> None:
        """The one event loop behind :meth:`run`/:meth:`run_until`/:meth:`quiesce`.

        Processes events until *stop* triggers, the queue drains, or the
        next event lies later than *until* (an event exactly at *until*
        is processed; an *until* before ``now`` returns at once).  Leaf
        ``Event``/``Timeout``/``_Call`` processing is inlined and dead
        leaves are recycled into the freelists (this loop is the single
        hottest code in the simulator).  Never moves the clock past the
        last processed event; the public wrappers own the clock policy.

        *stop* is recorded as ``_stop`` for :meth:`grant_runs_next`, and
        swapped for the triggered ``_HALTED`` while an event with extra
        callbacks is dispatched: those callbacks run after its waiter
        resumes, so a grant scheduled by the waiter would not run next.
        """
        if until < self._now:
            return
        crashed = self._crashed
        ready = self._ready
        times = self._times
        popleft = ready.popleft
        append_ready = ready.append
        tpool = _TIMEOUT_POOL
        epool = _EVENT_POOL
        cpool = _CALL_POOL
        outer = self._stop
        self._stop = stop
        try:
            # `while True` + break, not `while <stop pending>`: CPython
            # 3.11 only warms a loop up for specialization on an
            # unconditional back-edge, and this loop left unspecialized
            # runs ~25% slower.
            while True:
                if stop._value is not _PENDING:
                    break
                if ready:
                    event = popleft()
                elif times:
                    when = times[0][0]
                    if when > until:
                        break
                    # indexing the popped tuple drops its event reference,
                    # so the freelist recycle below still sees refcount 2
                    event = heappop(times)[2]
                    self._now = when
                    # the rest of this timestamp moves to ready now, so a
                    # delay-0 event scheduled while processing `event`
                    # lands after its same-timestamp peers (global-heap
                    # order)
                    while times and times[0][0] == when:
                        append_ready(heappop(times)[2])
                else:
                    break
                cls = event.__class__
                if cls is _Call:
                    # Deferred-call leaf: no waiter/callbacks by
                    # construction, so skip the virtual dispatch and
                    # recycle the corpse like the Timeout path below.
                    event._processed = True
                    event.fn(event.arg)
                    if getrefcount(event) == 2:
                        event.sim = None  # type: ignore[assignment]
                        event.fn = None  # type: ignore[assignment]
                        event.arg = None
                        if len(cpool) < _POOL_CAP:
                            cpool.append(event)  # type: ignore[arg-type]
                elif cls is Timeout or cls is Event:
                    if event._value is _PENDING:
                        # only a pending Timeout reaches the queue
                        # untriggered
                        event._value = event._timeout_value  # type: ignore[attr-defined]
                    event._processed = True
                    waiter = event._waiter
                    # read before the resume: a processed event runs late
                    # registrations at once, so the list cannot grow
                    callbacks = event._callbacks
                    if callbacks is None:
                        if waiter is not None:
                            event._waiter = None
                            waiter._resume(event)
                    else:
                        event._callbacks = None
                        self._stop = _HALTED
                        if waiter is not None:
                            event._waiter = None
                            waiter._resume(event)
                        for fn in callbacks:
                            fn(event)
                        self._stop = stop
                    # Freelist recycle: refcount 2 == the loop local plus
                    # getrefcount's own argument, i.e. nobody else holds
                    # the event — safe to intern (waiter/callbacks are
                    # already None on this path).
                    if getrefcount(event) == 2:
                        event.sim = None  # type: ignore[assignment]
                        event._value = None
                        event._exc = None
                        if cls is Timeout:
                            event._timeout_value = None  # type: ignore[attr-defined]
                            if len(tpool) < _POOL_CAP:
                                tpool.append(event)  # type: ignore[arg-type]
                        elif len(epool) < _POOL_CAP:
                            epool.append(event)
                else:
                    # Only Process._process_callbacks can append to
                    # _crashed, and Process events take this branch — the
                    # leaf paths above cannot grow the crash list.
                    event._before_process()
                    if event._callbacks is None:
                        event._process_callbacks()
                    else:
                        self._stop = _HALTED
                        event._process_callbacks()
                        self._stop = stop
                    if crashed:
                        self._raise_crash()
        finally:
            self._stop = outer

    def run_process(self, gen: Generator, until: Optional[int] = None) -> Any:
        """Convenience: run *gen* as a process to completion, return its value.

        Stops as soon as the process finishes — perpetual background
        processes don't prevent the return.  If the process itself raises,
        the original exception is re-raised (not the kernel's
        SimulationError wrapper).
        """
        proc = self.process(gen)
        # run_process itself observes the outcome, so a failure must not be
        # re-reported as an unhandled crash when the heap is drained later.
        proc.add_callback(lambda _e: None)
        try:
            self.run_until(proc, until=until)
        except SimulationError:
            if proc.triggered and proc.exception is not None:
                raise proc.exception from None
            raise
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not finish by t={self._now}")
        if proc.exception is not None:
            raise proc.exception
        return proc.value
