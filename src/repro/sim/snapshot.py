"""Checkpoint/fork scenario engine: simulate the warm prefix once.

Every branchy sweep in the repro (fault-rate ablations, fleet skew,
queue-depth scans) used to re-simulate an identical deterministic warmup
prefix once per branch.  :class:`ScenarioEngine` runs that prefix once,
pins it down with a :meth:`~repro.sim.core.Simulator.quiesce` barrier,
and then branches N divergent continuations from the checkpoint — with
results bit-identical to cold runs (the equivalence property tests in
``tests/sim/test_snapshot.py`` enforce this across all mechanisms).

Mechanisms (DESIGN.md §10 is the full contract)
-----------------------------------------------
``fork`` (primary, Linux)
    Copy-on-write ``os.fork()`` taken at the quiesce barrier.  Live
    generator coroutines, bucket queues, resource state — the entire
    object graph — are inherited by the child for free; each branch runs
    in its own child process and ships its JSON payload back through a
    pipe.  The parent's world is never advanced, so hundreds of branches
    can fork from the same checkpoint.  Forking is refused while more
    than one thread is alive: ``fork`` only copies the calling thread,
    so any other thread's locks/state would be cloned mid-flight
    (snacclint's SIM011 statically flags the same hazard).

``replay`` (portable fallback)
    Deterministic fast-forward: re-execute the recorded factory
    (``setup`` + ``warm`` + ``quiesce``) for each branch and *hard-fail*
    unless the rebuilt checkpoint matches the reference exactly — same
    clock, same kernel event count, same per-site fault RNG state
    (:meth:`~repro.faults.plan.FaultPlan.capture_state`).  Exactness is
    not assumed, it is verified: the fallback is only "the same
    simulation" because the determinism guard proves it on every rebuild.

``cold``
    One full rebuild per branch with no sharing and no guard — the
    honest baseline the perf gate (``scripts/perf.py`` schema 4) and the
    equivalence tests compare against.

``auto``
    ``fork`` when ``os.fork`` exists and the process is single-threaded,
    else ``replay``.

Branch payloads round-trip through JSON in **every** mechanism (the fork
pipe needs it; replay/cold do it deliberately), so a branch function
returns the same value type no matter how it ran, and a non-serializable
payload fails identically everywhere.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import traceback
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..errors import SnapshotError
from .core import Simulator

__all__ = ["Checkpoint", "ScenarioEngine", "fork_available", "MECHANISMS"]

#: accepted values for :meth:`ScenarioEngine.run`'s ``mechanism``
MECHANISMS = ("auto", "fork", "replay", "cold")


def fork_available() -> bool:
    """True where copy-on-write process forking exists (POSIX)."""
    return hasattr(os, "fork")


@dataclass(frozen=True)
class Checkpoint:
    """What the warm prefix pinned down at the quiesce barrier.

    ``now``/``events`` come from :class:`~repro.sim.core.CheckpointInfo`;
    ``fault_state`` is the plan's per-site stream capture (None when the
    scenario has no fault plan).  Replay compares entire checkpoints for
    equality — any field differing between two builds of the "same"
    prefix means the factory is not deterministic.
    """

    now: int
    events: int
    fault_state: Optional[Tuple[str, ...]] = None

    def describe(self) -> str:
        """One-line label for logs and error messages."""
        sites = ("no fault plan" if self.fault_state is None
                 else f"{len(self.fault_state)} fault site(s)")
        return f"t={self.now}ns after {self.events} events ({sites})"


def _default_sim_of(world: Any) -> Simulator:
    """The simulator inside *world*: the world itself, or its ``.sim``."""
    if isinstance(world, Simulator):
        return world
    sim = getattr(world, "sim", None)
    if isinstance(sim, Simulator):
        return sim
    raise SnapshotError(
        f"cannot find a Simulator in {world!r}; pass sim_of= to "
        f"ScenarioEngine")


def _default_fault_plan_of(world: Any) -> Optional[Any]:
    """The world's fault plan, if it advertises one (else None)."""
    return getattr(world, "fault_plan", None)


def _freeze_fault_state(plan: Optional[Any]) -> Optional[Tuple[str, ...]]:
    """Hashable, order-preserving form of a plan's captured site states."""
    if plan is None:
        return None
    return tuple(json.dumps(site, sort_keys=True)
                 for site in plan.capture_state())


def _round_trip(payload: Any) -> Any:
    """The JSON round-trip every branch result takes, fork or not."""
    return json.loads(json.dumps(payload, sort_keys=True))


class ScenarioEngine:
    """Run a scenario's shared prefix once; branch what-ifs from it.

    Parameters
    ----------
    setup:
        Zero-argument factory returning the *world* — a
        :class:`~repro.sim.core.Simulator` or any object exposing one as
        ``.sim``.  Must be deterministic: two calls build byte-identical
        simulations (the replay mechanism verifies this; fork relies on
        it only for cross-mechanism equivalence).
    warm:
        Optional ``warm(world)`` advancing the simulation through the
        shared prefix (e.g. priming caches, filling queues).  The engine
        quiesces the simulator afterwards, so branches always start from
        a settled instant.
    sim_of / fault_plan_of:
        Accessors for worlds that don't follow the ``.sim`` /
        ``.fault_plan`` attribute convention.

    Branch functions receive the quiesced world, advance it however they
    like, and return a JSON-serializable payload.  Under ``fork`` each
    branch gets a copy-on-write copy of the world; under ``replay`` /
    ``cold`` it gets a freshly rebuilt (and for replay, verified
    identical) one — so a branch must never rely on seeing another
    branch's mutations.
    """

    def __init__(self, setup: Callable[[], Any],
                 warm: Optional[Callable[[Any], Any]] = None, *,
                 sim_of: Optional[Callable[[Any], Simulator]] = None,
                 fault_plan_of: Optional[Callable[[Any], Any]] = None) -> None:
        self._setup = setup
        self._warm = warm
        self._sim_of = sim_of or _default_sim_of
        self._fault_plan_of = fault_plan_of or _default_fault_plan_of
        #: pristine quiesced world, ready to fork from / hand to a branch
        self._world: Optional[Any] = None
        #: reference checkpoint from the first prefix build
        self.checkpoint: Optional[Checkpoint] = None
        #: concrete mechanism of the most recent :meth:`run`
        self.mechanism_used: Optional[str] = None

    # -- prefix -------------------------------------------------------------
    def _build_prefix(self) -> Tuple[Any, Checkpoint]:
        """One cold build: setup, warm, quiesce; returns (world, checkpoint)."""
        world = self._setup()
        if self._warm is not None:
            self._warm(world)
        sim = self._sim_of(world)
        info = sim.quiesce()
        ck = Checkpoint(now=info.now, events=info.events,
                        fault_state=_freeze_fault_state(
                            self._fault_plan_of(world)))
        return world, ck

    def prepare(self) -> Checkpoint:
        """Ensure a pristine quiesced world exists; return its checkpoint.

        Idempotent; :meth:`run` calls it implicitly.  Rebuilding after
        the world was consumed (replay/cold branches advance it) applies
        the determinism guard: the fresh checkpoint must equal the
        reference or a :class:`SnapshotError` explains the divergence.
        """
        if self._world is None:
            world, ck = self._build_prefix()
            if self.checkpoint is None:
                self.checkpoint = ck
            elif ck != self.checkpoint:
                raise SnapshotError(
                    f"replay divergence: rebuilt prefix reached "
                    f"{ck.describe()} but the reference checkpoint is "
                    f"{self.checkpoint.describe()}; the setup/warm factory "
                    f"is not deterministic, so fast-forward replay cannot "
                    f"stand in for a fork")
            self._world = world
        assert self.checkpoint is not None
        return self.checkpoint

    # -- mechanism selection ------------------------------------------------
    def _resolve(self, mechanism: str) -> str:
        if mechanism == "auto":
            if fork_available() and threading.active_count() == 1:
                return "fork"
            return "replay"
        if mechanism == "fork":
            if not fork_available():
                raise SnapshotError(
                    "os.fork is not available on this platform; use "
                    "mechanism='replay' (or 'auto')")
            alive = threading.active_count()
            if alive > 1:
                raise SnapshotError(
                    f"refusing to fork with {alive} live threads: fork "
                    f"only copies the calling thread, so other threads' "
                    f"locks and state would be cloned mid-flight "
                    f"(SIM011); quiesce them or use mechanism='replay'")
        return mechanism

    # -- branching ----------------------------------------------------------
    def run(self, branches: Sequence[Callable[[Any], Any]],
            mechanism: str = "auto") -> List[Any]:
        """Run every branch from the shared checkpoint; list of payloads.

        *mechanism* is one of :data:`MECHANISMS`.  Branches execute
        sequentially in declaration order under every mechanism (the win
        is prefix sharing, which is independent of host parallelism —
        the bench host has one core).
        """
        if mechanism not in MECHANISMS:
            raise SnapshotError(
                f"mechanism must be one of {MECHANISMS}, got {mechanism!r}")
        resolved = self._resolve(mechanism)
        self.mechanism_used = resolved
        branch_list = list(branches)
        if resolved == "fork":
            self.prepare()
            return [self._run_forked(fn, i)
                    for i, fn in enumerate(branch_list)]
        results = []
        for fn in branch_list:
            if resolved == "cold" and self._world is None:
                # cold never guards: rebuild without comparing checkpoints
                world, ck = self._build_prefix()
                if self.checkpoint is None:
                    self.checkpoint = ck
                self._world = world
            else:
                self.prepare()
            world, self._world = self._world, None  # consumed by the branch
            results.append(_round_trip(fn(world)))
        return results

    def _run_forked(self, fn: Callable[[Any], Any], index: int) -> Any:
        """One branch in a copy-on-write child; parent world untouched."""
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            # Child: run the branch against the inherited world, ship the
            # payload, and _exit without touching parent cleanup (atexit,
            # buffered IO, pytest internals all belong to the parent).
            try:
                os.close(read_fd)
                payload = json.dumps(fn(self._world), sort_keys=True)
                with os.fdopen(write_fd, "wb") as sink:
                    sink.write(payload.encode("utf-8"))
                os._exit(0)
            except BaseException:
                traceback.print_exc()
                sys.stderr.flush()
                os._exit(1)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as source:
            data = source.read()  # EOF when the child closes its end
        _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise SnapshotError(
                f"forked branch {index} failed in its child process "
                f"(exit code {code}); traceback on stderr")
        if not data:
            raise SnapshotError(
                f"forked branch {index} exited cleanly but sent no "
                f"payload")
        return json.loads(data.decode("utf-8"))
