"""Whole-program deadlock rules: SIM006, SIM007.

These are the hazards the per-file pass structurally cannot see: a
process parked on an event whose setter lives in another module (or
nowhere), and a fault-recovery loop whose only wake-up is an event that a
fault can prevent from ever firing — the exact PAUSE-expiry bug class the
fault-injection PR fixed by hand with a watchdog.
"""

from __future__ import annotations

import re
from typing import Iterator

from ..engine import Finding, ProgramRule, register_program

__all__ = ["WaitWithNoSetter", "UnguardedRecoveryWait",
           "RECOVERY_RE", "WATCHDOG_RE"]

#: generator names that look like a fault-recovery / retry path.
RECOVERY_RE = re.compile(r"retry|recover|resubmit|requeue|backoff|redrive",
                         re.IGNORECASE)

#: function names that look like a timeout watchdog; a class (or module)
#: that defines one *and runs it* is assumed to sweep its own stuck
#: waiters (e.g. the SPDK driver's poll loop calling ``_scan_timeouts``,
#: which sweeps ``_retry_io``).
WATCHDOG_RE = re.compile(r"watchdog|timeout|expiry|expire|scan|monitor|deadline",
                         re.IGNORECASE)


@register_program
class WaitWithNoSetter(ProgramRule):
    """SIM006: a ``yield`` on an event no reachable code ever triggers.

    Two flavors, both resolved against the program-wide event-flow graph:

    * **local** — a function mints an event (``ev = sim.event()`` /
      ``Event(sim)``), yields it, and neither triggers it nor lets it
      escape the function.  Nothing else can ever hold a reference, so the
      wait can never complete.  Resolved per file during summarization.
    * **attribute** — ``yield obj.attr`` where ``attr`` is minted as an
      event *somewhere* in the program but **no** module triggers it
      (``.succeed()``/``.fail()``/``.set()``/``.trigger()``) or lets it
      escape (aliasing, passing, rebinding — any of which could hide a
      setter).  Matching is by attribute name, which misses colliding
      names on purpose: a false negative is a missed lint; a false
      positive is a broken gate.

    The swap-kick idiom the kernel uses everywhere
    (``kick, self._x = self._x, Event(sim); kick.succeed()``) stays
    clean: the tuple assignment is expanded pairwise during
    summarization, and the RHS load of ``self._x`` counts as an escape.
    """

    id = "SIM006"
    title = "wait with no reachable setter"
    hazard = ("a process yielding an event nothing can trigger sleeps "
              "forever; the run deadlocks or silently drops work")

    def check_program(self, program) -> Iterator[Finding]:
        for summary in program.summaries:
            for key, line, col in summary.local_deadlocks:
                yield self.finding_at(
                    summary.path, line, col,
                    f"event '{key}' is yielded but never triggered and "
                    f"never escapes its function; this wait can never "
                    f"complete")
            for key, line, col in summary.attr_waits:
                if key not in program.minted_attr_keys:
                    continue  # not provably an event — stay quiet
                if key in program.settable_attr_keys:
                    continue
                mints = ", ".join(
                    f"{path}:{mline}"
                    for path, mline in program.mint_sites(key)[:3])
                yield self.finding_at(
                    summary.path, line, col,
                    f"event attribute '{key}' (minted at {mints}) is "
                    f"yielded here but no code in the program triggers it; "
                    f"this wait can never complete")


@register_program
class UnguardedRecoveryWait(ProgramRule):
    """SIM007: a fault-recovery generator blocks on a bare event forever.

    A generator whose name marks it as a retry/recovery path
    (:data:`RECOVERY_RE`) and which ``yield``s a bare event (a name or
    attribute, not a ``sim.timeout(...)``) depends on the very subsystem
    it is recovering *from* to wake it up.  Under fault injection that
    wake-up is exactly what may never arrive.  The exemption: a class
    that also defines a watchdog (:data:`WATCHDOG_RE`) is assumed to
    sweep its stuck waiters — the SPDK driver's ``_retry_io`` /
    ``_scan_timeouts`` pair is the canonical example — and a
    module-level watchdog exempts the whole module.  Only a watchdog
    that runs counts: the module must call it, start it as a process,
    or hand it to a call as a callback.  A watchdog that is defined but
    never run sweeps nothing.
    """

    id = "SIM007"
    title = "unbounded wait on a recovery path"
    hazard = ("a retry path waiting on an un-timed event hangs the whole "
              "recovery when the fault also swallows the wake-up")

    def check_program(self, program) -> Iterator[Finding]:
        for summary in program.summaries:
            run = set(summary.run_names)
            watchdog_classes = {info.class_name for info in summary.functions
                                if WATCHDOG_RE.search(info.name)
                                and (info.name in run or info.qualname in run)}
            if None in watchdog_classes:
                continue  # a module-level watchdog guards the whole module
            for info in summary.functions:
                if not info.is_generator or not RECOVERY_RE.search(info.name):
                    continue
                if info.class_name in watchdog_classes:
                    continue
                for key, line, col in info.bare_waits:
                    yield self.finding_at(
                        summary.path, line, col,
                        f"recovery generator '{info.qualname}' blocks on "
                        f"bare event '{key}' with no timeout and no "
                        f"watchdog that runs in its class or module; pair "
                        f"the wait with a sim.timeout(...) (any_of) or "
                        f"run a watchdog sweeper")
