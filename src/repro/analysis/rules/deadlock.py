"""Whole-program deadlock rule: SIM006.

The hazard the per-file pass structurally cannot see: a process parked
on an event whose setter lives in another module, or nowhere.
"""

from __future__ import annotations

from typing import Iterator

from ..engine import Finding, ProgramRule, register_program

__all__ = ["WaitWithNoSetter"]


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

