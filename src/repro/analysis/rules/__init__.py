"""snacclint rule pack: DES-specific hazards for the repro simulation kernel.

Importing this package registers every rule with the engine registry.
SIM001, SIM002, SIM004 and SIM011 are per-file; SIM006–SIM010 run on the
whole-program pass (:mod:`repro.analysis.program`).  SIM003 (float delay)
and SIM005 (yield of a non-Event) are retired: the kernel rejects both
at runtime, and tier-1 caught every mutation of either class (DESIGN §8.3).

========  ==================================================================
SIM001    event minted by a sim factory but never consumed
SIM002    generator function called but never registered via ``sim.process``
SIM004    nondeterminism source (wall clock, unseeded RNG)
SIM006    wait on an event with no reachable setter (static deadlock)
SIM007    unbounded blocking wait on a fault-recovery path
SIM008    mutable module-level state reachable from spawned bench jobs
SIM009    job code reading inputs not covered by ``code_fingerprint``
SIM010    ns/bytes/cycles unit confusion across a call boundary
SIM011    threads/open fds/non-quiesced pools live at a fork point
========  ==================================================================
"""

from . import deadlock, determinism, events, fork_safety, spawn, units_flow

__all__ = ["events", "determinism", "deadlock", "spawn", "units_flow",
           "fork_safety"]
