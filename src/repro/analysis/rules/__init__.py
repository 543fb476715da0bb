"""snacclint rule pack: DES-specific hazards for the repro simulation kernel.

Importing this package registers every rule with the engine registry.
SIM001, SIM002, SIM004 and SIM011 are per-file; SIM008 and SIM009 run
on the whole-program pass (:mod:`repro.analysis.program`).  A rule stays
only while it catches a bug class tier-1 misses (DESIGN §8.3).  Retired
because tier-1 caught every mutation of their class: SIM003 (float
delay) and SIM005 (yield of a non-Event), which the kernel rejects at
runtime; SIM006 (wait with no setter), whose lost kicks the SPDK poll
tests catch; SIM007 (unbounded recovery wait) and SIM010 (unit
confusion), which the fault-recovery tests and the paper-shape checks
catch.

========  ==================================================================
SIM001    event minted by a sim factory but never consumed
SIM002    generator function called but never registered via ``sim.process``
SIM004    nondeterminism source (wall clock, unseeded RNG)
SIM008    mutable module-level state reachable from spawned bench jobs
SIM009    job code reading inputs not covered by ``code_fingerprint``
SIM011    threads/open fds/non-quiesced pools live at a fork point
========  ==================================================================
"""

from . import determinism, events, fork_safety, spawn

__all__ = ["events", "determinism", "spawn", "fork_safety"]
