"""Cross-run determinism guard.

Two runs of the same seeded model must produce the *same event sequence*,
not merely the same summary numbers — every figure in the bench suite
rests on that property, and the kernel fast paths (DESIGN.md §5) must not
erode it.  This builds the full SNAcc system twice, runs reads and writes,
records every process step as ``(sim.now, process name)`` through a
wrapped ``Process._resume``, and requires the traces and the measured
bandwidths to match exactly.
"""

import pytest

from repro.core import StreamerVariant, build_snacc_system
from repro.core.bench import SnaccPerf
from repro.sim import Process, Simulator
from repro.systems import HostSystemConfig
from repro.units import MiB


@pytest.fixture
def steps(monkeypatch):
    """A list that receives ``(now, name)`` for every process resume."""
    trace = []
    resume = Process._resume

    def traced_resume(proc, event):
        trace.append((proc.sim.now, proc.name))
        resume(proc, event)

    monkeypatch.setattr(Process, "_resume", traced_resume)
    return trace


def _traced_run(steps):
    """Build, initialize, and run a small workload in both directions;
    returns (trace, per-run GB/s)."""
    start = len(steps)
    sim = Simulator()
    system = build_snacc_system(sim, StreamerVariant.URAM,
                                HostSystemConfig(functional=False))
    system.initialize()
    perf = SnaccPerf(sim, system.user)
    gbps = [sim.run_process(run).gbps for run in (
        perf.seq_read(4 * MiB), perf.rand_read(2 * MiB),
        perf.seq_write(4 * MiB), perf.rand_write(1 * MiB))]
    return steps[start:], gbps


def test_two_seeded_runs_interleave_identically(steps):
    trace_a, gbps_a = _traced_run(steps)
    trace_b, gbps_b = _traced_run(steps)
    assert gbps_a == gbps_b
    assert len(trace_a) == len(trace_b)
    # compare pointwise to localize any divergence instead of one giant diff
    for i, (ea, eb) in enumerate(zip(trace_a, trace_b)):
        assert ea == eb, (
            f"trace diverged at step {i}: run A {ea} vs run B {eb}")


def test_trace_covers_the_whole_run(steps):
    trace, _gbps = _traced_run(steps)
    # a full system bring-up plus four workloads is tens of thousands of
    # process steps; an empty or tiny trace means the wrapper was bypassed
    assert len(trace) > 10_000
    times = [t for t, _name in trace]
    assert times == sorted(times), "trace timestamps must be monotonic"
    # the write runs' payload fetches are in the trace too
    assert any(name.endswith(".fetch1") for _t, name in trace)
