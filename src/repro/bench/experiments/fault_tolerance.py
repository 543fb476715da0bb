"""Fault-rate ablation: delivered bandwidth under injected faults.

Sweeps the NVMe command-failure rate (with proportional CQE delays and
PCIe TLP loss/corruption riding along) over random and sequential reads
and reports the bandwidth the user PE still sees, plus the recovery
activity that made it possible.  The rate-0 point runs with *no* plan
attached, so it reproduces the unfaulted numbers bit-identically —
graceful degradation is measured against the true baseline.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...core.bench import SnaccPerf
from ...errors import StreamerError
from ...core.config import StreamerVariant
from ...core.system import SnaccSystem, build_snacc_system
from ...faults import FaultConfig
from ...sim.core import Simulator
from ...systems import HostSystemConfig
from ..runner import ExperimentRow

__all__ = ["ablation_fault_rate_point", "DEFAULT_FAULT_RATES"]

#: per-command failure probabilities swept by default; past ~0.1 the
#: default retry budget (4) starts exhausting and reads surface errors
DEFAULT_FAULT_RATES: Tuple[float, ...] = (0.0, 0.01, 0.05, 0.1)


def _faulted_snacc(rate: float) -> SnaccSystem:
    """Fresh URAM-variant system with the sweep's fault profile."""
    faults: Optional[FaultConfig] = None
    if rate > 0:
        faults = FaultConfig(
            nvme_cmd_fail_rate=rate,
            nvme_cqe_delay_rate=rate / 2,
            pcie_tlp_loss_rate=rate / 10,
            pcie_tlp_corrupt_rate=rate / 10,
        )
    sim = Simulator()
    system = build_snacc_system(
        sim, StreamerVariant.URAM,
        HostSystemConfig(functional=False, faults=faults))
    system.initialize()
    return system


def ablation_fault_rate_point(rate: float, rand_bytes: int,
                              seq_bytes: int) -> List[ExperimentRow]:
    """One fault-rate sweep point on private simulators."""
    label = f"rate {rate:g}"
    system = _faulted_snacc(rate)
    perf = SnaccPerf(system.sim, system.user)
    try:
        rand = system.sim.run_process(perf.rand_read(rand_bytes))
        gbps = rand.gbps
    except StreamerError:
        # retry budget exhausted: the typed error reached the user
        # port instead of a hang — report zero delivered bandwidth
        gbps = 0.0
    rows = [ExperimentRow("rand_read", label, gbps, "GB/s")]
    # rand_read issues thousands of 4 KiB commands — by far the
    # richest injection surface, so recovery counters come from it
    stats = system.host.fault_stats
    retries = stats.retries if stats is not None else 0
    exhausted = stats.retry_exhausted if stats is not None else 0
    rows.append(ExperimentRow("rand_retries", label, float(retries), "cmds"))
    rows.append(ExperimentRow("rand_exhausted", label,
                              float(exhausted), "cmds"))
    system = _faulted_snacc(rate)
    perf = SnaccPerf(system.sim, system.user)
    seq = system.sim.run_process(perf.seq_read(seq_bytes))
    rows.append(ExperimentRow("seq_read", label, seq.gbps, "GB/s"))
    return rows
