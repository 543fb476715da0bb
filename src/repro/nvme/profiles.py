"""SSD performance profiles.

The default profile is calibrated so that the *system-level* results of the
paper's evaluation (Samsung 990 PRO 2 TB behind PCIe Gen4 x4) are
reproduced; EXPERIMENTS.md records the calibration targets:

* sequential read saturates at ~6.9 GB/s (NAND array streaming limit);
* sequential write alternates between a fast and a slow internal phase
  (paper: 6.24 / 5.90 GB/s run-to-run "without any intermediate values") —
  modelled as the drive's pSLC-cache state toggling per
  ``write_phase_period_bytes`` programmed;
* 4 KiB random reads at QD 64 reach ~4.3 GB/s with out-of-order completion
  (32 channels x ~18 us per random page, two-point service distribution);
* QD1 4 KiB read latency ~27 us inside the device;
* writes ack from the controller's DRAM cache within a few microseconds;
* fetching write payload over PCIe **P2P** costs extra per-page time
  (the paper's "read accesses ... do not occur frequently enough" finding).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ConfigError
from ..units import GiB

__all__ = ["SsdPerfProfile", "SAMSUNG_990_PRO_LIKE", "GEN5_SSD_LIKE"]


@dataclass(frozen=True)
class SsdPerfProfile:
    """Timing/throughput parameters of the SSD backend."""

    #: independent NAND channel pipelines
    n_channels: int = 32
    #: mean per-4KiB-page channel service time for random reads, ns
    page_read_rand_ns: int = 18000
    #: fraction of random page reads hitting the slow path (read retry,
    #: die contention); service variance is what makes in-order retirement
    #: expensive — an out-of-order consumer (SPDK) only sees the mean
    rand_read_slow_frac: float = 0.12
    #: service multiplier of the slow path (fast path scaled to keep the mean)
    rand_read_slow_mult: float = 4.0
    #: RNG seed for the service-time draw (deterministic runs)
    rand_seed: int = 0x5EED
    #: aggregate NAND-array streaming read rate (large/sequential), GB/s
    seq_read_gbps: float = 6.95
    #: post-service completion latency of reads (pipelined, not throughput), ns
    read_extra_latency_ns: int = 11500
    #: program (write-drain) rate in the fast internal phase, GB/s
    write_phase_a_gbps: float = 6.30
    #: program rate in the slow internal phase, GB/s
    write_phase_b_gbps: float = 5.95
    #: programmed bytes after which the internal write phase toggles
    write_phase_period_bytes: int = 1 * GiB
    #: fixed per-write-command cost (allocation, mapping), ns
    write_cmd_overhead_ns: int = 130
    #: fixed per-read-command cost, ns
    read_cmd_overhead_ns: int = 200
    #: write-completion (cache ack) latency after data arrival, ns
    write_ack_latency_ns: int = 1500
    #: outstanding 4 KiB payload-fetch reads the controller keeps in flight.
    #: Non-posted reads are MRRS-bounded and this pipeline is shallow, so
    #: the achievable fetch rate is depth x page / path-RTT — short to host
    #: memory, longer over P2P to FPGA buffers: the paper's observation that
    #: the controller's "read accesses ... do not occur frequently enough"
    #: to sustain full write bandwidth into FPGA-resident buffers.
    data_fetch_depth: int = 2
    #: maximum data transfer size per command (MDTS), bytes
    mdts_bytes: int = 2 * 1024 * 1024
    #: pages per simulated batch (event-count control; timing is per page)
    batch_pages: int = 8
    #: commands the controller executes concurrently
    max_outstanding: int = 256

    def validate(self) -> None:
        """Raise ConfigError on nonsensical parameters."""
        if self.n_channels < 1:
            raise ConfigError("n_channels must be >= 1")
        for name in ("seq_read_gbps", "write_phase_a_gbps", "write_phase_b_gbps"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("page_read_rand_ns", "read_extra_latency_ns",
                     "write_cmd_overhead_ns", "read_cmd_overhead_ns",
                     "write_ack_latency_ns"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.mdts_bytes < 4096 or self.mdts_bytes % 4096:
            raise ConfigError("mdts_bytes must be a positive multiple of 4 KiB")
        if not 1 <= self.batch_pages <= 64:
            raise ConfigError("batch_pages must be in [1, 64]")
        if self.data_fetch_depth < 1:
            raise ConfigError("data_fetch_depth must be >= 1")
        if not 0 <= self.rand_read_slow_frac < 1:
            raise ConfigError("rand_read_slow_frac must be in [0, 1)")
        if self.rand_read_slow_mult < 1:
            raise ConfigError("rand_read_slow_mult must be >= 1")
        if self.rand_read_slow_frac * self.rand_read_slow_mult >= 1:
            raise ConfigError(
                "slow_frac * slow_mult must be < 1 (fast path would be "
                "negative to preserve the mean)")
        if self.max_outstanding < 1:
            raise ConfigError("max_outstanding must be >= 1")
        if self.write_phase_period_bytes < 4096:
            raise ConfigError("write_phase_period_bytes must be >= 4096")


#: Default profile: behaves like the paper's Samsung 990 PRO 2 TB.
SAMSUNG_990_PRO_LIKE = SsdPerfProfile()

#: A PCIe Gen5-class drive for the paper's future-work ablation (§7):
#: roughly double the sequential rates, faster random reads.
GEN5_SSD_LIKE = replace(
    SAMSUNG_990_PRO_LIKE,
    seq_read_gbps=13.6,
    write_phase_a_gbps=11.9,
    write_phase_b_gbps=11.2,
    n_channels=24,
    page_read_rand_ns=9500,
    read_extra_latency_ns=10000,
)
