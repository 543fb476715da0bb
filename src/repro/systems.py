"""Pre-wired system topologies used by tests, examples and benchmarks.

The paper's testbed is one host (EPYC 7302P) with a Samsung 990 PRO SSD and
an Alveo U280 FPGA on the same PCIe hierarchy.  :func:`build_host_system`
assembles the host + SSD half (enough for the SPDK baseline and the NVMe
unit tests); the FPGA side is added by :mod:`repro.core` /
:mod:`repro.fpga` builders on top of the returned fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .faults.plan import FaultConfig, FaultPlan
from .mem.base import AddressRange
from .mem.hostmem import HostDram, PinnedAllocator
from .net.frame import check_coarsening
from .nvme.device import NvmeDevice, NvmeDeviceConfig, build_nvme_device
from .pcie.iommu import Iommu
from .pcie.root_complex import PcieFabric
from .sim.core import Simulator
from .sim.stats import FaultStats
from .spdk.cpu import CpuThread
from .spdk.driver import SpdkConfig, SpdkNvmeDriver
from .units import GiB, MiB

__all__ = ["HostSystemConfig", "HostSystem", "build_host_system",
           "HOST_MEM_BASE"]

#: global bus address where host DRAM is mapped
HOST_MEM_BASE = 0x10_0000_0000


@dataclass(frozen=True)
class HostSystemConfig:
    """Parameters of the host + SSD half of the testbed."""

    host_mem_bytes: int = 1 * GiB
    pinned_region_bytes: int = 768 * MiB
    iommu_enabled: bool = True
    ssd: NvmeDeviceConfig = field(default_factory=NvmeDeviceConfig)
    spdk: SpdkConfig = field(default_factory=SpdkConfig)
    functional: bool = True
    #: fault injection + recovery policy (repro.faults); None — or a config
    #: with every rate at zero — leaves the system entirely fault-free
    faults: Optional[FaultConfig] = None
    #: Ethernet transfer coarsening for models driven from this config:
    #: "train" = frame-train fast path (byte-identical, fewer events),
    #: "per_frame" = the classic reference path (DESIGN.md §11)
    coarsening: str = "train"

    def __post_init__(self) -> None:
        check_coarsening(self.coarsening)


@dataclass
class HostSystem:
    """Handles of a built host + SSD system."""

    sim: Simulator
    config: HostSystemConfig
    fabric: PcieFabric
    host_mem: HostDram
    allocator: PinnedAllocator
    ssd: NvmeDevice
    cpu: CpuThread
    #: fault plan + shared counters when ``config.faults`` is enabled
    fault_plan: Optional[FaultPlan] = None
    fault_stats: Optional[FaultStats] = None
    _spdk: Optional[SpdkNvmeDriver] = None

    def spdk_driver(self) -> SpdkNvmeDriver:
        """The (lazily created) SPDK driver bound to this system's SSD."""
        if self._spdk is None:
            self._spdk = SpdkNvmeDriver(
                self.sim, self.fabric, self.ssd, self.allocator,
                HOST_MEM_BASE, self.cpu, self.config.spdk)
            if self.fault_plan is not None:
                self._spdk.attach_faults(self.fault_plan, self.fault_stats)
        return self._spdk


def build_host_system(sim: Simulator,
                      config: HostSystemConfig = HostSystemConfig()
                      ) -> HostSystem:
    """Assemble host memory, PCIe fabric, IOMMU, one SSD, one CPU thread."""
    fabric = PcieFabric(sim, iommu=Iommu(enabled=config.iommu_enabled))
    host_mem = HostDram(sim, config.host_mem_bytes)
    fabric.attach_host_memory(host_mem, HOST_MEM_BASE)
    allocator = PinnedAllocator(
        AddressRange(HOST_MEM_BASE, config.pinned_region_bytes))
    ssd_cfg = replace(config.ssd, functional=config.functional)
    ssd = build_nvme_device(sim, fabric, ssd_cfg)
    cpu = CpuThread(sim, name="host.cpu0")
    plan: Optional[FaultPlan] = None
    stats: Optional[FaultStats] = None
    if config.faults is not None and config.faults.enabled:
        plan = FaultPlan(config.faults)
        stats = FaultStats()
        ssd.controller.attach_faults(plan, stats)
        ssd.endpoint.link.attach_faults(plan, stats)
    return HostSystem(sim=sim, config=config, fabric=fabric, host_mem=host_mem,
                      allocator=allocator, ssd=ssd, cpu=cpu,
                      fault_plan=plan, fault_stats=stats)
