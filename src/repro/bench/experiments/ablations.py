"""Ablation studies: design choices called out by the paper (§5.2, §7).

A1  queue-depth sweep        — SPDK random reads improve with deeper queues
                               (§5.2: "SPDK can achieve even higher bandwidth
                               when the submission queue size is increased");
                               SNAcc's in-order window benefits far less.
A2  out-of-order retirement  — the §7 extension recovers random-read
                               bandwidth toward SPDK.
A3  PCIe Gen5 SSD            — §7: "Current NVMe SSDs support PCIe Gen5 x4,
                               doubling the bandwidth"; SNAcc accommodates
                               them without modification.
A4  multi-SSD                — §7: separate queue pairs per SSD aggregate
                               bandwidth and hide P2P latency.
A5  burst coalescing         — §4.3: joining the controller's small reads
                               into 4 KiB DRAM bursts; disabling it tanks
                               on-board-DRAM write bandwidth.
A7  flow control             — §4.7: without 802.3 pause an overrun
                               receiver drops frames; with it, zero loss.
A8  URAM buffer size         — §5.2: "the smaller 4 MB URAM buffer poses no
                               limitation on bandwidth".
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ...core import StreamerVariant, build_snacc_system, default_config_for
from ...core.bench import SnaccPerf
from ...net.frame import EthernetFrame
from ...net.mac import EthernetMac
from ...nvme.device import NvmeDeviceConfig
from ...nvme.profiles import GEN5_SSD_LIKE
from ...pcie.link import LinkParams
from ...sim.core import Simulator
from ...spdk.bench import SpdkPerf
from ...systems import HostSystemConfig, build_host_system
from ...units import KiB, MiB
from ..runner import ExperimentRow

__all__ = ["ablation_queue_depth_point", "ablation_ooo_point",
           "ablation_gen5_point", "ablation_multi_ssd_point",
           "ablation_burst_point", "ablation_flow_control_point",
           "ablation_buffer_size_point", "ablation_hbm_point",
           "ABLATION_TITLES"]

#: experiment id -> table title (shared with the job planner so the
#: parallel merge rebuilds the exact header the serial run prints).
ABLATION_TITLES = {
    "ablation_qd": "random-read bandwidth vs queue depth (GB/s)",
    "ablation_ooo": "random-read bandwidth, retirement policy",
    "ablation_gen5": "sequential bandwidth, Gen4 vs Gen5 SSD",
    "ablation_multi_ssd": "aggregate seq-write bandwidth vs SSD count",
    "ablation_hbm": "2-SSD aggregate seq-write vs buffer memory",
    "ablation_burst": "on-board seq-write vs DRAM burst size",
    "ablation_fc": "frame loss under receiver stall",
    "ablation_bufsize": "URAM seq-read bandwidth vs buffer size",
}


def _snacc(variant=StreamerVariant.URAM, streamer_config=None,
           host_config=None):
    sim = Simulator()
    host_cfg = host_config or HostSystemConfig(functional=False)
    system = build_snacc_system(sim, variant, host_cfg,
                                streamer_config=streamer_config)
    system.initialize()
    return sim, system, SnaccPerf(sim, system.user)


def ablation_queue_depth_point(qd: int,
                               total_bytes: int) -> List[ExperimentRow]:
    """A1, one depth: SPDK then SNAcc on private simulators."""
    sim = Simulator()
    host = build_host_system(sim, HostSystemConfig(functional=False))
    driver = host.spdk_driver()
    sim.run_process(driver.initialize())
    run = sim.run_process(SpdkPerf(driver).rand_read(
        total_bytes, queue_depth=qd))
    rows = [ExperimentRow(f"qd{qd}", "spdk", run.gbps, "GB/s")]

    cfg = replace(default_config_for(StreamerVariant.URAM),
                  queue_depth=qd)
    sim, _system, perf = _snacc(streamer_config=cfg)
    run = sim.run_process(perf.rand_read(total_bytes))
    rows.append(ExperimentRow(f"qd{qd}", "uram", run.gbps, "GB/s"))
    return rows


def ablation_ooo_point(policy: str, total_bytes: int) -> List[ExperimentRow]:
    """A2, one retirement policy ('in_order' or 'out_of_order')."""
    cfg = replace(default_config_for(StreamerVariant.URAM),
                  out_of_order_retirement=(policy == "out_of_order"))
    sim, _system, perf = _snacc(streamer_config=cfg)
    run = sim.run_process(perf.rand_read(total_bytes))
    return [ExperimentRow("rand_read", policy, run.gbps, "GB/s")]


def ablation_gen5_point(generation: str, kind: str,
                        transfer_bytes: int) -> List[ExperimentRow]:
    """A3, one (SSD generation, transfer kind) cell."""
    if generation == "gen5":
        host_cfg = replace(
            HostSystemConfig(functional=False),
            ssd=NvmeDeviceConfig(
                link=LinkParams(gen=5, lanes=4, propagation_ns=75),
                profile=GEN5_SSD_LIKE))
    else:
        host_cfg = HostSystemConfig(functional=False)
    sim, _system, perf = _snacc(StreamerVariant.HOST_DRAM,
                                host_config=host_cfg)
    run = sim.run_process(getattr(perf, kind)(transfer_bytes))
    return [ExperimentRow(kind, generation, run.gbps, "GB/s")]


def _build_multi_ssd(sim: Simulator, n: int, variant: StreamerVariant):
    """One FPGA platform with *n* SSDs, each behind its own streamer."""
    from ...core.driver import SnaccDriver
    from ...core.streamer import NvmeStreamer
    from ...core.stream_adapter import SnaccUserPort
    from ...fpga.platform import FpgaPlatform
    from ...mem.base import AddressRange
    from ...mem.hostmem import HostDram, PinnedAllocator
    from ...nvme.device import build_nvme_device
    from ...pcie.iommu import Iommu
    from ...pcie.root_complex import PcieFabric
    from ...systems import HOST_MEM_BASE
    from ...units import GiB

    fabric = PcieFabric(sim, iommu=Iommu(enabled=True))
    fabric.attach_host_memory(HostDram(sim, 1 * GiB), HOST_MEM_BASE)
    allocator = PinnedAllocator(AddressRange(HOST_MEM_BASE, 512 * MiB))
    platform = FpgaPlatform(sim, fabric)
    ports = []
    for i in range(n):
        ssd = build_nvme_device(sim, fabric, NvmeDeviceConfig(
            name=f"ssd{i}", bar_base=0xF000_0000 + i * 0x10_0000,
            functional=False))
        cfg = default_config_for(variant)
        streamer = NvmeStreamer(sim, platform, ssd, cfg, name=f"snacc{i}",
                                pinned_allocator=allocator,
                                host_mem_base=HOST_MEM_BASE)
        streamer.functional = False
        driver = SnaccDriver(sim, fabric, ssd, streamer, allocator,
                             HOST_MEM_BASE)
        sim.run_process(driver.initialize())
        ports.append(SnaccUserPort(sim, streamer.rd_cmd, streamer.rd_data,
                                   streamer.wr, streamer.wr_resp))
    return ports


def _aggregate_seq_write(sim: Simulator, ports, transfer_bytes: int) -> float:
    start = sim.now

    def writer(port):
        yield from port.write(0, nbytes=transfer_bytes)

    def body():
        jobs = [sim.process(writer(p)) for p in ports]
        yield sim.all_of(jobs)

    sim.run_process(body())
    return len(ports) * transfer_bytes / max(1, sim.now - start)


def ablation_multi_ssd_point(n: int,
                             transfer_bytes: int) -> List[ExperimentRow]:
    """A4, one SSD count."""
    sim = Simulator()
    ports = _build_multi_ssd(sim, n, StreamerVariant.URAM)
    agg = _aggregate_seq_write(sim, ports, transfer_bytes)
    return [ExperimentRow("aggregate_seq_write", f"{n}_ssd", agg, "GB/s")]


#: A6 buffer-memory labels -> streamer variants (sweep axis of the HBM
#: ablation; labels are the JobSpec-visible names).
HBM_MEMORIES = {"shared_dram_ctrl": StreamerVariant.ONBOARD_DRAM,
                "independent_banks": StreamerVariant.URAM}


def ablation_hbm_point(memory: str, n_ssds: int,
                       transfer_bytes: int) -> List[ExperimentRow]:
    """A6, one buffer-memory organisation (key into HBM_MEMORIES).

    With two drives behind one FPGA, on-board-DRAM buffers share the single
    TaPaSCo memory controller — exactly the contention §7 predicts: "memory
    will become a bottleneck in multi-SSD setups".  Independent on-die
    banks (URAM here, HBM pseudo-channels on the U280) restore scaling.
    """
    sim = Simulator()
    ports = _build_multi_ssd(sim, n_ssds, HBM_MEMORIES[memory])
    agg = _aggregate_seq_write(sim, ports, transfer_bytes)
    return [ExperimentRow("aggregate_seq_write", memory, agg, "GB/s")]


#: A5 labels -> DRAM burst sizes.
BURST_SIZES = {"coalesced_4k": 4 * KiB, "uncoalesced_512": 512}


def ablation_burst_point(burst_label: str,
                         transfer_bytes: int) -> List[ExperimentRow]:
    """A5, one DRAM burst size (key into BURST_SIZES)."""
    cfg = replace(default_config_for(StreamerVariant.ONBOARD_DRAM),
                  dram_access_bytes=BURST_SIZES[burst_label])
    sim, _system, perf = _snacc(StreamerVariant.ONBOARD_DRAM,
                                streamer_config=cfg)
    run = sim.run_process(perf.seq_write(transfer_bytes))
    return [ExperimentRow("seq_write", burst_label, run.gbps, "GB/s")]


def ablation_flow_control_point(fc_label: str, n_frames: int,
                                coarsening: str = "train"
                                ) -> List[ExperimentRow]:
    """A7, one pause setting ('flow_control_on' / 'flow_control_off').

    ``coarsening`` selects the MACs' frame-train fast path or the
    per-frame reference path; the rows are identical either way.
    """
    fc = fc_label == "flow_control_on"
    sim = Simulator()
    tx = EthernetMac(sim, "tx", flow_control=fc, coarsening=coarsening)
    rx = EthernetMac(sim, "rx", rx_fifo_bytes=64 * KiB, flow_control=fc,
                     coarsening=coarsening)
    tx.connect(rx)
    received = [0]

    def sender():
        for _ in range(n_frames):
            yield from tx.send(EthernetFrame(payload_bytes=8192))

    def consumer():
        while received[0] < n_frames:
            yield from rx.recv()
            received[0] += 1
            yield sim.timeout(3000)

    _ = sim.process(sender())
    _ = sim.process(consumer())
    sim.run(until=n_frames * 4000 + 1_000_000)
    return [ExperimentRow("frames_dropped", fc_label,
                          rx.dropped_frames, "frames"),
            ExperimentRow("frames_delivered", fc_label,
                          received[0], "frames")]


def ablation_buffer_size_point(mib: int,
                               transfer_bytes: int) -> List[ExperimentRow]:
    """A8, one URAM buffer size."""
    cfg = replace(default_config_for(StreamerVariant.URAM),
                  uram_buffer_bytes=mib * MiB)
    sim, _system, perf = _snacc(streamer_config=cfg)
    run = sim.run_process(perf.seq_read(transfer_bytes))
    return [ExperimentRow("seq_read", f"{mib}MiB", run.gbps, "GB/s")]
