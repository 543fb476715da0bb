"""Fabric routing: host memory DMA, P2P, MMIO, IOMMU, traffic accounting."""

import numpy as np
import pytest

from repro.errors import AddressError, IommuFault, PCIeError
from repro.mem import HostDram, SramMemory
from repro.pcie import BarHandler, Iommu, LinkParams, PcieFabric
from repro.units import KiB, MiB

HOST_BASE = 0x1_0000_0000
FPGA_BAR = 0x2_0000_0000


class SramBarHandler(BarHandler):
    """BAR backed by an SRAM — what the URAM streamer exposes."""

    def __init__(self, mem: SramMemory):
        self.mem = mem

    def bar_read(self, offset, nbytes, functional=True):
        data = yield from self.mem.timed_read(offset, nbytes, functional=functional)
        return data

    def bar_write(self, offset, data=None, nbytes=None):
        yield from self.mem.timed_write(offset, data=data, nbytes=nbytes)


@pytest.fixture
def fabric(sim):
    fab = PcieFabric(sim, iommu=Iommu(enabled=False))
    host = HostDram(sim, 16 * MiB)
    fab.attach_host_memory(host, HOST_BASE)
    return fab


@pytest.fixture
def fpga(sim, fabric):
    ep = fabric.attach_endpoint("fpga", LinkParams(gen=3, lanes=16))
    sram = SramMemory(sim, 1 * MiB, name="uram")
    fabric.add_bar(ep, FPGA_BAR, 1 * MiB, SramBarHandler(sram), name="fpga.bar0")
    ep.test_sram = sram
    return ep


@pytest.fixture
def ssd(fabric):
    return fabric.attach_endpoint("ssd", LinkParams(gen=4, lanes=4))


class TestHostMemoryDma:
    def test_write_then_read_roundtrip(self, sim, fabric, ssd, rng):
        data = rng.integers(0, 256, 4096, dtype=np.uint8)

        def body():
            yield from ssd.dma_write(HOST_BASE + 0x1000, data=data)
            got = yield from ssd.dma_read(HOST_BASE + 0x1000, 4096)
            return got

        got = sim.run_process(body())
        assert np.array_equal(got, data)

    def test_read_takes_time(self, sim, fabric, ssd):
        def body():
            yield from ssd.dma_read(HOST_BASE, 4096, functional=False)

        sim.run_process(body())
        # at least: request prop + RC + memory latency + data serialization
        assert sim.now > 500

    def test_unmapped_address_raises(self, sim, fabric, ssd):
        def body():
            yield from ssd.dma_read(0xDEAD_0000, 64)

        with pytest.raises(AddressError):
            sim.run_process(body())

    def test_zero_length_rejected(self, sim, fabric, ssd):
        for nbytes in (0, -4):
            with pytest.raises(PCIeError):
                next(ssd.dma_read(HOST_BASE, nbytes))
            with pytest.raises(PCIeError):
                next(ssd.dma_write(HOST_BASE, nbytes=nbytes))
        with pytest.raises(PCIeError):
            next(ssd.dma_write(HOST_BASE, data=b""))
        with pytest.raises(PCIeError, match="needs data or nbytes"):
            next(ssd.dma_write(HOST_BASE))
        assert sim.now == 0 and ssd.link.total_wire_bytes == 0

    def test_mismatched_write_size_rejected(self, sim, fabric, ssd):
        with pytest.raises(PCIeError, match="nbytes=8"):
            next(ssd.dma_write(HOST_BASE, data=b"abcd", nbytes=8))
        assert fabric.traffic.snapshot() == {}

    def test_matching_write_size_accepted(self, sim, fabric, ssd):
        def body():
            yield from ssd.dma_write(HOST_BASE, data=b"abcd", nbytes=4)

        sim.run_process(body())
        assert bytes(fabric.host_memory.read(0, 4)) == b"abcd"
        assert fabric.traffic.snapshot() == {"ssd": 4, "host": 4}


class TestP2P:
    def test_ssd_reads_fpga_bar(self, sim, fabric, fpga, ssd, rng):
        data = rng.integers(0, 256, 4096, dtype=np.uint8)
        fpga.test_sram.write(0x100, data)

        def body():
            got = yield from ssd.dma_read(FPGA_BAR + 0x100, 4096)
            return got

        got = sim.run_process(body())
        assert np.array_equal(got, data)

    def test_ssd_writes_fpga_bar(self, sim, fabric, fpga, ssd, rng):
        data = rng.integers(0, 256, 2048, dtype=np.uint8)

        def body():
            yield from ssd.dma_write(FPGA_BAR + 0x200, data=data)

        sim.run_process(body())
        assert np.array_equal(fpga.test_sram.read(0x200, 2048), data)

    def test_p2p_slower_than_host_path(self, sim, fabric, fpga, ssd):
        def p2p():
            yield from ssd.dma_read(FPGA_BAR, 4096, functional=False)

        sim.run_process(p2p())
        t_p2p = sim.now

        sim2 = type(sim)()
        fab2 = PcieFabric(sim2, iommu=Iommu(enabled=False))
        fab2.attach_host_memory(HostDram(sim2, 16 * MiB), HOST_BASE)
        ssd2 = fab2.attach_endpoint("ssd", LinkParams(gen=4, lanes=4))

        def hostp():
            yield from ssd2.dma_read(HOST_BASE, 4096, functional=False)

        sim2.run_process(hostp())
        assert t_p2p > sim2.now  # extra link + RC hop

    def test_p2p_traffic_counted_on_both_links(self, sim, fabric, fpga, ssd):
        def body():
            yield from ssd.dma_read(FPGA_BAR, 4096, functional=False)

        sim.run_process(body())
        assert fabric.traffic.bytes_on("ssd") == 4096
        assert fabric.traffic.bytes_on("fpga") == 4096
        assert fabric.traffic.bytes_on("host") == 0

    def test_mismatched_write_size_rejected(self, sim, fabric, fpga, ssd):
        with pytest.raises(PCIeError, match="nbytes=8"):
            next(ssd.dma_write(FPGA_BAR, data=b"abcd", nbytes=8))
        assert fabric.traffic.snapshot() == {}
        assert fpga.test_sram.stats.writes == 0

    def test_host_dma_traffic_counts_once(self, sim, fabric, ssd):
        def body():
            yield from ssd.dma_write(HOST_BASE, nbytes=4096)

        sim.run_process(body())
        assert fabric.traffic.bytes_on("ssd") == 4096
        assert fabric.traffic.bytes_on("host") == 4096
        assert fabric.traffic.bytes_on("fpga") == 0


class TestMmio:
    def test_mmio_write_reaches_handler(self, sim, fabric, fpga):
        def body():
            yield from fabric.host_mmio_write(FPGA_BAR + 64, data=b"\xaa\xbb\xcc\xdd")

        sim.run_process(body())
        assert bytes(fpga.test_sram.read(64, 4)) == b"\xaa\xbb\xcc\xdd"
        assert fabric.traffic.snapshot() == {"fpga": 4}

    def test_mmio_read_returns_data(self, sim, fabric, fpga):
        fpga.test_sram.write(128, b"\x01\x02\x03\x04")

        def body():
            got = yield from fabric.host_mmio_read(FPGA_BAR + 128, 4)
            return got

        got = sim.run_process(body())
        assert bytes(got) == b"\x01\x02\x03\x04"

    @pytest.mark.parametrize("nbytes", [0, -4])
    def test_mmio_read_of_no_bytes_rejected(self, sim, fabric, fpga, nbytes):
        with pytest.raises(PCIeError, match="mmio read"):
            next(fabric.host_mmio_read(FPGA_BAR, nbytes))
        assert sim.now == 0 and fpga.link.total_wire_bytes == 0

    @pytest.mark.parametrize("kwargs", [{"nbytes": 0}, {"nbytes": -4},
                                        {"data": b""}, {}])
    def test_mmio_write_of_no_bytes_rejected(self, sim, fabric, fpga, kwargs):
        with pytest.raises(PCIeError, match="mmio write"):
            next(fabric.host_mmio_write(FPGA_BAR, **kwargs))
        assert sim.now == 0 and fpga.link.total_wire_bytes == 0

    def test_mmio_write_size_mismatch_rejected(self, sim, fabric, fpga):
        with pytest.raises(PCIeError, match="nbytes=8"):
            next(fabric.host_mmio_write(FPGA_BAR, data=b"abcd", nbytes=8))

    def test_mmio_to_host_memory_rejected(self, sim, fabric, fpga):
        def body():
            yield from fabric.host_mmio_write(HOST_BASE, nbytes=4)

        with pytest.raises(PCIeError):
            sim.run_process(body())

    def test_mmio_read_slower_than_write(self, sim, fabric, fpga):
        def w():
            yield from fabric.host_mmio_write(FPGA_BAR, nbytes=4)

        sim.run_process(w())
        t_w = sim.now
        sim2 = type(sim)()
        fab2 = PcieFabric(sim2, iommu=Iommu(enabled=False))
        fab2.attach_host_memory(HostDram(sim2, 1 * MiB), HOST_BASE)
        ep2 = fab2.attach_endpoint("fpga", LinkParams())
        sram2 = SramMemory(sim2, 64 * KiB)
        fab2.add_bar(ep2, FPGA_BAR, 64 * KiB, SramBarHandler(sram2))

        def r():
            yield from fab2.host_mmio_read(FPGA_BAR, 4, functional=False)

        sim2.run_process(r())
        assert sim2.now > t_w


class TestIommu:
    def test_ungranted_dma_faults(self, sim):
        fab = PcieFabric(sim, iommu=Iommu(enabled=True))
        fab.attach_host_memory(HostDram(sim, 1 * MiB), HOST_BASE)
        ep = fab.attach_endpoint("dev", LinkParams())

        def body():
            yield from ep.dma_read(HOST_BASE, 64)

        with pytest.raises(IommuFault):
            sim.run_process(body())
        assert fab.iommu.fault_count == 1

    def test_granted_dma_passes(self, sim):
        iommu = Iommu(enabled=True)
        fab = PcieFabric(sim, iommu=iommu)
        fab.attach_host_memory(HostDram(sim, 1 * MiB), HOST_BASE)
        ep = fab.attach_endpoint("dev", LinkParams())
        iommu.grant("dev", HOST_BASE, 1 * MiB)

        def body():
            yield from ep.dma_read(HOST_BASE, 64, functional=False)

        sim.run_process(body())  # no fault

    def test_partial_overlap_faults(self):
        iommu = Iommu(enabled=True)
        iommu.grant("dev", 0x1000, 0x1000)
        iommu.check("dev", 0x1000, 0x1000)
        with pytest.raises(IommuFault):
            iommu.check("dev", 0x1800, 0x1000)  # runs past the grant

    def test_disabled_iommu_allows_everything(self):
        iommu = Iommu(enabled=False)
        iommu.check("whoever", 0, 1 << 40)
        assert iommu.fault_count == 0

    def test_revoke(self):
        iommu = Iommu(enabled=True)
        iommu.grant("dev", 0, 4096)
        iommu.revoke_all("dev")
        with pytest.raises(IommuFault):
            iommu.check("dev", 0, 64)
        assert iommu.grants_of("dev") == []


class TestReadTags:
    def test_tags_limit_concurrency(self, sim):
        fab = PcieFabric(sim, iommu=Iommu(enabled=False))
        fab.attach_host_memory(HostDram(sim, 16 * MiB), HOST_BASE)
        ep1 = fab.attach_endpoint("one", LinkParams(), max_read_tags=1)

        finish = []

        def reader(ep):
            yield from ep.dma_read(HOST_BASE, 4096, functional=False)
            finish.append(sim.now)

        _ = sim.process(reader(ep1))
        _ = sim.process(reader(ep1))
        sim.run()
        # With one tag the reads fully serialize.
        assert finish[1] >= 2 * finish[0] * 0.95

    def test_endpoint_name_collision_rejected(self, sim):
        fab = PcieFabric(sim)
        fab.attach_endpoint("a", LinkParams())
        with pytest.raises(PCIeError):
            fab.attach_endpoint("a", LinkParams())
        with pytest.raises(PCIeError):
            fab.attach_endpoint("host", LinkParams())
