"""End-to-end NVMe IO through the real queue/doorbell/PRP machinery.

Uses the SPDK driver as the host-side exerciser — these are integration
tests of controller + ssd backend + fabric + driver together.
"""

import numpy as np
import pytest

from repro.errors import NVMeError
from repro.nvme import IoOpcode
from repro.nvme.spec import PAGE_SIZE
from repro.spdk import SpdkPerf
from repro.systems import HostSystemConfig, build_host_system
from repro.units import KiB, MiB, US


@pytest.fixture
def system(sim):
    return build_host_system(sim, HostSystemConfig())


@pytest.fixture
def driver(sim, system):
    drv = system.spdk_driver()
    sim.run_process(drv.initialize())
    return drv


class TestInit:
    def test_identify_returns_model(self, driver):
        assert b"990 PRO" in bytes(driver.identify_data)

    def test_io_queue_created(self, system, driver):
        assert system.ssd.controller.io_queue_ids == [1]

    def test_double_init_rejected(self, sim, system, driver):
        with pytest.raises(NVMeError):
            sim.run_process(driver.admin.initialize())


class TestDataPath:
    def test_write_read_4k(self, sim, system, driver, rng):
        data = rng.integers(0, 256, 4096, dtype=np.uint8)
        buf = driver.alloc_buffer(4096)
        host = system.host_mem
        off = buf.chunks[0].base - 0x10_0000_0000
        host.write(off, data)

        def body():
            yield from driver.write(slba=64, nbytes=4096, buffer=buf)
            host.fill(off, 4096, 0)
            yield from driver.read(slba=64, nbytes=4096, buffer=buf)

        sim.run_process(body())
        assert np.array_equal(host.read(off, 4096), data)
        # and the namespace holds it at the right LBA
        assert np.array_equal(system.ssd.namespace.read_blocks(64, 8), data)

    def test_write_read_1mib_uses_prp_list(self, sim, system, driver, rng):
        data = rng.integers(0, 256, 1 * MiB, dtype=np.uint8)
        buf = driver.alloc_buffer(1 * MiB)
        host = system.host_mem
        off = buf.chunks[0].base - 0x10_0000_0000
        host.write(off, data)

        def body():
            yield from driver.write(slba=0, nbytes=1 * MiB, buffer=buf)
            host.fill(off, 1 * MiB, 0)
            yield from driver.read(slba=0, nbytes=1 * MiB, buffer=buf)

        sim.run_process(body())
        assert np.array_equal(host.read(off, 1 * MiB), data)
        assert system.ssd.controller.stats.prp_list_reads >= 2  # write + read

    def test_unwritten_lba_reads_zero(self, sim, system, driver):
        buf = driver.alloc_buffer(4096)
        host = system.host_mem
        off = buf.chunks[0].base - 0x10_0000_0000
        host.fill(off, 4096, 0xFF)

        def body():
            yield from driver.read(slba=4096, nbytes=4096, buffer=buf)

        sim.run_process(body())
        assert host.read(off, 4096).sum() == 0

    def test_lba_out_of_range_fails_command(self, sim, system, driver):
        buf = driver.alloc_buffer(4096)
        nlb_total = system.ssd.namespace.nlb_total

        def body():
            yield from driver.read(slba=nlb_total, nbytes=4096, buffer=buf)

        with pytest.raises(NVMeError):
            sim.run_process(body())
        assert system.ssd.controller.stats.errors == 1

    def test_many_outstanding_commands(self, sim, system, driver, rng):
        """32 concurrent 16 KiB writes then reads, all verified."""
        n = 32
        size = 16 * KiB
        bufs = [driver.alloc_buffer(size) for _ in range(n)]
        host = system.host_mem
        blobs = [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(n)]
        for buf, blob in zip(bufs, blobs):
            host.write(buf.chunks[0].base - 0x10_0000_0000, blob)

        def writer(i):
            yield from driver.write(slba=i * 64, nbytes=size, buffer=bufs[i])

        def body():
            jobs = [sim.process(writer(i)) for i in range(n)]
            yield sim.all_of(jobs)

        sim.run_process(body())
        for i, blob in enumerate(blobs):
            assert np.array_equal(
                system.ssd.namespace.read_blocks(i * 64, size // 512), blob)

    def test_flush(self, sim, system, driver):
        buf = driver.alloc_buffer(4096)

        def body():
            handle = yield from driver.submit(IoOpcode.FLUSH, 0,
                                              512, buf)
            yield handle.done

        sim.run_process(body())
        assert system.ssd.controller.stats.flushes_completed == 1


class TestTiming:
    def test_read_latency_in_expected_band(self, sim, system, driver):
        """QD1 4 KiB random read: device ~27.5 us + SPDK path => ~57 us."""
        perf = SpdkPerf(driver)
        lats = sim.run_process(perf.latency_probe(IoOpcode.READ, samples=5))
        mean_us = sum(lats) / len(lats) / 1000
        assert 45 <= mean_us <= 70

    def test_write_latency_under_9us(self, sim, system, driver):
        perf = SpdkPerf(driver)
        lats = sim.run_process(perf.latency_probe(IoOpcode.WRITE, samples=5))
        mean_us = sum(lats) / len(lats) / 1000
        assert mean_us < 9

    def test_cpu_spins_at_full_load(self, sim, system, driver):
        """SPDK burns its CPU thread (paper §6.3)."""
        system.cpu.reset_accounting()
        perf = SpdkPerf(driver)
        sim.run_process(perf.seq_write(8 * MiB))
        assert system.cpu.utilization() > 0.99


class TestCoalesce:
    """``NvmeController._coalesce``: the read path groups contiguous PRP
    pages into runs of up to ``batch_pages``."""

    def test_coalesces_contiguous_prp_runs(self):
        from repro.nvme.controller import NvmeController
        from repro.units import PAGE

        pages = [0x8000 + i * PAGE for i in range(16)]
        per_page = NvmeController._coalesce(pages, 16 * PAGE, 1)
        spanned = NvmeController._coalesce(pages, 16 * PAGE, 8)
        assert per_page == [(0x8000 + i * PAGE, PAGE) for i in range(16)]
        assert spanned == [(0x8000, 8 * PAGE), (0x8000 + 8 * PAGE, 8 * PAGE)]

    def test_breaks_runs_at_discontiguities_and_tail(self):
        from repro.nvme.controller import NvmeController
        from repro.units import PAGE

        # 0x0, 0x1000 contiguous; 0x9000 breaks the run; tail is 1 KiB.
        pages = [0x0, PAGE, 0x9000]
        runs = NvmeController._coalesce(pages, 2 * PAGE + 1024, 8)
        assert runs == [(0x0, 2 * PAGE), (0x9000, 1024)]
