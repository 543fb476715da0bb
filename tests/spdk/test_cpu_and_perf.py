"""CPU thread accounting and SPDK perf-engine behaviour."""

import pytest

from repro.errors import ConfigError
from repro.nvme.spec import IoOpcode
from repro.spdk import CpuThread, SpdkConfig, SpdkPerf
from repro.systems import HostSystemConfig, build_host_system
from repro.units import KiB, MiB

#: simulated-time bound for every run that drives the SPDK driver: its
#: poll loop keeps the queue busy, so a completion that never arrives
#: would spin forever instead of failing.  The longest run here ends
#: near 2.5 ms.
DEADLINE_NS = 100_000_000


class TestCpuThread:
    def test_work_accumulates_busy(self, sim):
        cpu = CpuThread(sim)

        def body():
            yield from cpu.work(100)
            yield sim.timeout(900)

        sim.run_process(body())
        assert cpu.busy_ns() == 100
        assert cpu.utilization() == pytest.approx(0.1)

    def test_spin_counts_wall_clock(self, sim):
        cpu = CpuThread(sim)

        def body():
            cpu.begin_spin()
            yield sim.timeout(500)
            cpu.end_spin()
            yield sim.timeout(500)

        sim.run_process(body())
        assert cpu.busy_ns() == 500
        assert cpu.utilization() == pytest.approx(0.5)

    def test_work_inside_spin_not_double_counted(self, sim):
        cpu = CpuThread(sim)

        def body():
            cpu.begin_spin()
            yield from cpu.work(200)
            yield sim.timeout(800)
            cpu.end_spin()

        sim.run_process(body())
        assert cpu.busy_ns() == 1000  # the spin interval, once

    def test_double_spin_rejected(self, sim):
        cpu = CpuThread(sim)
        cpu.begin_spin()
        with pytest.raises(ConfigError):
            cpu.begin_spin()

    def test_reset_accounting(self, sim):
        cpu = CpuThread(sim)

        def body():
            yield from cpu.work(100)
            cpu.reset_accounting()
            yield sim.timeout(100)

        sim.run_process(body())
        assert cpu.busy_ns() == 0

    def test_serializes_work(self, sim):
        cpu = CpuThread(sim)
        ends = []

        def worker():
            yield from cpu.work(100)
            ends.append(sim.now)

        _ = sim.process(worker())
        _ = sim.process(worker())
        sim.run()
        assert ends == [100, 200]


class TestSpdkConfig:
    def test_defaults_construct(self):
        cfg = SpdkConfig()
        assert cfg.poll_interval_ns == 400
        assert cfg.io_queue_entries == 256

    @pytest.mark.parametrize("field, value", [
        ("poll_interval_ns", 0),
        ("io_queue_entries", 1),
        ("cq_doorbell_batch", 0),
        ("submit_cpu_ns", -1),
        ("complete_cpu_ns", -1),
        ("read_latency_stat_overhead_ns", -1),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SpdkConfig(**{field: value})

    def test_smallest_legal_values_construct(self):
        SpdkConfig(poll_interval_ns=1, io_queue_entries=2,
                   cq_doorbell_batch=1, submit_cpu_ns=0, complete_cpu_ns=0,
                   read_latency_stat_overhead_ns=0)


class TestSpdkPerfEngine:
    @pytest.fixture
    def perf(self, sim):
        system = build_host_system(sim, HostSystemConfig(functional=False))
        driver = system.spdk_driver()
        sim.run_process(driver.initialize(), until=sim.now + DEADLINE_NS)
        return SpdkPerf(driver)

    def test_sequential_counts_all_bytes(self, sim, perf):
        run = sim.run_process(perf.seq_read(16 * MiB, io_bytes=1 * MiB),
                              until=sim.now + DEADLINE_NS)
        assert run.total_bytes == 16 * MiB
        assert len(run.latencies_ns) == 16
        assert run.gbps > 1.0

    def test_random_respects_io_size(self, sim, perf):
        run = sim.run_process(perf.rand_write(1 * MiB, io_bytes=4 * KiB),
                              until=sim.now + DEADLINE_NS)
        assert len(run.latencies_ns) == 256

    def test_misaligned_totals_rejected(self, sim, perf):
        with pytest.raises(ConfigError):
            sim.run_process(perf.seq_read(1 * MiB + 1),
                            until=sim.now + DEADLINE_NS)

    def test_submit_split_respects_mdts(self, sim, perf):
        driver = perf.driver
        buf = driver.alloc_buffer(5 * MiB)

        def body():
            handles = yield from driver.submit_split(
                IoOpcode.WRITE, 0, 5 * MiB, buf)
            for h in handles:
                yield h.done
            return handles

        handles = sim.run_process(body(), until=sim.now + DEADLINE_NS)
        mdts = driver.device.config.profile.mdts_bytes
        assert len(handles) == -(-5 * MiB // mdts)
