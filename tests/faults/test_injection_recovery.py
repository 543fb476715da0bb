"""End-to-end fault injection + recovery across the NVMe/PCIe/Eth stack."""

import pytest

from repro.core import StreamerVariant, build_snacc_system
from repro.core.bench import SnaccPerf
from repro.errors import PCIeError, RetryExhaustedError, StreamerError
from repro.faults import FaultConfig, FaultPlan
from repro.net import EthernetFrame, EthernetMac
from repro.sim import Simulator
from repro.sim.stats import FaultStats
from repro.systems import HostSystemConfig, build_host_system
from repro.units import KiB, MiB

#: simulated-time bound for every run below.  A recovery path that stops
#: making progress while a poller or timer keeps the queue busy would
#: otherwise spin forever; bounded, it fails with SimulationError.  The
#: longest run here ends near 9 ms.
DEADLINE_NS = 100_000_000


def snacc_with_faults(faults):
    sim = Simulator()
    system = build_snacc_system(
        sim, StreamerVariant.URAM,
        HostSystemConfig(functional=False, faults=faults))
    system.initialize()
    return sim, system


class TestDisabledIsInert:
    def test_zero_rate_config_attaches_nothing(self):
        _, system = snacc_with_faults(FaultConfig())
        assert system.host.fault_plan is None
        assert system.host.fault_stats is None
        assert system.streamer._fault_plan is None

    def test_none_config_attaches_nothing(self):
        _, system = snacc_with_faults(None)
        assert system.host.fault_plan is None


class TestStreamerRecovery:
    def test_injected_failures_are_retried_to_success(self):
        sim, system = snacc_with_faults(FaultConfig(nvme_cmd_fail_rate=0.05))
        perf = SnaccPerf(sim, system.user)
        res = sim.run_process(perf.rand_read(1 * MiB),
                              until=sim.now + DEADLINE_NS)
        stats = system.host.fault_stats
        assert res.total_bytes == 1 * MiB
        assert stats.nvme_failures_injected > 0
        assert stats.retries >= stats.nvme_failures_injected
        assert stats.retry_exhausted == 0

    def test_counters_reproducible_across_runs(self):
        cfg = FaultConfig(nvme_cmd_fail_rate=0.05, nvme_cqe_delay_rate=0.02,
                          pcie_tlp_loss_rate=0.005,
                          pcie_tlp_corrupt_rate=0.005)
        results = []
        for _ in range(2):
            sim, system = snacc_with_faults(cfg)
            perf = SnaccPerf(sim, system.user)
            res = sim.run_process(perf.rand_read(1 * MiB),
                                  until=sim.now + DEADLINE_NS)
            results.append((res.gbps, system.host.fault_stats.as_dict()))
        assert results[0] == results[1]

    def test_exhausted_retry_budget_surfaces_typed_error(self):
        """Every attempt fails -> bounded retries -> error, never a hang."""
        sim, system = snacc_with_faults(
            FaultConfig(nvme_cmd_fail_rate=1.0, retry_limit=2))

        def body():
            got = yield from system.user.read(0, 4 * KiB, functional=False)
            return got

        with pytest.raises(StreamerError, match="0x281"):
            sim.run_process(body(), until=sim.now + DEADLINE_NS)
        stats = system.host.fault_stats
        assert stats.retry_exhausted == 1
        assert stats.retries == 2

    def test_cqe_delay_past_timeout_is_recovered_or_aborted(self):
        """Delays beyond the command timeout wake the watchdog."""
        sim, system = snacc_with_faults(FaultConfig(
            nvme_cqe_delay_rate=1.0, nvme_cqe_delay_ns=500_000,
            command_timeout_ns=100_000, retry_limit=1))

        def body():
            yield from system.user.read(0, 4 * KiB, functional=False)

        with pytest.raises(StreamerError):  # COMMAND_ABORTED surfaced
            sim.run_process(body(), until=sim.now + DEADLINE_NS)
        assert system.host.fault_stats.timeouts >= 2


class TestSpdkRecovery:
    def test_retried_to_success(self, sim):
        system = build_host_system(
            sim, HostSystemConfig(functional=False,
                                  faults=FaultConfig(nvme_cmd_fail_rate=0.2)))
        drv = system.spdk_driver()
        sim.run_process(drv.initialize(), until=sim.now + DEADLINE_NS)
        buf = drv.alloc_buffer(64 * KiB)

        def body():
            from repro.nvme import IoOpcode
            for i in range(32):
                yield from drv.io_and_wait(IoOpcode.READ, i * 16, 64 * KiB,
                                           buf)

        # no raise: every failure was absorbed
        sim.run_process(body(), until=sim.now + DEADLINE_NS)
        assert system.fault_stats.nvme_failures_injected > 0
        assert system.fault_stats.retries > 0
        assert system.fault_stats.retry_exhausted == 0

    def test_exhaustion_raises_retry_exhausted_error(self, sim):
        system = build_host_system(
            sim, HostSystemConfig(
                functional=False,
                faults=FaultConfig(nvme_cmd_fail_rate=1.0, retry_limit=2)))
        drv = system.spdk_driver()
        sim.run_process(drv.initialize(), until=sim.now + DEADLINE_NS)
        buf = drv.alloc_buffer(4 * KiB)

        def body():
            from repro.nvme import IoOpcode
            yield from drv.io_and_wait(IoOpcode.READ, 0, 4 * KiB, buf)

        with pytest.raises(RetryExhaustedError):
            sim.run_process(body(), until=sim.now + DEADLINE_NS)
        assert system.fault_stats.retry_exhausted == 1

    def test_cqe_delay_past_timeout_is_recovered_or_aborted(self, sim):
        """Delays beyond the command timeout wake the poll loop's scan."""
        cfg = FaultConfig(nvme_cqe_delay_rate=1.0, nvme_cqe_delay_ns=500_000,
                          command_timeout_ns=100_000, retry_limit=1)
        system = build_host_system(
            sim, HostSystemConfig(functional=False, faults=cfg))
        drv = system.spdk_driver()
        sim.run_process(drv.initialize(), until=sim.now + DEADLINE_NS)
        buf = drv.alloc_buffer(4 * KiB)
        submitted = sim.now

        def body():
            from repro.nvme import IoOpcode
            yield from drv.io_and_wait(IoOpcode.READ, 0, 4 * KiB, buf)

        with pytest.raises(RetryExhaustedError,
                           match="timed out after 1 retries"):
            sim.run_process(body(), until=sim.now + DEADLINE_NS)
        stats = system.fault_stats
        assert stats.timeouts == 2
        assert stats.retries == 1
        assert stats.retry_exhausted == 1
        # both attempts lived out their whole deadline, plus the backoff
        assert sim.now - submitted >= (2 * cfg.command_timeout_ns
                                       + cfg.backoff_ns(1))


class TestPcieReplay:
    def test_replay_budget_exceeded_raises(self, sim):
        """A link that loses every TLP exhausts its replay budget."""
        system = build_host_system(
            sim, HostSystemConfig(functional=False,
                                  faults=FaultConfig(pcie_tlp_loss_rate=1.0)))
        drv = system.spdk_driver()
        with pytest.raises(PCIeError):
            sim.run_process(drv.initialize(), until=sim.now + DEADLINE_NS)
        assert system.fault_stats.pcie_tlp_dropped > 0

    def test_occasional_loss_is_replayed_transparently(self, sim):
        system = build_host_system(
            sim, HostSystemConfig(
                functional=False,
                faults=FaultConfig(pcie_tlp_loss_rate=0.01,
                                   pcie_tlp_corrupt_rate=0.01)))
        drv = system.spdk_driver()
        sim.run_process(drv.initialize(), until=sim.now + DEADLINE_NS)
        buf = drv.alloc_buffer(256 * KiB)

        def body():
            from repro.nvme import IoOpcode
            for i in range(8):
                yield from drv.io_and_wait(IoOpcode.READ, i * 64, 256 * KiB,
                                           buf)

        sim.run_process(body(), until=sim.now + DEADLINE_NS)
        assert system.fault_stats.pcie_replays > 0


class TestEthernetDrops:
    def test_data_drops_are_counted(self, sim):
        a = EthernetMac(sim, name="a")
        b = EthernetMac(sim, name="b")
        a.connect(b)
        plan = FaultPlan(FaultConfig(eth_data_drop_rate=1.0))
        stats = FaultStats()
        a.attach_faults(plan, stats)

        def sender():
            for _ in range(5):
                yield from a.send(EthernetFrame(payload_bytes=1024))

        sim.run_process(sender(), until=sim.now + DEADLINE_NS)
        sim.run()
        assert b.rx_frames == 0
        assert stats.eth_data_dropped == 5
        assert a.tx_frames == 5  # sender is unaware, as on a real wire
