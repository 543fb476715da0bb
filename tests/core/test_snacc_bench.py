"""The SnaccPerf workload engine itself."""

import pytest

from repro.core import StreamerVariant, build_snacc_system
from repro.core.bench import SnaccPerf
from repro.errors import ConfigError
from repro.sim import Simulator
from repro.spdk.bench import IoRunResult
from repro.systems import HostSystemConfig
from repro.units import KiB, MiB


@pytest.fixture
def perf(sim):
    system = build_snacc_system(sim, StreamerVariant.URAM,
                                HostSystemConfig(functional=False))
    system.initialize()
    return SnaccPerf(sim, system.user)


class TestSnaccPerf:
    def test_seq_read_accounts_bytes(self, sim, perf):
        run = sim.run_process(perf.seq_read(8 * MiB))
        assert run.total_bytes == 8 * MiB
        assert run.gbps > 1.0

    def test_rand_ops_complete_all(self, sim, perf):
        run = sim.run_process(perf.rand_read(1 * MiB))
        assert run.total_bytes == 1 * MiB
        run = sim.run_process(perf.rand_write(1 * MiB))
        assert run.total_bytes == 1 * MiB

    def test_latency_probes_return_samples(self, sim, perf):
        rl = sim.run_process(perf.read_latency(samples=5))
        wl = sim.run_process(perf.write_latency(samples=5))
        assert len(rl) == 5 and len(wl) == 5
        assert all(v > 0 for v in rl + wl)

    def test_misaligned_total_rejected(self, sim, perf):
        with pytest.raises(ConfigError):
            sim.run_process(perf.rand_read(4 * KiB + 1))

    def test_result_requires_latencies_for_mean(self):
        r = IoRunResult(10, 10, [])
        with pytest.raises(ConfigError):
            _ = r.mean_latency_us
        r2 = IoRunResult(10, 10, [2000])
        assert r2.mean_latency_us == pytest.approx(2.0)
