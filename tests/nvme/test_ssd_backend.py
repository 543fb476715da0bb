"""SSD backend unit behaviour: phases, channels, service distribution."""

import pytest

from repro.errors import ConfigError
from repro.nvme import SAMSUNG_990_PRO_LIKE, SsdBackend, SsdPerfProfile
from repro.units import GiB, MiB, PAGE, ns_for_bytes


@pytest.fixture
def backend(sim):
    return SsdBackend(sim, SAMSUNG_990_PRO_LIKE)


class TestWritePhases:
    def test_starts_in_fast_phase(self, backend):
        assert backend.write_phase == 0
        assert backend.current_write_gbps == \
            SAMSUNG_990_PRO_LIKE.write_phase_a_gbps

    def test_phase_toggles_by_programmed_volume(self, sim, backend):
        period = backend.profile.write_phase_period_bytes
        backend.program(period // PAGE, 0, lambda _arg: None)
        sim.run()
        assert backend.write_phase == 1
        backend.program(period // PAGE, 0, lambda _arg: None)
        sim.run()
        assert backend.write_phase == 0

    def test_advance_skips_to_next_phase(self, backend):
        backend.advance_write_phase()
        assert backend.write_phase == 1
        backend.advance_write_phase()
        assert backend.write_phase == 0

    def test_program_rate_matches_phase(self, sim, backend):
        done = []
        backend.program((64 * MiB) // PAGE, 0, done.append, "programmed")
        sim.run()
        assert done == ["programmed"]
        achieved = 64 * MiB / sim.now
        assert achieved == pytest.approx(
            SAMSUNG_990_PRO_LIKE.write_phase_a_gbps, rel=0.01)

    def test_program_serves_requests_in_arrival_order(self, sim, backend):
        """One request at a time: each starts when the previous one ends,
        at the rate of the phase current at its start."""
        per_page = ns_for_bytes(PAGE, backend.current_write_gbps)
        finished = []
        for name, npages, extra_ns in (("a", 2, 100), ("b", 1, 0),
                                       ("c", 3, 7)):
            backend.program(npages, extra_ns,
                            lambda arg: finished.append((arg, sim.now)),
                            name)
        sim.run()
        assert finished == [("a", 2 * per_page + 100),
                            ("b", 3 * per_page + 100),
                            ("c", 6 * per_page + 107)]
        assert backend.programmed_bytes == 6 * PAGE


class TestReadPaths:
    def test_stream_rate(self, sim, backend):
        def body():
            yield from backend.read_stream(64 * MiB)

        sim.run_process(body())
        assert 64 * MiB / sim.now == pytest.approx(
            SAMSUNG_990_PRO_LIKE.seq_read_gbps, rel=0.01)

    def test_channel_striping(self, backend):
        ch = backend.profile.n_channels
        assert backend.channel_of(0) == 0
        assert backend.channel_of(ch) == 0
        assert backend.channel_of(ch + 1) == 1

    def test_random_service_mean_preserved(self, sim, backend):
        """The two-point distribution keeps the configured mean."""
        n = 600
        times = []
        rng_pages = range(0, n * backend.profile.n_channels,
                          backend.profile.n_channels + 1)  # never striped-seq

        def reader(page):
            t0 = sim.now
            yield from backend.read_page_random(page)
            times.append(sim.now - t0)

        def body():
            for page in list(rng_pages)[:n]:
                yield from reader(page)

        sim.run_process(body())
        mean = sum(times) / len(times)
        assert mean == pytest.approx(backend.profile.page_read_rand_ns,
                                     rel=0.15)

    def test_striped_continuation_is_fast(self, sim, backend):
        """Sequential stripe hits are served at the streaming rate."""
        ch = backend.profile.n_channels

        def body():
            yield from backend.read_page_random(0)
            t0 = sim.now
            yield from backend.read_page_random(ch)  # continuation on ch 0
            return sim.now - t0

        dt = sim.run_process(body())
        assert dt == ns_for_bytes(PAGE * ch,
                                  backend.profile.seq_read_gbps)


class TestValidation:
    def test_bad_profiles_rejected(self):
        with pytest.raises(ConfigError):
            SsdPerfProfile(n_channels=0).validate()
        with pytest.raises(ConfigError):
            SsdPerfProfile(seq_read_gbps=0).validate()
        with pytest.raises(ConfigError):
            SsdPerfProfile(mdts_bytes=1000).validate()
        with pytest.raises(ConfigError):
            SsdPerfProfile(rand_read_slow_frac=0.5,
                           rand_read_slow_mult=3.0).validate()

    def test_zero_page_ops_rejected(self, sim, backend):
        with pytest.raises(ConfigError):
            backend.program(0, 0, lambda _arg: None)
        with pytest.raises(ConfigError):
            sim.run_process(backend.read_stream(0))
