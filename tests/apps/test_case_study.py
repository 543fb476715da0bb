"""Case-study pipelines: functional end-to-end and performance shape."""

import numpy as np
import pytest

from repro.apps import (CaseStudyConfig, DatabaseReader, ImageFactory,
                        ImageSpec, RecordHeader, downscale, run_case_study)
from repro.apps.case_study import build_snacc_pipeline
from repro.bench.experiments.fig6_fig7 import case_study_point
from repro.core import StreamerVariant
from repro.errors import ConfigError
from repro.sim import Simulator

#: simulated-time bound for the functional runs: ``until_done`` polls on
#: a timer, so a pipeline that never finishes would spin forever instead
#: of failing.  The pipeline run ends 6.4 ms after it starts.
DEADLINE_NS = 100_000_000


class TestFunctionalPipeline:
    @pytest.fixture(scope="class")
    def stored(self):
        """Run the full functional pipeline once; keep all handles."""
        config = CaseStudyConfig(n_images=3, functional=True,
                                 warmup_images=0)
        sim = Simulator()
        pipe = build_snacc_pipeline(sim, config, StreamerVariant.URAM)
        pipe.system.platform.start_all()
        pipe.front.start()

        def until_done():
            while (pipe.db.records_written < config.n_images
                   or pipe.db.responses_pending > 0):
                yield sim.timeout(100_000)

        sim.run_process(until_done(), until=sim.now + DEADLINE_NS)
        return sim, config, pipe

    def test_all_records_written(self, stored):
        _sim, config, pipe = stored
        assert pipe.db.records_written == config.n_images
        assert pipe.scaler.images_scaled == config.n_images
        assert pipe.classifier.images_classified == config.n_images

    def test_headers_carry_correct_labels(self, stored):
        """The classifications stored in the DB match the ground truth."""
        _sim, config, pipe = stored
        ns = pipe.system.host.ssd.namespace
        for image_id in range(config.n_images):
            addr = pipe.layout.header_addr(image_id)
            header = RecordHeader.unpack(
                ns.read_blocks(addr // 512, 8))
            assert header.image_id == image_id
            assert header.klass == image_id % config.n_classes
            assert header.confidence > 0.5

    def test_stored_pixels_match_source(self, stored):
        """The image bodies on 'disk' are byte-identical to the stream."""
        _sim, config, pipe = stored
        ns = pipe.system.host.ssd.namespace
        factory = ImageFactory(config.spec, config.n_classes)
        for image_id in range(config.n_images):
            want, _k = factory.make_bytes(image_id)
            addr = pipe.layout.body_addr(image_id)
            got = ns.read_blocks(addr // 512, config.spec.nbytes // 512)
            assert np.array_equal(got, want)

    def test_records_readable_through_user_port(self, stored):
        """DatabaseReader round-trips a record via the SNAcc read path."""
        sim, config, pipe = stored
        reader = DatabaseReader(pipe.system.user, pipe.layout)

        def body():
            header, body_bytes = yield from reader.read_record(1)
            return header, body_bytes

        header, body = sim.run_process(body(), until=sim.now + DEADLINE_NS)
        assert header.image_id == 1
        factory = ImageFactory(config.spec, config.n_classes)
        want, _ = factory.make_bytes(1)
        assert np.array_equal(body, want)


class TestPerformanceShape:
    @pytest.fixture(scope="class")
    def results(self):
        config = CaseStudyConfig(n_images=24, warmup_images=4)
        return {impl: run_case_study(impl, config)
                for impl in ("snacc-uram", "snacc-host_dram", "spdk", "gpu")}

    def test_host_and_spdk_are_fastest(self, results):
        top = {"snacc-host_dram", "spdk"}
        ranked = sorted(results, key=lambda k: results[k].gbps, reverse=True)
        assert set(ranked[:2]) == top

    def test_bandwidths_in_paper_bands(self, results):
        assert 5.8 <= results["snacc-host_dram"].gbps <= 6.6
        assert 5.8 <= results["spdk"].gbps <= 6.6
        assert 5.0 <= results["snacc-uram"].gbps <= 5.7
        assert 5.3 <= results["gpu"].gbps <= 6.1

    def test_cpu_load_split(self, results):
        """SNAcc leaves the CPU idle; the references burn a thread (§6.3)."""
        assert results["snacc-uram"].cpu_utilization < 0.01
        assert results["snacc-host_dram"].cpu_utilization < 0.01
        assert results["spdk"].cpu_utilization > 0.99
        assert results["gpu"].cpu_utilization > 0.99

    def test_pcie_traffic_ordering(self, results):
        """Fig 7: URAM fewest transfers, GPU most."""
        assert results["snacc-uram"].pcie_total_bytes \
            < results["snacc-host_dram"].pcie_total_bytes
        assert results["snacc-host_dram"].pcie_total_bytes \
            <= results["spdk"].pcie_total_bytes * 1.02
        assert results["gpu"].pcie_total_bytes \
            > results["spdk"].pcie_total_bytes

    def test_fps_consistent_with_bandwidth(self, results):
        for r in results.values():
            approx_fps = r.gbps * 1e9 / ImageSpec().nbytes
            assert r.fps == pytest.approx(approx_fps, rel=0.05)


class TestLongGpuRun:
    def test_gpu_stream_past_one_pause_completes(self):
        """At 31+ images the GPU host's consumer stays above the low
        watermark for longer than one pause; before XOFF refresh the
        sender resumed into a full FIFO, frames died and the run hung."""
        assert case_study_point("gpu", 32, 6).images == 26


class TestConfigValidation:
    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigError):
            CaseStudyConfig(n_images=0).validate()
        with pytest.raises(ConfigError):
            CaseStudyConfig(n_images=4, warmup_images=4).validate()
        with pytest.raises(ConfigError):
            CaseStudyConfig(frame_payload=7777).validate()

    def test_unknown_implementation_rejected(self):
        with pytest.raises(ConfigError):
            run_case_study("vaporware", CaseStudyConfig(n_images=1,
                                                        warmup_images=0))
