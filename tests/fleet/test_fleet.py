"""End-to-end fleet runs: determinism, conservation, incast PAUSE."""

import pytest

from repro.errors import ConfigError
from repro.fleet import (FleetConfig, FleetWorkload, build_fleet,
                         generate_requests, run_fleet, run_incast)
from repro.sim import Simulator
from repro.units import KiB, MiB

SMALL = FleetWorkload(n_objects=64, n_requests=80,
                      mean_interarrival_ns=4000)


class TestFleetConfig:
    def test_default_gateways_track_nodes(self):
        assert FleetConfig(n_nodes=1).gateways == 2
        assert FleetConfig(n_nodes=8).gateways == 8
        assert FleetConfig(n_nodes=8, n_gateways=3).gateways == 3

    @pytest.mark.parametrize("kwargs", [
        dict(n_nodes=0),
        dict(nodes_per_leaf=0),
        dict(n_gateways=-1),
        dict(link_gbps=0.0),
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FleetConfig(**kwargs)


class TestRunFleet:
    def test_all_streams_complete_without_loss(self):
        result = run_fleet(FleetConfig(n_nodes=2), SMALL)
        assert result.completed == result.offered == 80
        assert result.dropped_frames == 0
        assert result.total_bytes > 0 and result.agg_gbps > 0
        assert 0 < result.p50_us <= result.p99_us <= result.p999_us

    def test_frame_conservation(self):
        result = run_fleet(FleetConfig(n_nodes=2), SMALL)
        assert result.frames_in == \
            result.frames_out + result.frames_in_flight
        assert result.frames_in_flight == 0  # quiescent at sim end

    def test_same_seed_identical_result(self):
        a = run_fleet(FleetConfig(n_nodes=2), SMALL)
        b = run_fleet(FleetConfig(n_nodes=2), SMALL)
        assert a.as_dict() == b.as_dict()

    def test_seed_changes_result(self):
        other = FleetWorkload(n_objects=64, n_requests=80,
                              mean_interarrival_ns=4000, seed=99)
        a = run_fleet(FleetConfig(n_nodes=2), SMALL)
        b = run_fleet(FleetConfig(n_nodes=2), other)
        assert a.as_dict() != b.as_dict()

    def test_every_request_lands_on_some_node(self):
        result = run_fleet(FleetConfig(n_nodes=4), SMALL)
        assert sum(result.per_node_requests.values()) == 80

    def test_multi_leaf_topology_serves(self):
        config = FleetConfig(n_nodes=4, nodes_per_leaf=2)
        result = run_fleet(config, SMALL)
        assert result.completed == 80
        assert result.dropped_frames == 0


class TestRunIncast:
    def test_pause_propagates_across_both_tiers(self):
        """3-to-1 incast: victim backpressure must reach the far senders
        through leaf AND spine, with zero loss anywhere."""
        config = FleetConfig(n_nodes=1, n_gateways=3)
        result = run_incast(config, put_bytes=1 * MiB)
        assert result.completed == result.offered == 3
        assert result.dropped_frames == 0
        assert result.leaf_pause_frames > 0
        assert result.spine_pause_frames > 0
        assert result.far_sender_pause_ns > 0
        assert result.frames_in == \
            result.frames_out + result.frames_in_flight

    def test_incast_deterministic(self):
        config = FleetConfig(n_nodes=1, n_gateways=3)
        a = run_incast(config, put_bytes=256 * KiB)
        b = run_incast(config, put_bytes=256 * KiB)
        assert a.as_dict() == b.as_dict()

    def test_invalid_put_bytes_rejected(self):
        with pytest.raises(ConfigError):
            run_incast(FleetConfig(n_nodes=1), put_bytes=0)


class TestTrainKernelCost:
    """Exact kernel cost of the frame-train fast path (DESIGN.md §11).

    ``sim.quiesce().events`` counts every event the kernel scheduled, so
    a ``net/`` refactor that adds or drops a single event on the train
    path fails here, even when every result row stays the same.  Each
    cell also checks that the path it pins is the one that ran: uplink
    relays and gateway funnels engaged, and no fuse.
    """

    @staticmethod
    def _run(config, drive):
        sim = Simulator()
        fleet = build_fleet(sim, config)
        fleet.start()
        drive(sim, fleet)
        sim.run()
        switches = [fleet.spine] + fleet.leaves
        assert [sw.funnel_fuses for sw in switches] == [0] * len(switches)
        return sim.quiesce().events, fleet

    def test_get_cell(self):
        def drive(sim, fleet):
            requests = generate_requests(SMALL)
            fleet.meter.mark_start(requests[0].issue_ns)
            gateways = fleet.gateways
            for g, gateway in enumerate(gateways):
                gateway.start(requests[g::len(gateways)])

        events, fleet = self._run(
            FleetConfig(n_nodes=4, nodes_per_leaf=2), drive)
        assert all(any(r is not None for r in leaf._relays)
                   for leaf in fleet.leaves)
        assert any(f is not None for f in fleet.spine._funnels)
        assert fleet.result(offered=80).completed == 80
        assert events == 1977

    def test_incast_cell(self):
        def drive(sim, fleet):
            fleet.meter.mark_start(0)
            for stream, gateway in enumerate(fleet.gateways):
                gateway.start_collector()
                _ = sim.process(gateway.put("n0", stream, 512 * KiB))

        events, fleet = self._run(FleetConfig(n_nodes=1, n_gateways=3), drive)
        result = fleet.result(offered=3)
        assert result.completed == 3 and result.spine_pause_frames > 0
        assert events == 2130
