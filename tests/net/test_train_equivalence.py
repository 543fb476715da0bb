"""Train-vs-per-frame exact equivalence: the DESIGN.md §11 contract.

Seeded property sweeps assert that every observable stat of the
frame-train fast path is **exactly** what the per-frame reference path
produces — never approximately.  Two layers:

* MAC-level: randomized burst schedules against a slow/fast receiver,
  sweeping payload mix (odd tails included), RX FIFO size (and with it
  the PAUSE watermark), receiver consumption rate (forcing XOFF-driven
  mid-burst splits), a competing sender (forcing contention splits), and
  attached fault plans across ``rate_scale`` values (a full fast-path
  disqualifier).
* Fleet-level: end-to-end ``run_fleet``/``run_incast`` across object
  size ranges, Zipf skews, and switch buffer sizes (the fleet's PAUSE
  watermark), comparing the entire :class:`FleetResult` exactly.

Any assertion here failing means the fast path changed an observable —
the one thing it is contractually forbidden to do.
"""

import json

import pytest

from repro.faults import FaultConfig, FaultPlan
from repro.fleet import (FleetConfig, FleetWorkload, build_fleet,
                         generate_requests, run_fleet, run_incast)
from repro.net import EthernetFrame, EthernetMac
from repro.sim import Simulator
from repro.sim.stats import FaultStats
from repro.units import KiB

MODES = ("train", "per_frame")


def _run_mac_case(coarsening, bursts, *, rx_fifo_bytes=64 * KiB,
                  consume_gap_ns=0, contender=None, fault_rate=0.0,
                  rate_scale=1.0):
    """One seeded MAC scenario; returns every observable as a dict.

    *bursts* is ``[(gap_ns, [payload, ...]), ...]``; the sender sleeps
    the gap then ships the burst (as one ``send_train`` in train mode,
    as per-frame ``send`` calls otherwise).  *contender* is an optional
    ``(start_ns, [payload, ...])`` second process on the same MAC — the
    contention disqualifier.  A non-zero *fault_rate* attaches a seeded
    fault plan (scaled by *rate_scale*), which disqualifies the fast
    path entirely; equality must then be trivial but is still asserted.
    """
    sim = Simulator()
    a = EthernetMac(sim, name="a", coarsening=coarsening,
                    rx_fifo_bytes=rx_fifo_bytes)
    b = EthernetMac(sim, name="b", coarsening=coarsening,
                    rx_fifo_bytes=rx_fifo_bytes)
    a.connect(b)
    stats = FaultStats()
    if fault_rate > 0:
        plan = FaultPlan(FaultConfig(eth_data_drop_rate=fault_rate))
        plan.rate_scale = rate_scale
        a.attach_faults(plan, stats)

    total = sum(len(sizes) for _, sizes in bursts)
    if contender is not None:
        total += len(contender[1])
    deliveries = []

    def ship(frames):
        if coarsening == "train":
            yield from a.send_train(frames)
        else:
            for frame in frames:
                yield from a.send(frame)

    def sender():
        for gap_ns, sizes in bursts:
            if gap_ns:
                yield sim.timeout(gap_ns)
            yield from ship([EthernetFrame(payload_bytes=s) for s in sizes])

    def compete():
        start_ns, sizes = contender
        yield sim.timeout(start_ns)
        yield from ship([EthernetFrame(payload_bytes=s) for s in sizes])

    def receiver():
        while True:
            frame = yield from b.recv()
            deliveries.append((sim.now, frame.payload_bytes))
            if consume_gap_ns:
                yield sim.timeout(consume_gap_ns)

    _ = sim.process(sender())
    if contender is not None:
        _ = sim.process(compete())
    _ = sim.process(receiver())
    sim.run()
    return {
        "deliveries": deliveries,
        "now": sim.now,
        "a_tx_frames": a.tx_frames,
        "a_tx_pause_ns": a.tx_pause_ns,
        "a_dropped": a.dropped_frames,
        "b_rx_frames": b.rx_frames,
        "b_dropped": b.dropped_frames,
        "b_pause_sent": b.pause_frames_sent,
        "delivered": len(deliveries),
        "expected": total,
        "faults_dropped": stats.eth_data_dropped,
    }


def _assert_modes_equal(case_kwargs, bursts):
    got = {mode: _run_mac_case(mode, bursts, **case_kwargs)
           for mode in MODES}
    assert got["train"] == got["per_frame"], (
        f"train diverged from per_frame for {case_kwargs}")
    return got["train"]


class TestMacTrainEquivalence:
    def test_uncontended_uniform_bursts(self):
        # the pure fast path: big headroom, instant consumer
        stats = _assert_modes_equal(
            dict(rx_fifo_bytes=256 * KiB),
            [(0, [8192] * 8), (3000, [8192] * 16), (0, [8192] * 3)])
        assert stats["delivered"] == 27
        assert stats["b_pause_sent"] == 0

    def test_odd_tail_carried(self):
        # 64 KiB chunks at 8192 payload leave a 616-byte remainder: the
        # tail-carrying train must match the per-frame tail send exactly
        _assert_modes_equal(
            dict(rx_fifo_bytes=256 * KiB),
            [(0, [8192] * 8 + [616]), (2000, [8192] + [616]),
             (1000, [4096] * 5 + [100])])

    def test_watermark_split_slow_consumer(self):
        # small FIFO + slow consumer: XOFF fires mid-run, trains must
        # split and re-fill with identical PAUSE traffic and timing
        stats = _assert_modes_equal(
            dict(rx_fifo_bytes=32 * KiB, consume_gap_ns=4000),
            [(0, [8192] * 24), (500, [2048] * 40)])
        assert stats["b_pause_sent"] > 0, "case never tripped the watermark"
        assert stats["a_tx_pause_ns"] > 0
        # overruns before the XOFF lands are legitimate 802.3x losses at
        # this FIFO size; conservation (not losslessness) is the invariant
        assert stats["delivered"] == stats["expected"] - stats["b_dropped"]

    def test_contention_split(self):
        # a competing sender lands mid-train: the contention callback
        # must split the train at the exact frame boundary the per-frame
        # path would interleave at
        stats = _assert_modes_equal(
            dict(rx_fifo_bytes=256 * KiB,
                 contender=(9000, [1024] * 6)),
            [(0, [8192] * 20)])
        assert stats["delivered"] == 26

    def test_fault_plan_disqualifies(self):
        # attached fault sites force the reference path in both modes;
        # sweep rate_scale to move the seeded drop positions around
        for rate_scale in (0.0, 1.0, 3.0):
            stats = _assert_modes_equal(
                dict(rx_fifo_bytes=256 * KiB, fault_rate=0.05,
                     rate_scale=rate_scale),
                [(0, [8192] * 12), (2000, [8192] * 12 + [616])])
            if rate_scale == 0.0:
                assert stats["faults_dropped"] == 0
            assert (stats["delivered"]
                    == stats["expected"] - stats["faults_dropped"])

    def test_seeded_random_sweep(self):
        # property sweep: random burst schedules x FIFO sizes x consumer
        # speeds, all compared exactly
        import numpy as np
        rng = np.random.default_rng(0x7EA1)
        for case in range(6):
            fifo = int(rng.choice([16, 64, 256])) * KiB
            gap = int(rng.choice([0, 800, 6000]))
            bursts = []
            for _ in range(int(rng.integers(1, 4))):
                payload = int(rng.choice([1024, 4096, 8192]))
                n = int(rng.integers(1, 24))
                sizes = [payload] * n
                if rng.random() < 0.5:
                    sizes.append(int(rng.integers(64, payload)))
                bursts.append((int(rng.integers(0, 8000)), sizes))
            stats = _assert_modes_equal(
                dict(rx_fifo_bytes=fifo, consume_gap_ns=gap), bursts)
            assert (stats["delivered"]
                    == stats["expected"] - stats["b_dropped"])


def _canon(result):
    return json.dumps(result.as_dict(), sort_keys=True, default=str)


class TestFleetTrainEquivalence:
    @pytest.mark.parametrize("zipf_skew,size_range,buffer_kib", [
        (0.6, (16 * KiB, 256 * KiB), 256),   # mild skew, default buffer
        (1.3, (4 * KiB, 1024 * KiB), 256),   # hot head, big objects
        (0.9, (16 * KiB, 512 * KiB), 64),    # tight PAUSE watermark
    ])
    def test_fleet_get_sweep(self, zipf_skew, size_range, buffer_kib):
        workload = FleetWorkload(
            n_objects=96, n_requests=120, zipf_skew=zipf_skew,
            min_object_bytes=size_range[0], max_object_bytes=size_range[1],
            mean_interarrival_ns=3000, seed=0xFEED)
        results = {
            mode: run_fleet(FleetConfig(
                n_nodes=2, switch_buffer_bytes=buffer_kib * KiB,
                coarsening=mode), workload)
            for mode in MODES}
        assert _canon(results["train"]) == _canon(results["per_frame"])
        assert results["train"].completed == 120
        assert results["train"].dropped_frames == 0

    def test_incast_sweep(self):
        # incast floods both switch tiers with PAUSE: the harshest
        # split-pressure the fleet can generate
        results = {
            mode: run_incast(FleetConfig(n_nodes=1, n_gateways=3,
                                         coarsening=mode),
                             put_bytes=512 * KiB)
            for mode in MODES}
        assert _canon(results["train"]) == _canon(results["per_frame"])
        assert results["train"].spine_pause_frames > 0

    @pytest.mark.parametrize("put_at_ns,spine_fuses", [
        (38540, 0),   # leaf0's funnel toward n0 fuses
        (97123, 1),   # the spine's relay toward leaf0 fuses too, and a
                      # frame queues behind it before the port comes back
    ])
    def test_mixed_get_put_fuse_stays_exact(self, put_at_ns, spine_fuses):
        # A PUT to n0 starts while GET requests toward n0 are scheduled
        # but still in flight on the arithmetic fast paths.  n0 vetoes
        # PUT data, so those paths die with virtual state outstanding (a
        # fuse) and the egress chain reclaims each port only once the
        # scheduled frames are out.
        workload = FleetWorkload(n_objects=64, n_requests=120,
                                 mean_interarrival_ns=1500, seed=7)
        results, fuses = {}, {}
        for mode in MODES:
            sim = Simulator()
            fleet = build_fleet(sim, FleetConfig(n_nodes=2, coarsening=mode))
            fleet.start()
            requests = generate_requests(workload)
            fleet.meter.mark_start(requests[0].issue_ns)
            gateways = fleet.gateways
            for g, gateway in enumerate(gateways):
                gateway.start(requests[g::len(gateways)])

            def put(sim=sim, gateway=gateways[0], stream=len(requests)):
                yield sim.timeout(put_at_ns)
                yield from gateway.put("n0", stream, 16 * KiB)

            _ = sim.process(put())
            sim.run()
            results[mode] = fleet.result(offered=len(requests) + 1)
            fuses[mode] = [sw.funnel_fuses
                           for sw in [fleet.spine] + fleet.leaves]
        assert fuses == {"train": [spine_fuses, 1], "per_frame": [0, 0]}
        assert _canon(results["train"]) == _canon(results["per_frame"])
        assert results["train"].completed == 121
