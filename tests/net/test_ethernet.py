"""Ethernet: frames, MAC flow control, switch pause propagation, sources."""

import numpy as np
import pytest

from repro.errors import ConfigError, EthernetError
from repro.net import (EthernetFrame, EthernetMac, EthernetSwitch,
                       FrameStreamSource, pause_frame)
from repro.sim import Simulator
from repro.units import KiB, MiB, ns_for_bytes


def linked_pair(sim, **kw):
    a = EthernetMac(sim, name="a", **kw)
    b = EthernetMac(sim, name="b", **kw)
    a.connect(b)
    return a, b


class TestFrame:
    def test_wire_overhead(self):
        f = EthernetFrame(payload_bytes=8192)
        assert f.wire_bytes == 8192 + 38

    def test_min_frame_padding(self):
        assert EthernetFrame(payload_bytes=1).wire_bytes == 64 + 38

    def test_pause_frame(self):
        p = pause_frame(0xFFFF)
        assert p.is_pause and p.pause_quanta == 0xFFFF

    def test_oversize_rejected(self):
        with pytest.raises(EthernetError):
            EthernetFrame(payload_bytes=10_000)

    def test_data_length_checked(self):
        with pytest.raises(EthernetError):
            EthernetFrame(payload_bytes=10, data=np.zeros(5, dtype=np.uint8))


class TestMacBasics:
    def test_frame_delivery_with_data(self, sim, rng):
        a, b = linked_pair(sim)
        payload = rng.integers(0, 256, 1000, dtype=np.uint8)
        got = []

        def sender():
            yield from a.send(EthernetFrame(payload_bytes=1000, data=payload))

        def receiver():
            f = yield from b.recv()
            got.append(f)

        _ = sim.process(sender())
        _ = sim.process(receiver())
        sim.run()
        assert np.array_equal(got[0].data, payload)

    def test_line_rate_serialization(self, sim):
        a, b = linked_pair(sim, propagation_ns=0)
        n_frames = 100

        def sender():
            for _ in range(n_frames):
                yield from a.send(EthernetFrame(payload_bytes=8192))

        def receiver():
            for _ in range(n_frames):
                yield from b.recv()

        _ = sim.process(sender())
        done = sim.process(receiver())
        sim.run()
        wire = n_frames * (8192 + 38)
        assert sim.now >= ns_for_bytes(wire, 12.5)
        assert sim.now <= ns_for_bytes(wire, 12.5) * 1.02
        assert b.rx_frames == n_frames

    def test_unconnected_send_rejected(self, sim):
        a = EthernetMac(sim)

        def body():
            yield from a.send(EthernetFrame(payload_bytes=64))

        with pytest.raises(EthernetError):
            sim.run_process(body())

    def test_double_connect_rejected(self, sim):
        a, b = linked_pair(sim)
        with pytest.raises(EthernetError):
            a.connect(EthernetMac(sim))


class TestFlowControl:
    def test_no_loss_under_slow_consumer(self, sim):
        """The headline property: a stalled receiver loses nothing."""
        a, b = linked_pair(sim, rx_fifo_bytes=64 * KiB)
        n = 200
        received = []

        def sender():
            for i in range(n):
                yield from a.send(EthernetFrame(payload_bytes=8192,
                                                meta={"seq": i}))

        def slow_consumer():
            for _ in range(n):
                f = yield from b.recv()
                received.append(f.meta["seq"])
                yield sim.timeout(3000)  # much slower than line rate

        _ = sim.process(sender())
        _ = sim.process(slow_consumer())
        sim.run()
        assert received == list(range(n))
        assert b.dropped_frames == 0
        assert b.pause_frames_sent > 0
        assert a.tx_pause_ns > 0

    @pytest.mark.parametrize("coarsening", ["train", "per_frame"])
    @pytest.mark.parametrize("stall_pauses", [1, 2, 4, 8])
    def test_stall_longer_than_a_pause_loses_nothing(self, sim, coarsening,
                                                     stall_pauses):
        """An outstanding XOFF is refreshed before its quanta run out.

        Regression test: the receiver used to send one XOFF and nothing
        more until its XON, so a consumer stalled for longer than one
        pause had its sender resume into a full FIFO and drop frames.
        """
        a, b = linked_pair(sim, rx_fifo_bytes=64 * KiB, coarsening=coarsening)
        n = 200
        received = []

        def sender():
            yield from a.send_train([EthernetFrame(payload_bytes=8192,
                                                   meta={"seq": i})
                                     for i in range(n)])

        def stalled_consumer():
            yield sim.timeout(stall_pauses * b.pause_quanta_ns(0xFFFF))
            for _ in range(n):
                f = yield from b.recv()
                received.append(f.meta["seq"])
                yield sim.timeout(3000)

        _ = sim.process(sender())
        done = sim.process(stalled_consumer())
        sim.run_until(done)
        assert b.dropped_frames == 0
        assert received == list(range(n))

    def test_loss_without_flow_control(self, sim):
        """Ablation A7: same workload, flow control off -> drops."""
        a, b = linked_pair(sim, rx_fifo_bytes=64 * KiB, flow_control=False)
        n = 200

        def sender():
            for i in range(n):
                yield from a.send(EthernetFrame(payload_bytes=8192))

        def slow_consumer():
            while True:
                yield from b.recv()
                yield sim.timeout(3000)

        _ = sim.process(sender())
        _ = sim.process(slow_consumer())
        sim.run(until=10_000_000)
        assert b.dropped_frames > 0

    def test_started_frame_finishes_before_pause(self, sim):
        """Pause takes effect only at frame boundaries (store-and-forward)."""
        a, b = linked_pair(sim)
        a._on_frame(pause_frame(0xFFFF))  # XOFF arrives
        assert a.is_paused
        a._on_frame(pause_frame(0))
        assert not a.is_paused

    def test_throughput_matches_consumer_rate(self, sim):
        """Under backpressure the sender converges to the consumer's rate."""
        a, b = linked_pair(sim, rx_fifo_bytes=64 * KiB)
        n = 300
        per_frame_ns = 2000

        def sender():
            for _ in range(n):
                yield from a.send(EthernetFrame(payload_bytes=8192))

        def consumer():
            for _ in range(n):
                yield from b.recv()
                yield sim.timeout(per_frame_ns)

        _ = sim.process(sender())
        done = sim.process(consumer())
        # run_until, not run(): draining the heap would also play out any
        # still-armed 802.3x pause-expiry watchdog, inflating sim.now
        sim.run_until(done)
        # elapsed ~= n * consumer_period (within buffer slack)
        assert sim.now >= n * per_frame_ns
        assert sim.now <= n * per_frame_ns * 1.2

    def test_pause_expires_without_xon(self, sim):
        """802.3x: an XOFF is for quanta x 512 bit-times, not forever.

        Regression test for the lost-XON hang: the XON never arrives here
        (nothing is wired to send one), yet TX must resume once the
        advertised quanta elapse.
        """
        a, b = linked_pair(sim, propagation_ns=0)
        quanta = 1000
        a._on_frame(pause_frame(quanta))
        assert a.is_paused
        pause_ns = a.pause_quanta_ns(quanta)
        assert pause_ns == ns_for_bytes(quanta * 64, 12.5)

        def sender():
            yield from a.send(EthernetFrame(payload_bytes=512))

        done = sim.process(sender())
        sim.run_until(done)
        assert not a.is_paused
        assert a.tx_frames == 1
        assert a.tx_pause_ns >= pause_ns  # waited the full advertised pause
        assert sim.now <= pause_ns + ns_for_bytes(512 + 38, 12.5) + 1

    def test_xoff_refresh_extends_pause(self, sim):
        """A fresh XOFF pushes the expiry deadline forward."""
        a, _ = linked_pair(sim)
        a._on_frame(pause_frame(10))
        first_deadline = a._pause_until
        sim.run(until=a.pause_quanta_ns(5))
        a._on_frame(pause_frame(10))  # refresh halfway through
        assert a._pause_until > first_deadline
        assert a.is_paused
        sim.run()  # drain: the (single) watchdog expires the refreshed pause
        assert not a.is_paused

    def test_overrun_sends_xoff(self, sim):
        """An overrun drop must pause the sender even below the watermark.

        A single frame larger than the free FIFO space dies on arrival
        without ever reaching the high-watermark check, so the drop path
        itself has to raise XOFF.
        """
        a, b = linked_pair(sim, rx_fifo_bytes=4 * KiB)
        b._on_frame(EthernetFrame(payload_bytes=8192))
        assert b.dropped_frames == 1
        assert b.pause_frames_sent == 1  # the drop itself raised XOFF
        sim.run(until=2000)  # long enough for the XOFF, well short of expiry
        assert a.is_paused


class TestSwitch:
    def test_forwarding(self, sim, rng):
        src, sw_in = EthernetMac(sim, "src"), None
        sw = EthernetSwitch(sim)
        dst = EthernetMac(sim, "dst")
        src.connect(sw.port_a)
        sw.port_b.connect(dst)
        sw.start()
        payload = rng.integers(0, 256, 500, dtype=np.uint8)
        got = []

        def sender():
            yield from src.send(EthernetFrame(payload_bytes=500, data=payload))

        def receiver():
            f = yield from dst.recv()
            got.append(f)

        _ = sim.process(sender())
        _ = sim.process(receiver())
        sim.run()
        assert np.array_equal(got[0].data, payload)
        assert sw.forwarded_frames == 1

    def test_pause_propagates_through_switch(self, sim):
        """Paper: the switch pauses locally, then pushes pause upstream."""
        src = EthernetMac(sim, "src")
        sw = EthernetSwitch(sim, buffer_bytes=64 * KiB)
        dst = EthernetMac(sim, "dst", rx_fifo_bytes=64 * KiB)
        src.connect(sw.port_a)
        sw.port_b.connect(dst)
        sw.start()
        n = 300
        received = []

        def sender():
            for i in range(n):
                yield from src.send(EthernetFrame(payload_bytes=8192,
                                                  meta={"seq": i}))

        def slow_consumer():
            for _ in range(n):
                f = yield from dst.recv()
                received.append(f.meta["seq"])
                yield sim.timeout(5000)

        _ = sim.process(sender())
        _ = sim.process(slow_consumer())
        sim.run()
        assert received == list(range(n))
        assert dst.dropped_frames == 0
        assert sw.port_a.dropped_frames == 0
        # the end receiver paused the switch AND the switch paused the source
        assert dst.pause_frames_sent > 0
        assert sw.port_a.pause_frames_sent > 0
        assert src.tx_pause_ns > 0


class TestFrameStreamSource:
    def test_streams_all_bytes_with_content(self, sim):
        a, b = linked_pair(sim)
        blob = np.arange(100_000, dtype=np.uint64).view(np.uint8)
        src = FrameStreamSource(sim, a, total_bytes=len(blob),
                                payload_fn=lambda off, n: blob[off:off + n])
        out = []

        def receiver():
            got = 0
            while got < len(blob):
                f = yield from b.recv()
                out.append(f.data)
                got += f.payload_bytes

        src.start()
        _ = sim.process(receiver())
        sim.run()
        assert np.array_equal(np.concatenate(out), blob)

    def test_invalid_params(self, sim):
        a, _ = linked_pair(sim)
        with pytest.raises(ConfigError):
            FrameStreamSource(sim, a, total_bytes=0)
        with pytest.raises(ConfigError):
            FrameStreamSource(sim, a, total_bytes=10, frame_payload=0)


class TestFrameSlots:
    """slots=True on the hot train-path dataclasses must not change
    construction semantics: meta and PAUSE validation round-trip exactly
    as before, and the per-instance __dict__ is actually gone."""

    def test_no_instance_dict(self):
        f = EthernetFrame(payload_bytes=100)
        assert not hasattr(f, "__dict__")
        with pytest.raises(AttributeError):
            f.unknown_attribute = 1

    def test_meta_round_trips(self):
        meta = {"stream": 7, "kind": "resp", "last": True}
        f = EthernetFrame(payload_bytes=8192, meta=meta)
        assert f.meta is meta
        assert f.meta["stream"] == 7
        # default meta is a fresh dict per instance, not shared
        g, h = EthernetFrame(payload_bytes=1), EthernetFrame(payload_bytes=1)
        g.meta["x"] = 1
        assert h.meta == {}

    def test_pause_validation_round_trips(self):
        p = pause_frame(0xFFFF)
        assert p.is_pause and p.pause_quanta == 0xFFFF
        assert pause_frame(0).pause_quanta == 0
        with pytest.raises(EthernetError):
            EthernetFrame(payload_bytes=100, ethertype=0x8808)

    def test_payload_and_data_validation_round_trips(self):
        with pytest.raises(EthernetError):
            EthernetFrame(payload_bytes=0)
        with pytest.raises(EthernetError):
            EthernetFrame(payload_bytes=9001)
        with pytest.raises(EthernetError):
            EthernetFrame(payload_bytes=8,
                          data=np.zeros(4, dtype=np.uint8))

    def test_other_hot_dataclasses_are_slotted(self):
        from repro.fleet.workload import Request
        from repro.fpga.axi import StreamFlit
        flit = StreamFlit(nbytes=64, meta={"tag": 3})
        assert not hasattr(flit, "__dict__")
        assert flit.meta["tag"] == 3
        req = Request(issue_ns=0, stream=1, object_id=2, size_bytes=3)
        assert not hasattr(req, "__dict__")
