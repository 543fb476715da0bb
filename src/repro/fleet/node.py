"""Fleet endpoints: the SNAcc node service model and the client gateway.

A :class:`FleetNode` abstracts one paper system (host + FPGA + SSD)
behind its NIC: GET requests acquire a bounded queue-depth slot, pay a
base access latency, then stream the object back in storage-rate chunks
interleaved with NIC-rate frame serialization — the streaming pipeline
shape of the paper, calibrated by ``storage_gbps``/``base_latency_ns``
rather than re-simulating the full NVMe/PCIe stack per node (a fleet of
full nodes would be orders of magnitude too slow for sweeps; the
single-node stack remains the calibration source for those two knobs).
PUT data frames are ingested inline at storage rate, which is what makes
an incast victim node push back through the switch fabric.

A :class:`ClientGateway` aggregates many client streams onto one MAC:
it issues its shard of the workload at the scheduled times, routes each
stream through the placement layer, reassembles responses, and records
per-stream completion latency.  Counting a stream complete when the last
response frame *arrives at the gateway MAC* (receiver-observed, per the
``FrameStreamSource.drained_ns`` audit) keeps fleet throughput honest —
source-side stamps would drop one propagation delay per stream.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ConfigError
from ..net.frame import EthernetFrame, check_coarsening
from ..net.mac import EthernetMac
from ..sim.core import Simulator
from ..sim.resources import Resource
from ..sim.stats import BandwidthMeter, LatencyCollector
from ..units import KiB, ns_for_bytes
from .placement import LoadAwarePlacement
from .workload import Request

__all__ = ["ClientGateway", "FleetNode", "REQUEST_PAYLOAD_BYTES"]

#: GET request / PUT ack frames are minimum-size control-plane traffic
REQUEST_PAYLOAD_BYTES = 64


class FleetNode:
    """One SNAcc node behind its NIC: bounded queue, streamed reads."""

    def __init__(self, sim: Simulator, name: str, mac: EthernetMac,
                 storage_gbps: float = 6.8, base_latency_ns: int = 25_000,
                 queue_depth: int = 16, frame_payload: int = 8192,
                 read_chunk_bytes: int = 64 * KiB,
                 coarsening: str = "train"):
        if storage_gbps <= 0:
            raise ConfigError("storage_gbps must be > 0")
        if base_latency_ns < 0 or queue_depth < 1:
            raise ConfigError("need base_latency_ns >= 0, queue_depth >= 1")
        if read_chunk_bytes < frame_payload:
            raise ConfigError("read_chunk_bytes must be >= frame_payload")
        check_coarsening(coarsening)
        self.sim = sim
        self.name = name
        self.mac = mac
        self.storage_gbps = storage_gbps
        self.base_latency_ns = base_latency_ns
        self.frame_payload = frame_payload
        self.read_chunk_bytes = read_chunk_bytes
        self.coarsening = coarsening
        self._storage = Resource(sim, queue_depth, name=f"{name}.qd")
        #: the drive's internal bandwidth is a single serial channel —
        #: queue_depth overlaps storage with NIC serialization across
        #: requests, it must not multiply the drive's data rate
        self._channel = Resource(sim, 1, name=f"{name}.chan")
        self._put_seen: Dict[int, int] = {}
        self.served_requests = 0
        self.served_bytes = 0
        self.put_bytes = 0
        #: service loop parked on an empty RX FIFO (sink-eligible)
        self._serve_parked = False
        if coarsening == "train":
            # The NIC's receiver (DESIGN.md §11.3), for GET requests
            # only: PUT data frames always take the FIFO/backpressure
            # path that incast exercises.
            mac.receiver = self

    def start(self) -> None:
        """Spawn the NIC service loop."""
        _ = self.sim.process(self._serve(), name=f"{self.name}.serve")

    def sink(self, frame: EthernetFrame) -> bool:
        """Quiescent delivery: a GET request arriving while the service
        loop is parked spawns its read via one deferred call in the
        exact scheduler slot the RX kick would have taken."""
        if not self._serve_parked or frame.meta["kind"] != "req":
            return False
        self.sim.schedule_call(0, self._spawn_read, frame.meta)
        return True

    def refuses(self, frame: EthernetFrame) -> bool:
        """PUT data refuses the last-hop funnel; requests may ride it.
        The first PUT frame kills the funnel while it is still idle (an
        exact hand-back), so incast runs on the classic machinery."""
        return frame.meta["kind"] != "req"

    def absorb(self, frame: EthernetFrame) -> bool:
        """Never early: each request arrives as a real delivery at its
        exact per-frame timestamp (the deferred read keeps slot order)."""
        return False

    def _spawn_read(self, meta: Dict) -> None:
        _ = self.sim.process(self._read(meta), name=f"{self.name}.read")

    def _serve(self):
        while True:
            self._serve_parked = True
            frame = yield from self.mac.recv()
            self._serve_parked = False
            meta = frame.meta
            if meta["kind"] == "req":
                _ = self.sim.process(self._read(meta),
                                     name=f"{self.name}.read")
            else:  # 'put' data frame: ingest inline at storage rate, so
                # a slow node is felt by the fabric as backpressure
                yield self.sim.timeout(
                    ns_for_bytes(frame.payload_bytes, self.storage_gbps))
                self.put_bytes += frame.payload_bytes
                stream = meta["stream"]
                got = self._put_seen.get(stream, 0) + frame.payload_bytes
                if got >= meta["size"]:
                    del self._put_seen[stream]
                    yield from self.mac.send(EthernetFrame(
                        payload_bytes=REQUEST_PAYLOAD_BYTES,
                        meta={"dst": meta["src"], "kind": "ack",
                              "stream": stream}))
                else:
                    self._put_seen[stream] = got

    def _read(self, meta: Dict) -> object:
        size, src, stream = meta["size"], meta["src"], meta["stream"]
        train = self.coarsening == "train"
        # All resp frames of one stream carry identical metadata and
        # nothing downstream mutates frame.meta, so the train path shares
        # one dict across the stream instead of allocating per frame.
        resp_meta = ({"dst": src, "kind": "resp", "stream": stream}
                     if train else None)
        # Train mode takes free resource slots synchronously (zero
        # events); contended acquires still queue through the scheduler,
        # so grant order is unchanged (DESIGN.md §11).
        if not (train and self._storage.try_acquire()):
            yield self._storage.acquire()
        try:
            # access latency overlaps across queued commands (it models
            # command setup + flash access, not channel occupancy)
            yield self.sim.timeout(self.base_latency_ns)
            offset = 0
            timeout = self.sim.timeout
            channel = self._channel
            chunk_bytes = self.read_chunk_bytes
            payload = self.frame_payload
            gbps = self.storage_gbps
            # Frames are immutable values (payload size + shared meta) and
            # every consumer is read-only, so one frame object — and one
            # list — serves every full chunk of the stream.  The per-frame
            # reference path builds fresh (equal-valued) objects, which no
            # observable statistic can distinguish.
            full_train = None
            if train and size >= chunk_bytes:
                f = EthernetFrame(payload_bytes=payload, meta=resp_meta)
                full_train = [f] * (chunk_bytes // payload)
                if chunk_bytes % payload:
                    full_train.append(EthernetFrame(
                        payload_bytes=chunk_bytes % payload,
                        meta=resp_meta))
            while offset < size:
                chunk = min(chunk_bytes, size - offset)
                if not (train and channel.try_acquire()):
                    yield channel.acquire()
                try:
                    yield timeout(ns_for_bytes(chunk, gbps))
                finally:
                    channel.release()
                if train:
                    # One frame train per storage chunk: the MAC fast
                    # path serializes it with O(1) live kernel state
                    # while the NIC is quiescent and splits back to
                    # per-frame under contention/PAUSE (DESIGN.md §11).
                    if chunk == chunk_bytes:
                        frames = full_train
                    else:
                        frames = []
                        sent = 0
                        while sent < chunk:
                            take = min(payload, chunk - sent)
                            frames.append(EthernetFrame(
                                payload_bytes=take, meta=resp_meta))
                            sent += take
                    yield from self.mac.send_train(frames)
                else:
                    sent = 0
                    while sent < chunk:
                        take = min(self.frame_payload, chunk - sent)
                        yield from self.mac.send(EthernetFrame(
                            payload_bytes=take,
                            meta={"dst": src, "kind": "resp",
                                  "stream": stream}))
                        sent += take
                offset += chunk
        finally:
            self._storage.release()
        self.served_requests += 1
        self.served_bytes += size


class ClientGateway:
    """Many client streams multiplexed onto one edge MAC."""

    def __init__(self, sim: Simulator, name: str, mac: EthernetMac,
                 placement: Optional[LoadAwarePlacement] = None,
                 frame_payload: int = 8192, coarsening: str = "train"):
        check_coarsening(coarsening)
        self.sim = sim
        self.name = name
        self.mac = mac
        self.placement = placement
        self.frame_payload = frame_payload
        self.coarsening = coarsening
        self.latency = LatencyCollector(name)
        #: optional shared fleet meter; records completion (time, bytes)
        self.meter: Optional[BandwidthMeter] = None
        #: stream -> [issue_ns, remaining_bytes (None for puts), node, size]
        self._pending: Dict[int, List] = {}
        self.completed = 0
        self.rx_bytes = 0
        self._collecting = False

    def start(self, requests: List[Request]) -> None:
        """Spawn the issue loop for this gateway's shard + the collector."""
        _ = self.sim.process(self._issue(requests), name=f"{self.name}.issue")
        self.start_collector()

    def start_collector(self) -> None:
        """Spawn only the response collector (idempotent; incast uses it)."""
        if self._collecting:
            return
        self._collecting = True
        if self.coarsening == "train":
            # The MAC's receiver (DESIGN.md §11.3): the last-hop switch
            # may serve this port arithmetically (gateway funnel).
            self.mac.receiver = self
        _ = self.sim.process(self._collect(), name=f"{self.name}.rx")

    def sink(self, frame: EthernetFrame) -> bool:
        """Quiescent delivery.  The collector body is fully synchronous,
        so a parked-loop flag is unnecessary: a sinked frame is processed
        by one deferred call in the exact scheduler slot the RX kick
        would have taken (DESIGN.md §11)."""
        meta = frame.meta
        if meta["kind"] == "resp":
            record = self._pending[meta["stream"]]
            remaining = record[1] - frame.payload_bytes
            if remaining > 0:
                # Mid-stream resp frame: pure commutative accounting on
                # state nothing else reads between scheduler slots, so it
                # can run right here in the delivery slot.  Only the
                # stream-completing frame defers — _finish touches the
                # placement scoreboard, which the issue loop reads, so it
                # must keep the RX-kick slot position (DESIGN.md §11).
                self.rx_bytes += frame.payload_bytes
                record[1] = remaining
                return True
        self.sim.schedule_call(0, self._on_rx, frame)
        return True

    def refuses(self, frame: EthernetFrame) -> bool:
        """Every frame class accepts arithmetic upstream service."""
        return False

    def absorb(self, frame: EthernetFrame) -> bool:
        """Gateway-funnel eager accounting of a mid-stream resp frame.

        Same commutative accounting as the mid-stream branch of
        :meth:`sink`, but run at the frame's *absorb* instant (its
        upstream serialization start) instead of its delivery instant.
        Safe because nothing reads this stream's record between those two
        instants: the stream's frames traverse one FIFO path in order, so
        every earlier frame has already been absorbed and the completing
        frame — the only reader — declines here and arrives as a real
        delivery at its exact timestamp.
        """
        meta = frame.meta
        if meta["kind"] != "resp":
            return False
        record = self._pending[meta["stream"]]
        remaining = record[1] - frame.payload_bytes
        if remaining <= 0:
            return False
        self.rx_bytes += frame.payload_bytes
        record[1] = remaining
        return True

    def _issue(self, requests: List[Request]):
        if self.placement is None:
            raise ConfigError(f"{self.name}: GET issue needs a placement")
        for req in requests:
            if self.sim.now < req.issue_ns:
                yield self.sim.timeout(req.issue_ns - self.sim.now)
            node = self.placement.route(req.object_id)
            self._pending[req.stream] = [self.sim.now, req.size_bytes, node,
                                         req.size_bytes]
            yield from self.mac.send(EthernetFrame(
                payload_bytes=REQUEST_PAYLOAD_BYTES,
                meta={"dst": node, "kind": "req", "src": self.name,
                      "stream": req.stream, "size": req.size_bytes}))

    def put(self, node: str, stream: int, size_bytes: int):
        """Generator: push *size_bytes* to *node* (the incast workload)."""
        self._pending[stream] = [self.sim.now, None, node, size_bytes]
        if self.coarsening == "train":
            # One shared meta dict for the whole PUT stream (nothing
            # downstream mutates frame.meta).
            put_meta = {"dst": node, "kind": "put", "src": self.name,
                        "stream": stream, "size": size_bytes}
            frames = []
            remaining = size_bytes
            while remaining > 0:
                take = min(self.frame_payload, remaining)
                frames.append(EthernetFrame(
                    payload_bytes=take, meta=put_meta))
                remaining -= take
            # send_train self-splits at the receiver-headroom cap, so an
            # incast PUT degrades to per-frame exactly where the PAUSE
            # machinery starts to matter.
            yield from self.mac.send_train(frames)
            return
        remaining = size_bytes
        while remaining > 0:
            take = min(self.frame_payload, remaining)
            yield from self.mac.send(EthernetFrame(
                payload_bytes=take,
                meta={"dst": node, "kind": "put", "src": self.name,
                      "stream": stream, "size": size_bytes}))
            remaining -= take

    def _collect(self):
        while True:
            frame = yield from self.mac.recv()
            self._on_rx(frame)

    def _on_rx(self, frame: EthernetFrame) -> None:
        meta = frame.meta
        record = self._pending[meta["stream"]]
        if meta["kind"] == "resp":
            self.rx_bytes += frame.payload_bytes
            record[1] -= frame.payload_bytes
            if record[1] > 0:
                return
        self._finish(meta["stream"], record)

    def _finish(self, stream: int, record: List) -> None:
        self.latency.record(self.sim.now - record[0])
        if self.meter is not None:
            self.meter.record(self.sim.now, record[3])
        if self.placement is not None and record[1] is not None:
            self.placement.release(record[2])
        del self._pending[stream]
        self.completed += 1
