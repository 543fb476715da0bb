"""PCIe link model: generation/lane bandwidth and duplex serialization.

A link is full duplex; each direction is an independent serialization
resource.  Transfers are chunked so concurrent flows interleave at a
realistic granularity instead of head-of-line blocking each other for the
duration of a megabyte burst.

Elastic chunking (DESIGN.md §5)
-------------------------------
Chunked interleaving only matters under contention.  When a direction has
no queued competitor, :meth:`PcieLink.serialize` collapses the remaining
chunks into a *single* timeout whose duration is the exact sum of the
per-chunk round-ups, so the simulated timing is bit-identical to the
interleaved loop while the kernel processes O(1) events per transfer
instead of O(transfer/chunk).  A competitor arriving mid-span trips the
direction's contention watcher; the holder then finishes only the chunk
in flight (exactly what the interleaved loop would have done), yields the
wire, and falls back to per-chunk interleaving.

Traffic accounting is credited per chunk as it crosses the wire (and
pro-rated to the last completed chunk boundary for an elastic span in
flight), so counters sampled or reset mid-transfer attribute bytes to the
correct side of the sampling point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from ..errors import ConfigError, PCIeError
from ..sim.core import Event, Simulator
from ..sim.resources import Resource
from ..units import KiB, ns_for_bytes
from .tlp import TlpParams

__all__ = ["LinkParams", "PcieLink", "GEN_GT_PER_LANE"]

#: Per-lane raw signalling rate in GT/s by PCIe generation.
GEN_GT_PER_LANE = {1: 2.5, 2: 5.0, 3: 8.0, 4: 16.0, 5: 32.0}

#: Line-code efficiency: 8b/10b for Gen1/2, 128b/130b for Gen3+.
_CODE_EFFICIENCY = {1: 0.8, 2: 0.8, 3: 128 / 130, 4: 128 / 130, 5: 128 / 130}


@dataclass(frozen=True)
class LinkParams:
    """Static parameters of one PCIe link."""

    gen: int = 3
    lanes: int = 16
    #: one-way propagation + PHY/pipeline latency, ns
    propagation_ns: int = 75
    #: serialization granularity for concurrent-flow interleaving
    chunk_bytes: int = 16 * KiB
    tlp: TlpParams = TlpParams()

    def __post_init__(self):
        if self.gen not in GEN_GT_PER_LANE:
            raise ConfigError(f"unknown PCIe gen {self.gen}")
        if self.lanes not in (1, 2, 4, 8, 16):
            raise ConfigError(f"invalid lane count {self.lanes}")
        if self.propagation_ns < 0:
            raise ConfigError("propagation_ns must be >= 0")
        if self.chunk_bytes < 512:
            raise ConfigError("chunk_bytes must be >= 512")

    @property
    def raw_gbps(self) -> float:
        """Raw per-direction byte rate after line coding, decimal GB/s."""
        gt = GEN_GT_PER_LANE[self.gen]
        return gt * self.lanes * _CODE_EFFICIENCY[self.gen] / 8.0

    def describe(self) -> str:
        """'Gen4 x4 (7.88 GB/s)'-style label."""
        return f"Gen{self.gen} x{self.lanes} ({self.raw_gbps:.2f} GB/s)"


class _InflightSpan:
    """Accounting record of one elastic span occupying a direction."""

    __slots__ = ("start_ns", "chunk_ns", "span_ns", "total_bytes",
                 "chunk_bytes", "nfull", "credited_bytes")

    def __init__(self, start_ns: int, chunk_ns: int, span_ns: int,
                 total_bytes: int, chunk_bytes: int, nfull: int) -> None:
        self.start_ns = start_ns
        self.chunk_ns = chunk_ns
        self.span_ns = span_ns
        self.total_bytes = total_bytes
        self.chunk_bytes = chunk_bytes
        self.nfull = nfull
        #: bytes already moved into the public counter by settlements
        self.credited_bytes = 0

    def crossed_at(self, now: int) -> int:
        """Wire bytes that crossed by *now* (last completed chunk boundary)."""
        elapsed = now - self.start_ns
        if elapsed >= self.span_ns:
            return self.total_bytes
        if elapsed <= 0:
            return 0
        return min(self.nfull, elapsed // self.chunk_ns) * self.chunk_bytes


class PcieLink:
    """One full-duplex link; 'up' = device-to-root, 'down' = root-to-device."""

    def __init__(self, sim: Simulator, params: LinkParams, name: str = "link"):
        self.sim = sim
        self.params = params
        self.name = name
        self._dirs = {
            "up": Resource(sim, 1, name=f"{name}.up"),
            "down": Resource(sim, 1, name=f"{name}.down"),
        }
        #: wire bytes that crossed each direction (traffic accounting);
        #: read through :meth:`crossed_bytes` to include in-flight spans.
        self.wire_bytes = {"up": 0, "down": 0}
        self._inflight: Dict[str, Optional[_InflightSpan]] = {
            "up": None, "down": None}
        #: memoized ``ns_for_bytes(n, raw_gbps)`` — transfers repeat a
        #: handful of sizes (4 KiB pages, request headers, CQEs) millions
        #: of times, and the parameters are frozen at construction.
        self._ns_cache: Dict[int, int] = {}
        #: memoized ``tlp.wire_bytes(payload)`` for the same reason.
        self._wire_cache: Dict[int, int] = {}
        #: fault injection (repro.faults); None = fast paths stay enabled
        self._fault_cfg = None
        self._fault_stats = None
        self._fault_sites: Dict[str, object] = {}

    def attach_faults(self, plan, stats) -> None:
        """Inject seeded TLP loss/corruption answered by replay.

        A no-op unless a PCIe rate is non-zero.  When armed,
        :meth:`plan_single_chunk` returns None so *every* transfer —
        including the root complex's inlined DMA fast paths — funnels
        through :meth:`serialize`, where the replay loop lives.
        """
        cfg = plan.config
        if cfg.pcie_tlp_loss_rate <= 0 and cfg.pcie_tlp_corrupt_rate <= 0:
            return
        self._fault_cfg = cfg
        self._fault_stats = stats
        # per-direction streams: decisions on one direction cannot shift
        # the other's stream position
        self._fault_sites = {d: plan.site(f"{self.name}.{d}.tlp")
                             for d in ("up", "down")}

    def serialize(self, direction: str, payload_bytes: int,
                  raw_wire_bytes: int = 0) -> Generator[Event, object, None]:
        """Generator: occupy *direction* for the wire time of the transfer.

        *payload_bytes* is packetized via the link's TLP parameters;
        *raw_wire_bytes* is for non-data TLPs (requests, interrupts) charged
        as-is.  Chunked so other flows interleave; an uncontended remainder
        is served elastically in a single timeout (see module docstring).
        """
        if direction not in self._dirs:
            raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
        plan = self.plan_single_chunk(payload_bytes, raw_wire_bytes)
        res = self._dirs[direction]
        if plan is not None:
            # Single-chunk transfer (the overwhelmingly common case for
            # request headers, CQEs, and 4 KiB pages): no loop bookkeeping.
            ns, total_wire = plan
            if not res.acquire_inline():
                yield res.acquire()
            try:
                yield self.sim.timeout(ns)
            finally:
                res.release()
            self.wire_bytes[direction] += total_wire
            return
        wire = self._wire_cache[payload_bytes]  # cached by plan_single_chunk
        total_wire = wire + raw_wire_bytes
        chunk = self.params.chunk_bytes
        gbps = self.params.raw_gbps
        remaining = total_wire
        while remaining > 0:
            if not res.acquire_inline():
                yield res.acquire()
            if remaining > chunk and res.queued == 0 \
                    and self._fault_cfg is None:
                remaining -= yield from self._elastic_span(
                    res, direction, remaining)
            else:
                take = min(remaining, chunk)
                ns = self._ns_cache.get(take)
                if ns is None:
                    ns = ns_for_bytes(take, gbps)
                    self._ns_cache[take] = ns
                try:
                    if self._fault_cfg is not None:
                        yield from self._chunk_with_replay(direction, take, ns)
                    else:
                        yield self.sim.timeout(ns)
                finally:
                    res.release()
                self.wire_bytes[direction] += take
                remaining -= take

    def _chunk_with_replay(self, direction: str, take: int,
                           ns: int) -> Generator[Event, object, None]:
        """One chunk under the fault plan: serialize, then replay on a
        seeded loss (after the ack timeout) or corruption (NAK, immediate)
        until it lands clean or the replay budget runs out.

        Failed attempts still crossed the wire, so each is credited to the
        traffic counter; the caller credits the final good attempt.
        """
        cfg = self._fault_cfg
        site = self._fault_sites[direction]
        stats = self._fault_stats
        replays = 0
        while True:
            yield self.sim.timeout(ns)
            lost = site.flip(cfg.pcie_tlp_loss_rate)
            corrupt = site.flip(cfg.pcie_tlp_corrupt_rate)
            if not lost and not corrupt:
                return
            if replays >= cfg.pcie_replay_limit:
                raise PCIeError(
                    f"{self.name}.{direction}: replay budget "
                    f"({cfg.pcie_replay_limit}) exhausted for a "
                    f"{take}-byte TLP chunk")
            replays += 1
            stats.pcie_replays += 1
            self.wire_bytes[direction] += take
            if lost:
                stats.pcie_tlp_dropped += 1
                yield self.sim.timeout(cfg.pcie_replay_timeout_ns)
            else:
                stats.pcie_tlp_corrupted += 1

    def plan_single_chunk(
            self, payload_bytes: int,
            raw_wire_bytes: int = 0) -> Optional[Tuple[int, int]]:
        """``(timeout_ns, wire_bytes)`` for a transfer that fits one chunk,
        or ``None`` when it must go through the chunked loop.

        Lets the hottest callers (the fabric DMA paths) inline the
        acquire / timeout / release / credit sequence of :meth:`serialize`
        without paying an extra generator frame on every event resume.
        An inlined caller must replay the sequence exactly: acquire the
        direction resource, wait *timeout_ns*, release, then add
        *wire_bytes* to ``wire_bytes[direction]`` — same events, same
        order, so the schedule is identical to :meth:`serialize`.
        """
        wire = self._wire_cache.get(payload_bytes)
        if wire is None:
            wire = self.params.tlp.wire_bytes(payload_bytes)
            self._wire_cache[payload_bytes] = wire
        total_wire = wire + raw_wire_bytes
        if total_wire > self.params.chunk_bytes:
            return None
        if self._fault_cfg is not None:
            # with faults armed every transfer needs the replay loop in
            # serialize(); inlined callers fall back on a None plan
            return None
        ns = self._ns_cache.get(total_wire)
        if ns is None:
            ns = ns_for_bytes(total_wire, self.params.raw_gbps)
            self._ns_cache[total_wire] = ns
        return ns, total_wire

    def _elastic_span(self, res: Resource, direction: str,
                      remaining: int) -> Generator[Event, object, int]:
        """Serialize up to *remaining* bytes in one timeout; returns the
        bytes actually serialized.

        The caller holds the direction and loops for any rest.  Timing is
        bit-identical to the per-chunk loop: the span duration is the sum
        of per-chunk ``ns_for_bytes`` round-ups, and under contention the
        holder completes exactly the chunk in flight before yielding.
        """
        sim = self.sim
        chunk = self.params.chunk_bytes
        gbps = self.params.raw_gbps
        chunk_ns = ns_for_bytes(chunk, gbps)
        nfull, tail = divmod(remaining, chunk)
        span_ns = nfull * chunk_ns + (ns_for_bytes(tail, gbps) if tail else 0)
        span = _InflightSpan(sim.now, chunk_ns, span_ns, remaining, chunk, nfull)
        self._inflight[direction] = span
        watcher = res.watch_contention()
        done_ev = sim.timeout(span_ns)
        serialized = 0
        try:
            _ = yield sim.any_of([done_ev, watcher])
            if done_ev.triggered:
                serialized = remaining
            else:
                # Contention: the chunk in flight completes at the next
                # boundary; then the wire is yielded to the queued waiter.
                elapsed = sim.now - span.start_ns
                if elapsed > nfull * chunk_ns:
                    # inside the tail chunk — finishing it finishes the span
                    residual = span_ns - elapsed
                    serialized = remaining
                else:
                    chunks_done = max(1, -(-elapsed // chunk_ns))
                    residual = chunks_done * chunk_ns - elapsed
                    serialized = chunks_done * chunk
                if residual:
                    yield sim.timeout(residual)
        finally:
            res.unwatch_contention(watcher)
            self._settle(direction)
            span_now = self._inflight[direction]
            if span_now is span:
                # credit exactly the bytes this span serialized (settle
                # already credited up to the last boundary)
                delta = serialized - span.credited_bytes
                if delta > 0:
                    self.wire_bytes[direction] += delta
                self._inflight[direction] = None
            res.release()
        return serialized

    def _settle(self, direction: str) -> None:
        """Move an in-flight span's crossed-by-now bytes into the counter."""
        span = self._inflight[direction]
        if span is None:
            return
        crossed = span.crossed_at(self.sim.now)
        delta = crossed - span.credited_bytes
        if delta > 0:
            self.wire_bytes[direction] += delta
            span.credited_bytes = crossed

    def crossed_bytes(self, direction: str) -> int:
        """Wire bytes that crossed *direction*, including the completed
        chunks of any elastic span currently in flight."""
        self._settle(direction)
        return self.wire_bytes[direction]

    @property
    def total_wire_bytes(self) -> int:
        """Wire bytes across both directions since the last reset."""
        self._settle("up")
        self._settle("down")
        return self.wire_bytes["up"] + self.wire_bytes["down"]

    def reset_counters(self) -> None:
        """Zero the traffic counters (e.g. after warm-up).

        Chunks of an in-flight elastic span that already crossed the wire
        are settled (and discarded) first, so the post-reset counters only
        accumulate bytes serialized after this point.
        """
        self._settle("up")
        self._settle("down")
        self.wire_bytes["up"] = 0
        self.wire_bytes["down"] = 0
