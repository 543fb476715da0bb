"""PCIe fabric: endpoints, BAR windows, host memory, and P2P routing.

Topology (matching the paper's setup, Fig 1): the FPGA and the NVMe SSD are
both endpoints below the host root complex; host DRAM sits behind the root
complex's memory controller.

* endpoint -> host memory:   one link crossing (the endpoint's own)
* endpoint -> endpoint BAR:  **peer-to-peer** — both links plus a root-complex
  forwarding hop (no host memory involvement)
* host CPU -> endpoint BAR:  MMIO (doorbells, config registers)

Every device that exposes a BAR provides a :class:`BarHandler`, whose
``bar_read``/``bar_write`` generators account for the device-internal time to
serve the access (URAM port, DRAM controller, register file...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import PCIeError
from ..mem.address_map import AddressMap
from ..mem.base import BytesLike, as_bytes_array
from ..mem.hostmem import HostDram
from ..sim.core import Simulator
from ..sim.resources import Resource
from .iommu import Iommu
from .link import LinkParams, PcieLink
from .tlp import MEMRD_REQUEST_BYTES
from .traffic import TrafficAccountant

__all__ = ["BarHandler", "PcieFabric", "PcieEndpoint"]

#: traffic segment name for host-memory crossings at the root complex
HOST_SEGMENT = "host"


class BarHandler:
    """Interface a device implements to back a BAR window.

    Both methods are generators driven inside the requester's transaction;
    they model the device-internal service time.
    """

    def bar_read(self, offset: int, nbytes: int, functional: bool = True):
        """Serve a read of *nbytes* at *offset*; returns the data."""
        raise NotImplementedError
        yield  # pragma: no cover

    def bar_write(self, offset: int, data: Optional[BytesLike] = None,
                  nbytes: Optional[int] = None):
        """Serve a write at *offset*."""
        raise NotImplementedError
        yield  # pragma: no cover


@dataclass(frozen=True)
class _HostMemTarget:
    mem: HostDram


@dataclass(frozen=True)
class _BarTarget:
    endpoint: "PcieEndpoint"
    handler: BarHandler


class PcieEndpoint:
    """A device on the fabric: one link up to the root complex, DMA engines."""

    def __init__(self, fabric: "PcieFabric", name: str, link: PcieLink,
                 max_read_tags: int):
        self.fabric = fabric
        self.name = name
        self.link = link
        #: limits concurrently outstanding non-posted (read) transactions
        self.read_tags = Resource(fabric.sim, max_read_tags, name=f"{name}.tags")
        #: memoized ``tlp.read_requests(nbytes)`` (sizes repeat heavily)
        self._nreq_cache: Dict[int, int] = {}

    # -- DMA issued by this device -------------------------------------------
    def dma_read(self, addr: int, nbytes: int, functional: bool = True):
        """Generator: non-posted read of *nbytes* at global *addr*.

        Returns the data (or ``None`` with ``functional=False``).
        """
        return self.fabric._dma_read(self, addr, nbytes, functional)

    def dma_write(self, addr: int, data: Optional[BytesLike] = None,
                  nbytes: Optional[int] = None):
        """Generator: posted write to global *addr*."""
        return self.fabric._dma_write(self, addr, data, nbytes)


class PcieFabric:
    """The shared PCIe hierarchy: address map, links, IOMMU, traffic."""

    def __init__(self, sim: Simulator, iommu: Optional[Iommu] = None,
                 rc_forward_ns: int = 60,
                 mmio_write_ns: int = 250, mmio_read_ns: int = 750):
        self.sim = sim
        self.iommu = iommu if iommu is not None else Iommu(enabled=True)
        self.rc_forward_ns = rc_forward_ns
        self.mmio_write_ns = mmio_write_ns
        self.mmio_read_ns = mmio_read_ns
        self.address_map = AddressMap("pcie")
        self.traffic = TrafficAccountant()
        self.endpoints: Dict[str, PcieEndpoint] = {}
        self._host_mem: Optional[HostDram] = None

    # -- topology construction -------------------------------------------------
    def attach_endpoint(self, name: str, params: LinkParams,
                        max_read_tags: int = 32) -> PcieEndpoint:
        """Create an endpoint below the root complex."""
        if name in self.endpoints or name == HOST_SEGMENT:
            raise PCIeError(f"endpoint name {name!r} already in use")
        link = PcieLink(self.sim, params, name=name)
        ep = PcieEndpoint(self, name, link, max_read_tags)
        self.endpoints[name] = ep
        return ep

    def attach_host_memory(self, mem: HostDram, base: int) -> None:
        """Map host DRAM at global address *base*."""
        if self._host_mem is not None:
            raise PCIeError("host memory already attached")
        self._host_mem = mem
        self.address_map.add(base, mem.size, _HostMemTarget(mem), name="hostmem")

    def add_bar(self, endpoint: PcieEndpoint, base: int, size: int,
                handler: BarHandler, name: str = "") -> None:
        """Expose *handler* as a BAR of *endpoint* at [base, base+size)."""
        if endpoint.name not in self.endpoints:
            raise PCIeError(f"unknown endpoint {endpoint.name!r}")
        self.address_map.add(base, size, _BarTarget(endpoint, handler),
                             name=name or f"{endpoint.name}.bar")

    # -- decode -----------------------------------------------------------------
    def _decode(self, addr: int, nbytes: int):
        window, offset = self.address_map.decode(addr, max(1, nbytes))
        return window.target, offset

    # -- DMA paths ---------------------------------------------------------------
    def _dma_read(self, requester: PcieEndpoint, addr: int, nbytes: int,
                  functional: bool):
        if nbytes <= 0:
            raise PCIeError(f"dma_read of {nbytes} bytes")
        self.iommu.check(requester.name, addr, nbytes)
        target, offset = self._decode(addr, nbytes)
        nreq = requester._nreq_cache.get(nbytes)
        if nreq is None:
            nreq = requester.link.params.tlp.read_requests(nbytes)
            requester._nreq_cache[nbytes] = nreq
        rlink = requester.link
        if not requester.read_tags.acquire_inline():
            yield requester.read_tags.acquire()
        try:
            # Request phase: small TLPs up the requester link, through the
            # RC.  Single-chunk transfers inline the serialize sequence
            # (acquire/timeout/release/credit — see PcieLink.plan_single_chunk)
            # so every resume in this hot path walks one less frame.
            plan = rlink.plan_single_chunk(
                0, raw_wire_bytes=nreq * MEMRD_REQUEST_BYTES)
            if plan is None:  # pragma: no cover - requests never exceed a chunk
                yield from rlink.serialize(
                    "up", 0, raw_wire_bytes=nreq * MEMRD_REQUEST_BYTES)
            else:
                ns, wire = plan
                res = rlink._dirs["up"]
                if not res.acquire_inline():
                    yield res.acquire()
                try:
                    yield self.sim.timeout(ns)
                finally:
                    res.release()
                rlink.wire_bytes["up"] += wire

            if isinstance(target, _HostMemTarget):
                yield self.sim.timeout(
                    rlink.params.propagation_ns + self.rc_forward_ns)
                data = yield from target.mem.timed_read(
                    offset, nbytes, functional=functional)
                self.traffic.record(HOST_SEGMENT, nbytes)
            elif isinstance(target, _BarTarget):
                peer = target.endpoint
                # One timeout for the request's whole downstream flight:
                # requester link propagation + RC forward + peer link
                # propagation (the two legs were separate timeouts; the sum
                # is identical and saves one kernel event per P2P read).
                yield self.sim.timeout(
                    rlink.params.propagation_ns + self.rc_forward_ns
                    + peer.link.params.propagation_ns)
                data = yield from target.handler.bar_read(
                    offset, nbytes, functional=functional)
                # Completion data climbs the peer link, crosses the RC.
                plan = peer.link.plan_single_chunk(nbytes)
                if plan is None:
                    yield from peer.link.serialize("up", nbytes)
                else:
                    ns, wire = plan
                    res = peer.link._dirs["up"]
                    if not res.acquire_inline():
                        yield res.acquire()
                    try:
                        yield self.sim.timeout(ns)
                    finally:
                        res.release()
                    peer.link.wire_bytes["up"] += wire
                yield self.sim.timeout(
                    peer.link.params.propagation_ns + self.rc_forward_ns)
                self.traffic.record(peer.name, nbytes)
            else:  # pragma: no cover - decode returns only the two targets
                raise PCIeError(f"unroutable target {target!r}")

            # Completion data descends the requester link.
            plan = rlink.plan_single_chunk(nbytes)
            if plan is None:
                yield from rlink.serialize("down", nbytes)
            else:
                ns, wire = plan
                res = rlink._dirs["down"]
                if not res.acquire_inline():
                    yield res.acquire()
                try:
                    yield self.sim.timeout(ns)
                finally:
                    res.release()
                rlink.wire_bytes["down"] += wire
            yield self.sim.timeout(rlink.params.propagation_ns)
            self.traffic.record(requester.name, nbytes)
            return data
        finally:
            requester.read_tags.release()

    def _dma_write(self, requester: PcieEndpoint, addr: int,
                   data: Optional[BytesLike], nbytes: Optional[int]):
        if data is None and nbytes is None:
            raise PCIeError("dma_write needs data or nbytes")
        if data is not None:
            # BytesLike all support len(); conversion to an array is left to
            # whichever consumer actually stores the bytes (hot timing-only
            # writes never pay for it).
            nbytes = len(data)
        if nbytes <= 0:
            raise PCIeError(f"dma_write of {nbytes} bytes")
        self.iommu.check(requester.name, addr, nbytes)
        target, offset = self._decode(addr, nbytes)
        rlink = requester.link

        # Posted: data climbs the requester link, crosses the RC...
        # (single-chunk serialize inlined, as in _dma_read above)
        plan = rlink.plan_single_chunk(nbytes)
        if plan is None:
            yield from rlink.serialize("up", nbytes)
        else:
            ns, wire = plan
            res = rlink._dirs["up"]
            if not res.acquire_inline():
                yield res.acquire()
            try:
                yield self.sim.timeout(ns)
            finally:
                res.release()
            rlink.wire_bytes["up"] += wire
        yield self.sim.timeout(
            rlink.params.propagation_ns + self.rc_forward_ns)
        self.traffic.record(requester.name, nbytes)

        if isinstance(target, _HostMemTarget):
            if data is not None:
                yield from target.mem.timed_write(offset, data=data)
            else:
                yield from target.mem.timed_write(offset, nbytes=nbytes)
            self.traffic.record(HOST_SEGMENT, nbytes)
        elif isinstance(target, _BarTarget):
            peer = target.endpoint
            # ...and descends the peer link (P2P).
            plan = peer.link.plan_single_chunk(nbytes)
            if plan is None:
                yield from peer.link.serialize("down", nbytes)
            else:
                ns, wire = plan
                res = peer.link._dirs["down"]
                if not res.acquire_inline():
                    yield res.acquire()
                try:
                    yield self.sim.timeout(ns)
                finally:
                    res.release()
                peer.link.wire_bytes["down"] += wire
            yield self.sim.timeout(peer.link.params.propagation_ns)
            yield from target.handler.bar_write(offset, data=data, nbytes=nbytes)
            self.traffic.record(peer.name, nbytes)
        else:  # pragma: no cover
            raise PCIeError(f"unroutable target {target!r}")

    # -- host MMIO ---------------------------------------------------------------
    def host_mmio_write(self, addr: int, data: Optional[BytesLike] = None,
                        nbytes: Optional[int] = None):
        """Generator: CPU programmed-IO write (doorbells, config registers)."""
        if data is None and nbytes is None:
            raise PCIeError("mmio write needs data or nbytes")
        n = nbytes if nbytes is not None else len(as_bytes_array(data))
        target, offset = self._decode(addr, n)
        if not isinstance(target, _BarTarget):
            raise PCIeError(f"MMIO write to non-BAR address {addr:#x}")
        peer = target.endpoint
        yield self.sim.timeout(self.mmio_write_ns)
        yield from peer.link.serialize("down", n)
        yield from target.handler.bar_write(offset, data=data, nbytes=nbytes)
        self.traffic.record(peer.name, n)

    def host_mmio_read(self, addr: int, nbytes: int, functional: bool = True):
        """Generator: CPU programmed-IO read; returns the data."""
        target, offset = self._decode(addr, nbytes)
        if not isinstance(target, _BarTarget):
            raise PCIeError(f"MMIO read of non-BAR address {addr:#x}")
        peer = target.endpoint
        yield self.sim.timeout(self.mmio_read_ns)
        data = yield from target.handler.bar_read(offset, nbytes,
                                                  functional=functional)
        yield from peer.link.serialize("up", nbytes)
        self.traffic.record(peer.name, nbytes)
        return data

    def is_host_address(self, addr: int) -> bool:
        """True when *addr* decodes to host memory (vs a peer BAR)."""
        target, _ = self._decode(addr, 1)
        return isinstance(target, _HostMemTarget)

    # -- host-side zero-time helpers ----------------------------------------------
    @property
    def host_memory(self) -> HostDram:
        """The attached host DRAM (raises if not attached)."""
        if self._host_mem is None:
            raise PCIeError("no host memory attached")
        return self._host_mem

    def host_mem_offset(self, addr: int) -> int:
        """Translate a global address into a host-DRAM offset."""
        target, offset = self._decode(addr, 1)
        if not isinstance(target, _HostMemTarget):
            raise PCIeError(f"{addr:#x} is not host memory")
        return offset
