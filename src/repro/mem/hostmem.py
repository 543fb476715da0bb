"""Host DRAM and the pinned-buffer allocator.

The host-DRAM streamer variant keeps its 64 MiB data buffer in *pinned* host
memory.  The paper notes: "The kernel driver is limited to allocating
contiguous buffers of 4 MB, which introduces some overhead in address
calculations, because we must combine multiple buffers to reach the same
64 MB as with on-board DRAM."  :class:`PinnedAllocator` reproduces that
constraint — allocations larger than the chunk size come back as a list of
physically disjoint 4 MiB chunks, and :class:`ChunkedBuffer` provides the
piecewise address translation the streamer must perform.

Host DRAM itself (multi-channel DDR4 on the EPYC host) is far faster than
any single PCIe device, so its timing model is a high-bandwidth port with a
small fixed latency; the PCIe path supplies the real bottleneck.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import AllocationError, ConfigError, MemoryError_
from ..sim.core import Simulator
from ..sim.resources import Resource
from ..units import MiB, align_up, ns_for_bytes
from .base import AddressRange, as_bytes_array
from .timed import TimedMemory

__all__ = ["HostDram", "PinnedAllocator", "ChunkedBuffer"]


class HostDram(TimedMemory):
    """Host DRAM: abundant bandwidth, small access latency.

    *size* covers only the simulated region of host physical memory (queue
    pages, pinned buffers, SPDK buffers) — not all host RAM.
    """

    def __init__(self, sim: Simulator, size: int, name: str = "hostmem",
                 bandwidth_gbps: float = 25.0, latency_ns: int = 90):
        if bandwidth_gbps <= 0:
            raise ConfigError(f"bandwidth must be > 0, got {bandwidth_gbps}")
        super().__init__(sim, size, name=name, sparse=True)
        self.bandwidth_gbps = bandwidth_gbps
        self.latency_ns = latency_ns
        # Multi-channel: reads and writes are serviced independently.
        self._ports = {
            "read": Resource(sim, 2, name=f"{name}.rd"),
            "write": Resource(sim, 2, name=f"{name}.wr"),
        }
        #: memoized access times — transfer sizes repeat endlessly
        self._busy_cache: Dict[int, int] = {}

    def _busy_ns(self, nbytes: int) -> int:
        busy = self._busy_cache.get(nbytes)
        if busy is None:
            busy = self.latency_ns + ns_for_bytes(nbytes, self.bandwidth_gbps)
            self._busy_cache[nbytes] = busy
        return busy

    def _service(self, direction: str, addr: int, nbytes: int):
        port = self._ports[direction]
        if not port.acquire_inline():
            yield port.acquire()
        try:
            yield self.sim.timeout(self._busy_ns(nbytes))
        finally:
            port.release()

    # Flat overrides (DESIGN.md §5): same behavior as the base-class
    # timed_read/timed_write driving _service, one less delegation frame
    # per event — host DRAM serves every host-path transfer and SQE/CQE of
    # the SPDK baseline.
    def timed_read(self, addr: int, nbytes: int, functional: bool = True):
        self.backing._check(addr, nbytes)
        port = self._ports["read"]
        if not port.acquire_inline():
            yield port.acquire()
        try:
            yield self.sim.timeout(self._busy_ns(nbytes))
        finally:
            port.release()
        self.stats.reads += 1
        self.stats.read_bytes += nbytes
        if functional:
            return self.backing.read(addr, nbytes)
        return None

    def timed_write(self, addr: int, data=None, nbytes=None):
        if data is None and nbytes is None:
            raise ValueError("timed_write needs data or nbytes")
        arr = None
        if data is not None:
            arr = as_bytes_array(data)
            if nbytes is not None and nbytes != len(arr):
                raise ValueError(f"nbytes={nbytes} != len(data)={len(arr)}")
            nbytes = len(arr)
        self.backing._check(addr, nbytes)
        port = self._ports["write"]
        if not port.acquire_inline():
            yield port.acquire()
        try:
            yield self.sim.timeout(self._busy_ns(nbytes))
        finally:
            port.release()
        self.stats.writes += 1
        self.stats.written_bytes += nbytes
        if arr is not None:
            self.backing.write(addr, arr)


class PinnedAllocator:
    """Allocates DMA-capable pinned regions in at-most-4 MiB contiguous chunks.

    First-fit over the host physical region it manages.  Returns
    :class:`ChunkedBuffer` objects; each chunk is physically contiguous and
    page-aligned, but consecutive chunks are deliberately *not* adjacent
    (mirroring a fragmented kernel allocator) so that code relying on
    accidental contiguity fails loudly in tests.
    """

    def __init__(self, region: AddressRange, chunk_size: int = 4 * MiB,
                 page_size: int = 4096, scatter: bool = True):
        if chunk_size <= 0 or chunk_size % page_size:
            raise ConfigError(
                f"chunk_size must be a positive multiple of {page_size}")
        self.region = region
        self.chunk_size = chunk_size
        self.page_size = page_size
        self.scatter = scatter
        self._cursor = region.base
        self.allocated_bytes = 0

    def _take(self, size: int) -> AddressRange:
        base = align_up(self._cursor, self.page_size)
        if base + size > self.region.end:
            raise AllocationError(
                f"pinned region exhausted: need {size} at {base:#x}, "
                f"region ends at {self.region.end:#x}")
        self._cursor = base + size
        if self.scatter:
            # Leave a guard page so chunks are never accidentally contiguous.
            self._cursor += self.page_size
        self.allocated_bytes += size
        return AddressRange(base, size)

    def allocate(self, size: int) -> "ChunkedBuffer":
        """Allocate *size* bytes as a list of <=4 MiB contiguous chunks."""
        if size <= 0:
            raise AllocationError(f"allocation size must be > 0, got {size}")
        size = align_up(size, self.page_size)
        chunks: List[AddressRange] = []
        remaining = size
        while remaining > 0:
            take = min(remaining, self.chunk_size)
            chunks.append(self._take(take))
            remaining -= take
        return ChunkedBuffer(chunks)


class ChunkedBuffer:
    """A logically contiguous buffer made of physically disjoint chunks.

    Translates logical offsets to physical (host bus) addresses; the host-DRAM
    streamer performs exactly this extra translation step, which the paper
    calls out as "some overhead in address calculations".
    """

    def __init__(self, chunks: List[AddressRange]):
        if not chunks:
            raise ValueError("ChunkedBuffer needs at least one chunk")
        self.chunks = list(chunks)
        self.size = sum(c.size for c in chunks)
        # Prefix offsets for O(1)-ish translation.
        self._starts: List[int] = []
        off = 0
        for c in chunks:
            self._starts.append(off)
            off += c.size

    @property
    def is_contiguous(self) -> bool:
        """True when the buffer is a single physical chunk."""
        return len(self.chunks) == 1

    def translate(self, offset: int) -> int:
        """Physical address of logical *offset*."""
        if offset < 0 or offset >= self.size:
            raise MemoryError_(
                f"offset {offset:#x} outside chunked buffer of size {self.size:#x}")
        # Chunks are equal-sized except possibly the last; direct index.
        idx = min(offset // self.chunks[0].size, len(self.chunks) - 1)
        while offset < self._starts[idx]:
            idx -= 1
        while idx + 1 < len(self.chunks) and offset >= self._starts[idx + 1]:
            idx += 1
        return self.chunks[idx].base + (offset - self._starts[idx])

    def spans(self, offset: int, nbytes: int) -> List[AddressRange]:
        """Physical spans covering [offset, offset+nbytes) in order."""
        if nbytes < 0 or offset < 0 or offset + nbytes > self.size:
            raise MemoryError_(
                f"span [{offset:#x}, {offset + nbytes:#x}) outside buffer "
                f"of size {self.size:#x}")
        out: List[AddressRange] = []
        pos = offset
        remaining = nbytes
        while remaining > 0:
            idx = min(pos // self.chunks[0].size, len(self.chunks) - 1)
            while pos < self._starts[idx]:
                idx -= 1
            while idx + 1 < len(self.chunks) and pos >= self._starts[idx + 1]:
                idx += 1
            chunk = self.chunks[idx]
            local = pos - self._starts[idx]
            take = min(remaining, chunk.size - local)
            out.append(AddressRange(chunk.base + local, take))
            pos += take
            remaining -= take
        return out
