"""On-die SRAM models: URAM and BRAM.

UltraRAM on AMD UltraScale+ devices is a dual-port 72-bit-wide block RAM;
assembled into a 4 MiB buffer clocked with the 300 MHz memory-controller
clock and a 512-bit datapath, each port moves 64 B/cycle — 19.2 GB/s per
direction, far above any SSD.  The model therefore gives each direction an
independent port (true dual-port: reads never contend with writes) with a
small fixed pipeline latency.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import ConfigError
from ..sim.core import Simulator
from ..sim.resources import Resource
from ..units import ns_for_bytes
from .base import BytesLike, as_bytes_array
from .timed import TimedMemory

__all__ = ["SramMemory", "UramBuffer"]


class SramMemory(TimedMemory):
    """Dual-port SRAM: independent read/write ports, fixed pipeline latency."""

    def __init__(self, sim: Simulator, size: int, name: str = "",
                 bandwidth_gbps: float = 19.2, pipeline_latency_ns: int = 10):
        if bandwidth_gbps <= 0:
            raise ConfigError(f"bandwidth must be > 0, got {bandwidth_gbps}")
        if pipeline_latency_ns < 0:
            raise ConfigError(f"latency must be >= 0, got {pipeline_latency_ns}")
        super().__init__(sim, size, name=name)
        self.bandwidth_gbps = bandwidth_gbps
        self.pipeline_latency_ns = pipeline_latency_ns
        self._ports = {
            "read": Resource(sim, 1, name=f"{name}.rd"),
            "write": Resource(sim, 1, name=f"{name}.wr"),
        }
        #: memoized access times — sizes repeat (pages, beats) endlessly
        self._busy_cache: Dict[int, int] = {}

    def _busy_ns(self, nbytes: int) -> int:
        busy = self._busy_cache.get(nbytes)
        if busy is None:
            busy = self.pipeline_latency_ns + ns_for_bytes(
                nbytes, self.bandwidth_gbps)
            self._busy_cache[nbytes] = busy
        return busy

    # Flat implementations (DESIGN.md §5): no shared service helper, so
    # one generator frame on every event resume — this is the BAR data
    # path of the URAM streamer variant, the hottest memory in the
    # reproduction.
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

    def timed_write(self, addr: int, data: Optional[BytesLike] = None,
                    nbytes: Optional[int] = None):
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


class UramBuffer(SramMemory):
    """The paper's 4 MiB URAM data buffer (defaults match the U280 build)."""

    #: URAM block size on UltraScale+: 4K x 72 bit = 36 KiB of payload capacity.
    URAM_BLOCK_BYTES = 32 * 1024  # usable payload per block (64-bit of 72)

    def __init__(self, sim: Simulator, size: int = 4 * 1024 * 1024,
                 name: str = "uram"):
        super().__init__(sim, size, name=name,
                         bandwidth_gbps=19.2, pipeline_latency_ns=10)

    @property
    def uram_blocks(self) -> int:
        """Number of URAM blocks this buffer consumes (for Table 1)."""
        return -(-self.size // self.URAM_BLOCK_BYTES)
