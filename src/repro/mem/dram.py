"""On-board DRAM controller model.

The paper attributes the on-board-DRAM streamer's reduced write bandwidth
(4.6-4.8 GB/s vs 6.24 GB/s) to a *single* DDR4 controller serving two
concurrent access streams: the streamer filling the buffer with new data
while the NVMe controller reads previously buffered data out over PCIe P2P.
"Although we employ 4 kB bursts whenever feasible, the DRAM controller often
has to switch between read and write operations, which introduces latency."

The model captures exactly that mechanism:

* one controller services all requests FIFO (a single :class:`Resource`);
* each request pays a fixed per-access overhead (row activation, command
  issue) plus serialization at the controller's peak data rate;
* switching direction relative to the previous serviced request pays a
  bus-turnaround penalty (``tWTR``/``tRTW``-style).

With two interleaved 4 KiB streams, the achieved per-stream bandwidth is
``burst / (overhead + burst/peak + turnaround)`` — the calibration in
:mod:`repro.nvme.profiles` lands this in the paper's 4.6-4.8 GB/s band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import ConfigError
from ..sim.core import Simulator
from ..sim.resources import Resource
from ..units import KiB, ns_for_bytes
from .base import as_bytes_array
from .timed import TimedMemory

__all__ = ["DramTiming", "DramController"]


@dataclass(frozen=True)
class DramTiming:
    """Timing parameters of a DRAM controller.

    Defaults approximate one DDR4-2400 x72 channel on an Alveo U280 as
    configured by TaPaSCo (single memory controller, 300 MHz user clock).
    """

    #: peak data rate of the controller, decimal GB/s
    peak_gbps: float = 19.2
    #: fixed cost per serviced request (command + activation), ns
    access_overhead_ns: int = 45
    #: extra cost when the serviced direction differs from the previous one
    turnaround_ns: int = 150
    #: requests at or below this size still pay full overhead (min burst)
    min_burst_bytes: int = 64

    def validate(self) -> None:
        """Raise ConfigError on nonsensical parameters."""
        if self.peak_gbps <= 0:
            raise ConfigError(f"peak_gbps must be > 0, got {self.peak_gbps}")
        if self.access_overhead_ns < 0 or self.turnaround_ns < 0:
            raise ConfigError("overhead/turnaround must be >= 0")
        if self.min_burst_bytes < 1:
            raise ConfigError("min_burst_bytes must be >= 1")


class DramController(TimedMemory):
    """Single-controller DRAM with per-access overhead and R/W turnaround."""

    def __init__(self, sim: Simulator, size: int, name: str = "dram",
                 timing: DramTiming = DramTiming()):
        timing.validate()
        super().__init__(sim, size, name=name, sparse=True)
        self.timing = timing
        self._controller = Resource(sim, 1, name=f"{name}.ctrl")
        self._last_direction: str = ""
        #: memoized direction-independent service time by request size
        self._base_ns_cache: Dict[int, int] = {}

    def _base_ns(self, nbytes: int) -> int:
        t = self._base_ns_cache.get(nbytes)
        if t is None:
            t = self.timing.access_overhead_ns + ns_for_bytes(
                max(nbytes, self.timing.min_burst_bytes), self.timing.peak_gbps)
            self._base_ns_cache[nbytes] = t
        return t

    def service_time_ns(self, direction: str, nbytes: int) -> int:
        """Time to service one request, excluding queueing, at current state."""
        t = self._base_ns(nbytes)
        if self._last_direction and self._last_direction != direction:
            t += self.timing.turnaround_ns
        return t

    def _service(self, direction: str, addr: int, nbytes: int):
        if not self._controller.acquire_inline():
            yield self._controller.acquire()
        try:
            busy = self.service_time_ns(direction, nbytes)
            if self._last_direction and self._last_direction != direction:
                self.stats.turnarounds += 1
            self._last_direction = direction
            yield self.sim.timeout(busy)
        finally:
            self._controller.release()

    # Flat overrides (DESIGN.md §5): behavior identical to the base-class
    # timed_read/timed_write driving _service, minus one delegation frame
    # per event — this controller serves both streams of the on-board-DRAM
    # variant, where the R/W turnaround contention is the paper's story.
    def timed_read(self, addr: int, nbytes: int, functional: bool = True):
        self.backing._check(addr, nbytes)
        if not self._controller.acquire_inline():
            yield self._controller.acquire()
        try:
            busy = self._base_ns(nbytes)
            if self._last_direction and self._last_direction != "read":
                busy += self.timing.turnaround_ns
                self.stats.turnarounds += 1
            self._last_direction = "read"
            yield self.sim.timeout(busy)
        finally:
            self._controller.release()
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
        if not self._controller.acquire_inline():
            yield self._controller.acquire()
        try:
            busy = self._base_ns(nbytes)
            if self._last_direction and self._last_direction != "write":
                busy += self.timing.turnaround_ns
                self.stats.turnarounds += 1
            self._last_direction = "write"
            yield self.sim.timeout(busy)
        finally:
            self._controller.release()
        self.stats.writes += 1
        self.stats.written_bytes += nbytes
        if arr is not None:
            self.backing.write(addr, arr)

    def streaming_gbps(self, direction: str, burst_bytes: int = 4 * KiB,
                       interleaved: bool = False) -> float:
        """Analytic steady-state bandwidth for one stream of *burst_bytes*.

        ``interleaved=True`` models a second stream of the opposite direction
        alternating with this one (every access pays turnaround) — the case
        study / sequential-write situation from the paper.
        """
        t = self.timing.access_overhead_ns + ns_for_bytes(
            max(burst_bytes, self.timing.min_burst_bytes), self.timing.peak_gbps)
        if interleaved:
            t += self.timing.turnaround_ns
        return burst_bytes / t
