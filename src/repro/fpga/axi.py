"""AXI4-Stream channel model.

User PEs and SNAcc infrastructure exchange data over AXI4-Stream interfaces
(paper §4.1).  The model works on *transfers* — a run of beats with one
entry in the channel — rather than individual 64-byte beats: serialization
time is charged per byte at the interface's width x clock rate, and
backpressure comes from a bounded byte-capacity FIFO, so a stalled consumer
stalls the producer exactly as TREADY deassertion would.

``StreamFlit.meta`` carries side-band information (command fields); `last`
maps to TLAST.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional

import numpy as np

from ..errors import ConfigError
from ..sim.core import Event, Simulator
from ..units import KiB, ns_for_bytes

__all__ = ["StreamFlit", "AxiStream"]


@dataclass(slots=True)
class StreamFlit:
    """One stream transfer: optional payload bytes, size, TLAST, side-band."""

    nbytes: int
    data: Optional[np.ndarray] = None
    last: bool = False
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.nbytes < 0:
            raise ConfigError(f"flit nbytes must be >= 0, got {self.nbytes}")
        if self.data is not None and len(self.data) != self.nbytes:
            raise ConfigError(
                f"flit data length {len(self.data)} != nbytes {self.nbytes}")


class AxiStream:
    """Point-to-point stream with width/clock serialization and a byte FIFO."""

    def __init__(self, sim: Simulator, name: str = "axis",
                 width_bytes: int = 64, clock_mhz: float = 300.0,
                 fifo_bytes: int = 64 * KiB):
        if width_bytes < 1 or clock_mhz <= 0:
            raise ConfigError("invalid stream width/clock")
        if fifo_bytes < width_bytes:
            raise ConfigError("fifo must hold at least one beat")
        self.sim = sim
        self.name = name
        self.width_bytes = width_bytes
        self.clock_mhz = clock_mhz
        self.fifo_bytes = fifo_bytes
        self._queue: Deque[StreamFlit] = deque()
        self._queued_bytes = 0
        self._space_kick = Event(sim)
        self._data_kick = Event(sim)
        self.total_flits = 0
        self.total_bytes = 0
        #: memoized :meth:`serialize_ns` — flit sizes repeat endlessly
        self._ns_cache: Dict[int, int] = {}

    @property
    def gbps(self) -> float:
        """Peak stream rate in decimal GB/s."""
        return self.width_bytes * self.clock_mhz / 1000.0

    def _beats(self, nbytes: int) -> int:
        return max(1, -(-nbytes // self.width_bytes))

    def serialize_ns(self, nbytes: int) -> int:
        """Wire time of an *nbytes* transfer at this width/clock."""
        ns = self._ns_cache.get(nbytes)
        if ns is None:
            ns = ns_for_bytes(self._beats(nbytes) * self.width_bytes,
                              self.gbps)
            self._ns_cache[nbytes] = ns
        return ns

    # -- producer side ----------------------------------------------------------
    def send(self, flit: StreamFlit):
        """Generator: serialize *flit* onto the stream (blocks on full FIFO)."""
        cost = max(flit.nbytes, self.width_bytes)  # a command beat still costs one slot
        while self._queued_bytes + cost > self.fifo_bytes and self._queue:
            yield self._space_kick
        yield self.sim.timeout(self.serialize_ns(flit.nbytes))
        self._queue.append(flit)
        self._queued_bytes += cost
        self.total_flits += 1
        self.total_bytes += flit.nbytes
        kick, self._data_kick = self._data_kick, Event(self.sim)
        kick.succeed()

    # -- consumer side ------------------------------------------------------------
    def recv(self):
        """Generator: take the oldest flit (blocks while empty)."""
        while not self._queue:
            yield self._data_kick
        flit = self._queue.popleft()
        self._queued_bytes -= max(flit.nbytes, self.width_bytes)
        kick, self._space_kick = self._space_kick, Event(self.sim)
        kick.succeed()
        return flit

    def try_recv(self) -> Optional[StreamFlit]:
        """Non-blocking take; None when empty."""
        if not self._queue:
            return None
        flit = self._queue.popleft()
        self._queued_bytes -= max(flit.nbytes, self.width_bytes)
        kick, self._space_kick = self._space_kick, Event(self.sim)
        kick.succeed()
        return flit

    @property
    def queued_flits(self) -> int:
        """Flits currently buffered."""
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<AxiStream {self.name} {self.queued_flits} flits "
                f"{self._queued_bytes}B queued>")
