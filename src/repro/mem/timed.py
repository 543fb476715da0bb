"""Shared machinery for memories with access timing.

A :class:`TimedMemory` couples a functional byte store with a timing model.
Accesses are generator methods to be driven by a simulation process::

    data = yield from mem.timed_read(addr, 4096)
    yield from mem.timed_write(addr, data)

Transfers may be *sized-only* (``data=None, nbytes=n``): the timing model is
exercised identically but no bytes are stored, which keeps large performance
benchmarks fast.  All control logic is shared between the two modes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sim.core import Simulator
from .base import BytesLike, Memory, SparseMemory

__all__ = ["TimedMemory", "AccessStats"]


class AccessStats:
    """Counters every timed memory keeps: accesses, bytes, per direction."""

    __slots__ = ("reads", "writes", "read_bytes", "written_bytes", "turnarounds")

    def __init__(self):
        self.reads = 0
        self.writes = 0
        self.read_bytes = 0
        self.written_bytes = 0
        self.turnarounds = 0

    @property
    def total_bytes(self) -> int:
        """Bytes moved in either direction."""
        return self.read_bytes + self.written_bytes

    def reset(self) -> None:
        """Zero all counters."""
        self.reads = self.writes = 0
        self.read_bytes = self.written_bytes = 0
        self.turnarounds = 0


class TimedMemory:
    """Base class: functional backing plus a subclass-defined timing model.

    Subclasses implement :meth:`timed_read` and :meth:`timed_write` flat,
    each inlining its own port contention and timing (one generator frame
    per access on the hottest paths of the reproduction).
    """

    def __init__(self, sim: Simulator, size: int, name: str = "",
                 sparse: bool = False):
        self.sim = sim
        self.name = name
        # Sparse backing keeps huge regions (host DRAM) cheap: pages
        # materialise only when written.
        self.backing = (SparseMemory(size, name=name) if sparse
                        else Memory(size, name=name))
        self.stats = AccessStats()

    @property
    def size(self) -> int:
        """Capacity in bytes."""
        return self.backing.size

    # -- functional (zero-time) access, for init/inspection ------------------
    def read(self, addr: int, nbytes: int) -> np.ndarray:
        """Zero-time functional read (initialisation / test inspection)."""
        return self.backing.read(addr, nbytes)

    def read_byte(self, addr: int) -> int:
        """Zero-time functional read of one byte (status-bit polling)."""
        return self.backing.read_byte(addr)

    def write(self, addr: int, data: BytesLike) -> None:
        """Zero-time functional write (initialisation / test setup)."""
        self.backing.write(addr, data)

    def fill(self, addr: int, nbytes: int, value: int) -> None:
        """Zero-time functional fill (initialisation / test setup)."""
        self.backing.fill(addr, nbytes, value)

    # -- timed access: the interface every concrete memory implements -------
    def timed_read(self, addr: int, nbytes: int, functional: bool = True):
        """Generator: timed read of *nbytes* at *addr*.

        Bounds-checks, waits out the memory's timing model, counts the
        access in :attr:`stats`, and returns the data (``None`` when
        *functional* is False).
        """
        raise NotImplementedError

    def timed_write(self, addr: int, data: Optional[BytesLike] = None,
                    nbytes: Optional[int] = None):
        """Generator: timed write of *data* (or a sized-only write of
        *nbytes*); raises ValueError when neither is given or they
        disagree, otherwise like :meth:`timed_read`."""
        raise NotImplementedError
