"""Functional memory model: byte-backed regions with bounds checking.

Timing lives in the subclasses (:mod:`repro.mem.sram`, :mod:`repro.mem.dram`,
:mod:`repro.mem.hostmem`); this module provides the functional storage layer
shared by all of them.  Payloads are numpy ``uint8`` arrays; a read always
returns a copy so later writes cannot alias into in-flight data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..errors import MemoryError_

__all__ = ["AddressRange", "Memory", "SparseMemory", "as_bytes_array"]

BytesLike = Union[bytes, bytearray, memoryview, np.ndarray]


def as_bytes_array(data: BytesLike) -> np.ndarray:
    """Normalise *data* to a 1-D uint8 numpy array (zero-copy when possible)."""
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8:
            raise TypeError(f"expected uint8 array, got {data.dtype}")
        return data.reshape(-1)
    return np.frombuffer(bytes(data), dtype=np.uint8)


@dataclass(frozen=True)
class AddressRange:
    """A half-open [base, base+size) address interval."""

    base: int
    size: int

    def __post_init__(self):
        if self.base < 0 or self.size <= 0:
            raise ValueError(f"invalid range base={self.base} size={self.size}")

    @property
    def end(self) -> int:
        """One past the last valid address."""
        return self.base + self.size

    def contains(self, addr: int, nbytes: int = 1) -> bool:
        """True if [addr, addr+nbytes) lies fully within the range."""
        return self.base <= addr and addr + nbytes <= self.end

    def overlaps(self, other: "AddressRange") -> bool:
        """True if the two ranges share any address."""
        return self.base < other.end and other.base < self.end

    def offset_of(self, addr: int) -> int:
        """Offset of *addr* from the range base (must be contained)."""
        if not self.contains(addr):
            raise MemoryError_(f"address {addr:#x} outside {self}")
        return addr - self.base

    def __str__(self) -> str:
        return f"[{self.base:#x}, {self.end:#x})"


class Memory:
    """Dense byte-addressable memory backed by a numpy array.

    Suitable for buffers up to a few hundred MiB; use :class:`SparseMemory`
    for terabyte-scale address spaces (SSD media).
    """

    def __init__(self, size: int, name: str = "", fill: int = 0):
        if size <= 0:
            raise ValueError(f"size must be > 0, got {size}")
        self.size = size
        self.name = name
        self._data = np.full(size, fill, dtype=np.uint8)

    def _check(self, addr: int, nbytes: int) -> None:
        if nbytes < 0:
            raise MemoryError_(f"{self.name}: negative length {nbytes}")
        if addr < 0 or addr + nbytes > self.size:
            raise MemoryError_(
                f"{self.name}: access [{addr:#x}, {addr + nbytes:#x}) "
                f"outside size {self.size:#x}")

    def read(self, addr: int, nbytes: int) -> np.ndarray:
        """Copy *nbytes* starting at *addr*."""
        self._check(addr, nbytes)
        return self._data[addr:addr + nbytes].copy()

    def read_byte(self, addr: int) -> int:
        """The byte at *addr*, without copying an array."""
        self._check(addr, 1)
        return int(self._data[addr])

    def write(self, addr: int, data: BytesLike) -> None:
        """Store *data* starting at *addr*."""
        arr = as_bytes_array(data)
        self._check(addr, len(arr))
        self._data[addr:addr + len(arr)] = arr

    def fill(self, addr: int, nbytes: int, value: int) -> None:
        """Set *nbytes* at *addr* to *value*."""
        self._check(addr, nbytes)
        self._data[addr:addr + nbytes] = value

    def view(self) -> np.ndarray:
        """Read-only view of the whole backing array (for tests)."""
        v = self._data.view()
        v.setflags(write=False)
        return v


class SparseMemory:
    """Page-granular sparse memory for huge address spaces.

    Unwritten regions read back as zero.  Used as SSD media backing: a 2 TB
    namespace costs memory only for the pages actually written.
    """

    def __init__(self, size: int, name: str = "", page_size: int = 4096):
        if size <= 0:
            raise ValueError(f"size must be > 0, got {size}")
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError(f"page_size must be a power of two, got {page_size}")
        self.size = size
        self.name = name
        self.page_size = page_size
        self._pages: dict = {}

    def _check(self, addr: int, nbytes: int) -> None:
        if nbytes < 0:
            raise MemoryError_(f"{self.name}: negative length {nbytes}")
        if addr < 0 or addr + nbytes > self.size:
            raise MemoryError_(
                f"{self.name}: access [{addr:#x}, {addr + nbytes:#x}) "
                f"outside size {self.size:#x}")

    @property
    def resident_pages(self) -> int:
        """Number of pages that have been written (memory footprint proxy)."""
        return len(self._pages)

    def read(self, addr: int, nbytes: int) -> np.ndarray:
        """Copy *nbytes* at *addr*; unwritten bytes are zero."""
        self._check(addr, nbytes)
        out = np.zeros(nbytes, dtype=np.uint8)
        ps = self.page_size
        pos = 0
        while pos < nbytes:
            a = addr + pos
            page_idx, off = divmod(a, ps)
            chunk = min(nbytes - pos, ps - off)
            page = self._pages.get(page_idx)
            if page is not None:
                out[pos:pos + chunk] = page[off:off + chunk]
            pos += chunk
        return out

    def read_byte(self, addr: int) -> int:
        """The byte at *addr* (zero when unwritten), without copying."""
        self._check(addr, 1)
        page_idx, off = divmod(addr, self.page_size)
        page = self._pages.get(page_idx)
        return 0 if page is None else int(page[off])

    def write(self, addr: int, data: BytesLike) -> None:
        """Store *data* at *addr*, materialising pages as needed."""
        arr = as_bytes_array(data)
        self._check(addr, len(arr))
        ps = self.page_size
        pos = 0
        while pos < len(arr):
            a = addr + pos
            page_idx, off = divmod(a, ps)
            chunk = min(len(arr) - pos, ps - off)
            page = self._pages.get(page_idx)
            if page is None:
                page = np.zeros(ps, dtype=np.uint8)
                self._pages[page_idx] = page
            page[off:off + chunk] = arr[pos:pos + chunk]
            pos += chunk

    def fill(self, addr: int, nbytes: int, value: int) -> None:
        """Set *nbytes* at *addr* to *value* (materialises pages)."""
        self._check(addr, nbytes)
        ps = self.page_size
        pos = 0
        while pos < nbytes:
            a = addr + pos
            page_idx, off = divmod(a, ps)
            chunk = min(nbytes - pos, ps - off)
            page = self._pages.get(page_idx)
            if page is None:
                page = np.zeros(ps, dtype=np.uint8)
                self._pages[page_idx] = page
            page[off:off + chunk] = value
            pos += chunk

    def discard(self, addr: int, nbytes: int) -> None:
        """Drop whole pages fully covered by [addr, addr+nbytes) (TRIM)."""
        self._check(addr, nbytes)
        ps = self.page_size
        first = -(-addr // ps)                     # first fully-covered page
        last = (addr + nbytes) // ps               # one past last fully covered
        for idx in range(first, last):
            self._pages.pop(idx, None)
