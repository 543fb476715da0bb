"""Queue-ring geometry and consumer-side helpers.

An NVMe queue is a circular buffer of fixed-size entries living at some bus
address (host memory for SPDK and the admin queue; a BAR-exposed FIFO inside
the NVMe Streamer IP for SNAcc).  These classes hold only *geometry and
pointers* — the bytes themselves always live in a simulated memory and move
over the fabric, exactly as in hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError, QueueFullError
from ..mem.timed import TimedMemory
from .command import CompletionEntry
from .spec import CQE_BYTES, SQE_BYTES

__all__ = ["QueueRing", "SubmissionRing", "CompletionRing", "doorbell_offset"]

#: Doorbell registers start at this offset in the controller BAR (spec: 0x1000).
DOORBELL_BASE = 0x1000
#: Doorbell stride (CAP.DSTRD = 0 -> 4 bytes).
DOORBELL_STRIDE = 4
#: Byte of a CQE whose bit 0 is the phase tag (see repro.nvme.command).
CQE_PHASE_BYTE = 14


def doorbell_offset(qid: int, is_cq: bool) -> int:
    """BAR offset of the tail (SQ) or head (CQ) doorbell of queue *qid*."""
    if qid < 0:
        raise ConfigError(f"qid must be >= 0, got {qid}")
    return DOORBELL_BASE + (2 * qid + (1 if is_cq else 0)) * DOORBELL_STRIDE


@dataclass
class QueueRing:
    """Circular-buffer geometry: base bus address, entry count and size."""

    base_addr: int
    entries: int
    entry_bytes: int
    qid: int = 0

    def __post_init__(self):
        if self.entries < 2:
            raise ConfigError(f"queue needs >= 2 entries, got {self.entries}")
        if self.entry_bytes <= 0:
            raise ConfigError("entry_bytes must be > 0")

    @property
    def size_bytes(self) -> int:
        """Total ring footprint in bytes."""
        return self.entries * self.entry_bytes

    def entry_addr(self, index: int) -> int:
        """Bus address of slot *index*."""
        if not 0 <= index < self.entries:
            raise ConfigError(f"slot {index} outside ring of {self.entries}")
        return self.base_addr + index * self.entry_bytes

    def advance(self, index: int, count: int = 1) -> int:
        """Ring-increment *index* by *count*."""
        return (index + count) % self.entries

    def occupancy(self, head: int, tail: int) -> int:
        """Entries currently queued given producer *tail* and consumer *head*."""
        return (tail - head) % self.entries

    def free_slots(self, head: int, tail: int) -> int:
        """Slots available to the producer (one slot is always kept empty)."""
        return self.entries - 1 - self.occupancy(head, tail)


class SubmissionRing(QueueRing):
    """Submission queue ring (64-byte entries) with producer-side state."""

    def __init__(self, base_addr: int, entries: int, qid: int = 0):
        super().__init__(base_addr, entries, SQE_BYTES, qid)
        self.tail = 0       # producer-owned
        self.head = 0       # last head reported by the controller (via CQEs)

    def claim_slot(self) -> int:
        """Reserve the next slot for a new entry; raises when full."""
        if self.free_slots(self.head, self.tail) == 0:
            raise QueueFullError(f"SQ {self.qid} full ({self.entries} entries)")
        slot = self.tail
        self.tail = self.advance(self.tail)
        return slot

    def note_head(self, head: int) -> None:
        """Record the controller-reported head (frees slots)."""
        if not 0 <= head < self.entries:
            raise ConfigError(f"bad reported head {head}")
        self.head = head


class CompletionRing(QueueRing):
    """Completion queue ring (16-byte entries) with phase-bit consumer state.

    The controller toggles the expected phase each wrap; the consumer polls
    the next slot and accepts the entry only when its phase bit matches.
    Host-memory consumers (the SPDK driver, the admin client) poll through
    :meth:`poll`.
    """

    def __init__(self, base_addr: int, entries: int, qid: int = 0):
        super().__init__(base_addr, entries, CQE_BYTES, qid)
        self.head = 0           # consumer-owned
        self.expected_phase = 1

    def next_addr(self) -> int:
        """Bus address the consumer should poll."""
        return self.entry_addr(self.head)

    def poll(self, mem: TimedMemory, bus_base: int = 0) -> CompletionEntry | None:
        """Accept the head entry from *mem* if the controller has posted it.

        *mem* is the timed memory holding the ring at bus address minus
        *bus_base*.  Reads are functional (zero simulated time).  The
        phase bit is peeked with a one-byte read first; the 16-byte entry
        is copied and decoded only when it matches, so an idle poll of a
        stale slot costs one byte.  The result is exactly
        ``try_accept(mem.read(slot, CQE_BYTES))``.
        """
        addr = self.base_addr + self.head * CQE_BYTES - bus_base
        if mem.read_byte(addr + CQE_PHASE_BYTE) & 1 != self.expected_phase:
            return None
        return self.try_accept(bytes(mem.read(addr, CQE_BYTES)))

    def try_accept(self, raw: bytes) -> CompletionEntry | None:
        """Decode *raw*; returns the entry if its phase matches, else None.

        On acceptance the consumer head advances (the caller still needs to
        ring the CQ head doorbell, batched or otherwise).
        """
        cqe = CompletionEntry.unpack(raw)
        if cqe.phase != self.expected_phase:
            return None
        self.head = self.advance(self.head)
        if self.head == 0:
            self.expected_phase ^= 1
        return cqe
