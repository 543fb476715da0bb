"""PCIe traffic accounting for Figure 7.

Counts *payload* bytes crossing each segment of the hierarchy; the fabric
feeds it on every DMA and MMIO operation.  Figure 7 of the paper compares
the total PCIe data volume of the five case-study configurations —
reproduced here by summing segment counters after a run.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["TrafficAccountant"]


class TrafficAccountant:
    """Per-segment payload byte counters ('fpga', 'ssd', 'host', ...)."""

    def __init__(self):
        self._bytes: Dict[str, int] = {}

    def record(self, segment: str, nbytes: int) -> None:
        """Add *nbytes* of payload crossing *segment*."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self._bytes[segment] = self._bytes.get(segment, 0) + nbytes

    def bytes_on(self, segment: str) -> int:
        """Payload bytes seen on *segment* so far."""
        return self._bytes.get(segment, 0)

    @property
    def total_bytes(self) -> int:
        """Payload bytes summed over all segments (Fig 7 metric)."""
        return sum(self._bytes.values())

    def snapshot(self) -> Dict[str, int]:
        """Copy of the per-segment byte counters."""
        return dict(self._bytes)

    def reset(self) -> None:
        """Zero all counters (e.g. after initialization traffic)."""
        self._bytes.clear()
