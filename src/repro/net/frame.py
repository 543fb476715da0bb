"""Ethernet frame model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..errors import ConfigError, EthernetError

__all__ = ["EthernetFrame", "PAUSE_ETHERTYPE", "FRAME_OVERHEAD_BYTES",
           "MAX_PAYLOAD_BYTES", "check_coarsening"]

#: MAC control frames (802.3x PAUSE) use this EtherType.
PAUSE_ETHERTYPE = 0x8808
#: preamble(8) + header(14) + FCS(4) + inter-frame gap(12)
FRAME_OVERHEAD_BYTES = 38
#: jumbo-frame payload limit used by this system
MAX_PAYLOAD_BYTES = 9000


@dataclass(slots=True)
class EthernetFrame:
    """One frame: payload size, optional real bytes, side-band metadata.

    ``slots=True``: frames are the hottest per-object allocation on the
    train path (one per 8 KiB of fleet traffic), and slots cut both the
    per-instance footprint and the attribute-access cost.
    """

    payload_bytes: int
    data: Optional[np.ndarray] = None
    ethertype: int = 0x0800
    #: PAUSE quanta for control frames: 0xFFFF = XOFF, 0 = XON
    pause_quanta: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.ethertype == PAUSE_ETHERTYPE:
            if self.payload_bytes != 64:
                raise EthernetError("PAUSE frames are minimum-size (64 B)")
        elif not 1 <= self.payload_bytes <= MAX_PAYLOAD_BYTES:
            raise EthernetError(
                f"payload {self.payload_bytes} outside [1, {MAX_PAYLOAD_BYTES}]")
        if self.data is not None and len(self.data) != self.payload_bytes:
            raise EthernetError(
                f"data length {len(self.data)} != payload {self.payload_bytes}")

    @property
    def is_pause(self) -> bool:
        """True for an 802.3x PAUSE control frame."""
        return self.ethertype == PAUSE_ETHERTYPE

    @property
    def wire_bytes(self) -> int:
        """Bytes the frame occupies on the wire (incl. preamble/IFG)."""
        return max(64, self.payload_bytes) + FRAME_OVERHEAD_BYTES


def pause_frame(quanta: int) -> EthernetFrame:
    """Build an XOFF (quanta > 0) or XON (quanta == 0) control frame."""
    return EthernetFrame(payload_bytes=64, ethertype=PAUSE_ETHERTYPE,
                         pause_quanta=quanta)


def check_coarsening(coarsening: str) -> None:
    """Reject an unknown frame-transfer coarsening mode (DESIGN.md §11)."""
    if coarsening not in ("train", "per_frame"):
        raise ConfigError(
            f"coarsening must be 'train' or 'per_frame', got {coarsening!r}")
