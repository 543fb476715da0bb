"""Configuration of the SNAcc NVMe Streamer."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..errors import ConfigError
from ..units import KiB, MiB, is_aligned

__all__ = ["StreamerVariant", "StreamerConfig", "default_config_for"]


class StreamerVariant(Enum):
    """Which memory holds the NVMe data buffers (paper §4.3)."""

    URAM = "uram"
    ONBOARD_DRAM = "onboard_dram"
    HOST_DRAM = "host_dram"


@dataclass(frozen=True)
class StreamerConfig:
    """Tunables of one NVMe Streamer instance.

    Defaults reproduce the paper's build: 64-deep shared command queue with
    in-order retirement, 1 MiB command splitting, 4 MiB shared URAM buffer
    or 64 MiB per-direction DRAM/host buffers.
    """

    variant: StreamerVariant = StreamerVariant.URAM
    #: command queue depth == reorder-buffer depth (max in-flight commands)
    queue_depth: int = 64
    #: commands are split at this boundary (paper: 1 MiB, "sufficient to
    #: saturate the available bandwidth and simplifies processing")
    max_cmd_bytes: int = 1 * MiB
    #: URAM variant: one buffer shared between reads and writes
    uram_buffer_bytes: int = 4 * MiB
    #: DRAM/host variants: per-direction buffer size
    dram_buffer_bytes: int = 64 * MiB
    #: streamer command-processing time: parse, buffer bookkeeping, PRP
    #: setup, SQE build — ~75 cycles at the 300 MHz memory clock
    cmd_process_ns: int = 250
    #: outstanding fill writes the fill engine keeps in flight (the
    #: on-board variant's single DRAM write master serializes: 1)
    fill_engine_depth: int = 8
    #: granularity of buffer fill/drain transfers toward the PE side
    stream_chunk_bytes: int = 32 * KiB
    #: burst size the coalescer produces for NVMe accesses to on-board DRAM
    #: (§4.3: "we combine smaller memory accesses ... into a joined 4 kB
    #: burst"); lowering this models disabling the coalescer
    dram_access_bytes: int = 4 * KiB
    #: extra pipelined latency between completion and data reaching the PE
    #: (paper Fig 4c: the DRAM-backed variants must read the buffer memory
    #: through their AXI path before streaming; URAM streams directly)
    drain_extra_latency_ns: int = 0
    #: retire completions out of order (§7 future work; paper ships in-order)
    out_of_order_retirement: bool = False

    def validate(self) -> None:
        """Raise ConfigError on nonsensical parameters."""
        if self.queue_depth < 1 or self.queue_depth > 1024:
            raise ConfigError(f"queue_depth out of range: {self.queue_depth}")
        if self.max_cmd_bytes < 4 * KiB or not is_aligned(self.max_cmd_bytes,
                                                          4 * KiB):
            raise ConfigError("max_cmd_bytes must be a 4 KiB multiple")
        for name in ("uram_buffer_bytes", "dram_buffer_bytes"):
            v = getattr(self, name)
            if v < self.max_cmd_bytes or not is_aligned(v, 4 * KiB):
                raise ConfigError(
                    f"{name} must be a 4 KiB multiple >= max_cmd_bytes")
        if self.stream_chunk_bytes < 64 or self.dram_access_bytes < 64:
            raise ConfigError("chunk sizes must be >= 64 bytes")
        if self.cmd_process_ns < 0 or self.drain_extra_latency_ns < 0:
            raise ConfigError("latencies must be >= 0")
        if self.fill_engine_depth < 1:
            raise ConfigError("fill_engine_depth must be >= 1")


def default_config_for(variant: StreamerVariant) -> StreamerConfig:
    """The paper's configuration of *variant* (incl. measured drain latency)."""
    drain = {StreamerVariant.URAM: 0,
             StreamerVariant.ONBOARD_DRAM: 7000,
             StreamerVariant.HOST_DRAM: 9000}[variant]
    fill_depth = 1 if variant == StreamerVariant.ONBOARD_DRAM else 8
    return StreamerConfig(variant=variant, drain_extra_latency_ns=drain,
                          fill_engine_depth=fill_depth)
