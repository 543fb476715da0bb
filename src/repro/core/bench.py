"""Workload engine for SNAcc (the counterpart of :class:`repro.spdk.SpdkPerf`).

Reproduces the paper's §5 benchmarks from the *user PE's* point of view:

* sequential: one large user transfer (the streamer splits it into 1 MiB
  NVMe commands and pipelines them through its 64-deep in-order window);
* random: many independent 4 KiB user commands issued back to back (the
  issue rate is gated by the streamer's in-order retirement — the paper's
  random-read limitation);
* latency probes: one command at a time, PE-observed.
"""

from __future__ import annotations

from typing import Any, Generator, Iterator, List, Tuple

import numpy as np

from ..errors import ConfigError
from ..sim.core import Event, Simulator
from ..spdk.bench import IoRunResult
from ..units import KiB
from .stream_adapter import SnaccUserPort

__all__ = ["SnaccPerf"]


class SnaccPerf:
    """Drives an initialized SNAcc user port through workloads."""

    def __init__(self, sim: Simulator, user: SnaccUserPort,
                 functional: bool = False) -> None:
        self.sim = sim
        self.user = user
        self.functional = functional

    # -- sequential -----------------------------------------------------------
    def seq_read(self, total_bytes: int, device_addr: int = 0,
                 ) -> Generator[Event, Any, IoRunResult]:
        """Generator: one large user read (paper Fig 4a seq-r)."""
        start = self.sim.now
        yield from self.user.issue_read(device_addr, total_bytes)
        yield from self.user.collect_read(functional=self.functional)
        return IoRunResult(total_bytes, max(1, self.sim.now - start), [])

    def seq_write(self, total_bytes: int, device_addr: int = 0,
                  ) -> Generator[Event, Any, IoRunResult]:
        """Generator: one large user write (paper Fig 4a seq-w)."""
        start = self.sim.now
        yield from self.user.write(device_addr, nbytes=total_bytes)
        return IoRunResult(total_bytes, max(1, self.sim.now - start), [])

    # -- random ---------------------------------------------------------------
    def rand_read(self, total_bytes: int, io_bytes: int = 4 * KiB,
                  region_bytes: int | None = None, seed: int = 1,
                  ) -> Generator[Event, Any, IoRunResult]:
        """Generator: independent random reads (paper Fig 4b rand-r).

        Commands are issued as fast as the streamer accepts them; a
        collector drains the data stream concurrently.
        """
        n_ios, addrs = self._rand_addrs(total_bytes, io_bytes,
                                        region_bytes, seed)
        start = self.sim.now

        def issuer() -> Iterator[Event]:
            for a in addrs:
                yield from self.user.issue_read(int(a), io_bytes)

        def collector() -> Iterator[Event]:
            for _ in range(n_ios):
                yield from self.user.collect_read(functional=self.functional)

        done = self.sim.process(collector())
        _ = self.sim.process(issuer())
        yield done
        return IoRunResult(total_bytes, max(1, self.sim.now - start), [])

    def rand_write(self, total_bytes: int, io_bytes: int = 4 * KiB,
                   region_bytes: int | None = None, seed: int = 1,
                   ) -> Generator[Event, Any, IoRunResult]:
        """Generator: independent random writes (paper Fig 4b rand-w)."""
        n_ios, addrs = self._rand_addrs(total_bytes, io_bytes,
                                        region_bytes, seed)
        start = self.sim.now

        def issuer() -> Iterator[Event]:
            for a in addrs:
                yield from self.user.issue_write(int(a), nbytes=io_bytes)

        def collector() -> Iterator[Event]:
            for _ in range(n_ios):
                yield from self.user.collect_write_response()

        done = self.sim.process(collector())
        _ = self.sim.process(issuer())
        yield done
        return IoRunResult(total_bytes, max(1, self.sim.now - start), [])

    def _rand_addrs(self, total_bytes: int, io_bytes: int,
                    region_bytes: int | None, seed: int,
                    ) -> Tuple[int, "np.ndarray"]:
        if total_bytes % io_bytes:
            raise ConfigError(
                f"total {total_bytes} not a multiple of io size {io_bytes}")
        region = region_bytes or (32 << 30)
        rng = np.random.default_rng(seed)
        n_ios = total_bytes // io_bytes
        addrs = rng.integers(0, region // io_bytes, size=n_ios) * io_bytes
        return n_ios, addrs

    # -- latency -----------------------------------------------------------------
    def read_latency(self, samples: int = 10, io_bytes: int = 4 * KiB,
                     region_bytes: int | None = None, seed: int = 2,
                     ) -> Generator[Event, Any, List[int]]:
        """Generator: QD-1 read latencies, PE command to last data beat."""
        _, addrs = self._rand_addrs(samples * io_bytes, io_bytes,
                                    region_bytes, seed)
        out: List[int] = []
        for a in addrs:
            t0 = self.sim.now
            yield from self.user.read(int(a), io_bytes,
                                      functional=self.functional)
            out.append(self.sim.now - t0)
        return out

    def write_latency(self, samples: int = 10, io_bytes: int = 4 * KiB,
                      region_bytes: int | None = None, seed: int = 3,
                      ) -> Generator[Event, Any, List[int]]:
        """Generator: QD-1 write latencies, PE command to response token."""
        _, addrs = self._rand_addrs(samples * io_bytes, io_bytes,
                                    region_bytes, seed)
        out: List[int] = []
        for a in addrs:
            t0 = self.sim.now
            yield from self.user.write(int(a), nbytes=io_bytes)
            out.append(self.sim.now - t0)
        return out
