"""SSD backend: NAND channel timing and the write-cache program engine.

This is the device *behind* the NVMe controller front end.  Reads are
served by NAND channels — an aggregate streaming pipe for large transfers,
per-channel queues (striped by page address) for small random ones, which
is what gives the drive its out-of-order completion behaviour.  Writes land
in the controller's DRAM cache and are acknowledged quickly; the sustained
rate is governed by the program engine, whose internal phase alternates
between a fast and a slow state (the paper's 6.24/5.90 GB/s observation).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict

import numpy as np

from ..errors import ConfigError
from ..sim.core import Simulator
from ..sim.resources import Resource
from ..units import PAGE, ns_for_bytes
from .profiles import SsdPerfProfile

__all__ = ["SsdBackend"]


class SsdBackend:
    """Timing backend for the NVMe controller (no protocol knowledge)."""

    def __init__(self, sim: Simulator, profile: SsdPerfProfile):
        profile.validate()
        self.sim = sim
        self.profile = profile
        self._channels = [Resource(sim, 1, name=f"nand.ch{i}")
                          for i in range(profile.n_channels)]
        self._channel_last_page = [-(10 ** 9)] * profile.n_channels
        #: aggregate streaming pipe for large reads
        self._array = Resource(sim, 1, name="nand.array")
        #: serialized program engine (write drain): busy flag and the
        #: requests waiting behind the one being programmed
        self._programming = False
        self._program_queue: Deque[tuple] = deque()
        self.programmed_bytes = 0
        self.read_bytes = 0
        #: memoized streaming-read times — sequential reads repeat one
        #: command size for a whole run
        self._stream_ns: Dict[int, int] = {}
        self._rng = np.random.default_rng(profile.rand_seed)
        # Two-point service distribution preserving the mean: the slow path
        # (read retry / die contention) is what head-of-line blocking in an
        # in-order consumer pays for; an out-of-order consumer sees the mean.
        frac, mult = profile.rand_read_slow_frac, profile.rand_read_slow_mult
        self._slow_service = int(profile.page_read_rand_ns * mult)
        if frac < 1:
            fast_mult = (1 - frac * mult) / (1 - frac)
        else:  # pragma: no cover - rejected by validate()
            fast_mult = 1.0
        self._fast_service = max(1, int(profile.page_read_rand_ns * fast_mult))

    # -- write phase ------------------------------------------------------------
    @property
    def write_phase(self) -> int:
        """0 = fast phase, 1 = slow phase (toggles per phase period)."""
        return (self.programmed_bytes // self.profile.write_phase_period_bytes) % 2

    @property
    def current_write_gbps(self) -> float:
        """Program rate of the current phase."""
        return (self.profile.write_phase_a_gbps if self.write_phase == 0
                else self.profile.write_phase_b_gbps)

    def advance_write_phase(self) -> None:
        """Skip to the start of the next internal phase (test/bench control)."""
        period = self.profile.write_phase_period_bytes
        self.programmed_bytes = (self.programmed_bytes // period + 1) * period

    # -- reads --------------------------------------------------------------------
    def channel_of(self, page_index: int) -> int:
        """NAND channel a page stripes to."""
        return page_index % self.profile.n_channels

    def read_page_random(self, page_index: int):
        """Generator: serve one 4 KiB page via its channel (random path).

        Service occupies the channel; the extra pipelined latency that
        follows does not (callers time-out on it separately so the channel
        can start the next page).
        """
        ch = self.channel_of(page_index)
        res = self._channels[ch]
        if not res.acquire_inline():
            yield res.acquire()
        try:
            prof = self.profile
            # A striped continuation (same channel, next stripe line) hits
            # the already-sensed NAND page and is served at streaming rate.
            seq = (page_index - self._channel_last_page[ch]
                   == prof.n_channels)
            self._channel_last_page[ch] = page_index
            if seq:
                service = ns_for_bytes(
                    PAGE * prof.n_channels, prof.seq_read_gbps)
            elif self._rng.random() < prof.rand_read_slow_frac:
                service = self._slow_service
            else:
                service = self._fast_service
            yield self.sim.timeout(service)
        finally:
            res.release()
        self.read_bytes += PAGE

    def read_stream(self, nbytes: int):
        """Generator: serve *nbytes* of sequential read from the NAND array.

        Large commands stripe across every channel, so they are modelled as
        one aggregate streaming pipe shared by all concurrent large reads.
        """
        if nbytes <= 0:
            raise ConfigError(f"read_stream of {nbytes} bytes")
        ns = self._stream_ns.get(nbytes)
        if ns is None:
            ns = ns_for_bytes(nbytes, self.profile.seq_read_gbps)
            self._stream_ns[nbytes] = ns
        if not self._array.acquire_inline():
            yield self._array.acquire()
        try:
            yield self.sim.timeout(ns)
        finally:
            self._array.release()
        self.read_bytes += nbytes

    def read_completion_latency(self):
        """Generator: the pipelined tail latency after NAND service."""
        yield self.sim.timeout(self.profile.read_extra_latency_ns)

    # -- writes ---------------------------------------------------------------------
    def program(self, npages: int, extra_ns: int,
                done: Callable[[Any], None], arg: Any = None) -> None:
        """Queue *npages* on the program engine; ``done(arg)`` once programmed.

        The engine programs one request at a time, in arrival order, at the
        rate of the write phase current when the request starts.
        ``extra_ns`` folds in per-command overhead (allocation, mapping).
        Driven by scheduled calls rather than a process: an idle engine
        starts a request one zero-delay call after its arrival, and a busy
        one starts the next request with a zero-delay call when the
        current one ends — the grant positions of a FIFO semaphore.
        """
        if npages <= 0:
            raise ConfigError(f"program of {npages} pages")
        request = (npages, extra_ns, done, arg)
        if self._programming:
            self._program_queue.append(request)
        else:
            self._programming = True
            self.sim.schedule_call(0, self._program_start, request)

    def _program_start(self, request) -> None:
        per_page = ns_for_bytes(PAGE, self.current_write_gbps)
        self.sim.schedule_call(request[0] * per_page + request[1],
                               self._program_end, request)

    def _program_end(self, request) -> None:
        if self._program_queue:
            self.sim.schedule_call(0, self._program_start,
                                   self._program_queue.popleft())
        else:
            self._programming = False
        npages, _extra_ns, done, arg = request
        self.programmed_bytes += npages * PAGE
        done(arg)

    def write_ack_latency(self):
        """Generator: cache-acknowledge latency after the last page arrives."""
        yield self.sim.timeout(self.profile.write_ack_latency_ns)
