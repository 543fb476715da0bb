"""The NVMe controller: queue engine, PRP walker, command execution.

Everything the paper's system relies on is modelled as real protocol
activity over the fabric:

* doorbell writes land in the controller BAR (posted PCIe writes);
* the controller *fetches* submission entries from wherever the queue lives
  — host memory (SPDK / admin queue) or the streamer's BAR-exposed FIFO —
  one outstanding fetch per queue, batched up to the doorbell tail;
* PRP lists are read over the fabric, so the streamers' on-the-fly PRP
  synthesis is exercised by actual controller reads;
* data pages move as fabric DMA (peer-to-peer when the buffer is on the
  FPGA), with read-payload fetch pipelining that is shallower across P2P —
  the paper's observed write-bandwidth limiter;
* completions are posted out-of-order as the backend finishes, with proper
  phase bits; consumers (SPDK poller / streamer reorder buffer) decide the
  retirement order themselves.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

import numpy as np

from ..errors import InvalidCommandError, NVMeError, NamespaceError
from ..mem.base import as_bytes_array
from ..pcie.root_complex import BarHandler, PcieEndpoint
from ..sim.core import Event, Interrupt, Simulator
from ..sim.resources import Resource
from ..units import PAGE
from .command import CompletionEntry, SubmissionEntry
from .namespace import Namespace
from .prp import parse_prp_list_page
from .profiles import SsdPerfProfile
from .queues import DOORBELL_BASE, DOORBELL_STRIDE
from .spec import (AdminOpcode, CQE_BYTES, IoOpcode, PRPS_PER_LIST_PAGE,
                   SQE_BYTES, StatusCode)
from .ssd import SsdBackend

__all__ = ["NvmeController", "ControllerStats"]

#: identify data structure size
IDENTIFY_BYTES = 4096
#: SQEs fetched per queue read (bounded by doorbell distance and wrap)
FETCH_BATCH_MAX = 16


@dataclass
class ControllerStats:
    """Operation counters for tests and traffic analysis."""

    reads_completed: int = 0
    writes_completed: int = 0
    flushes_completed: int = 0
    admin_completed: int = 0
    errors: int = 0
    read_bytes: int = 0
    written_bytes: int = 0
    prp_list_reads: int = 0
    sqe_fetches: int = 0


class _WriteCmd:
    """A write command's pages in flight on the fetch lanes."""

    __slots__ = ("chunks", "remaining", "error", "done")

    def __init__(self, sim: Simulator, npages: int):
        self.chunks: List[Optional[np.ndarray]] = [None] * npages
        #: pages not yet programmed
        self.remaining = npages
        #: the first failed page fetch's exception
        self.error: Optional[BaseException] = None
        #: fires two scheduler slots after the last page is programmed
        #: (or its fetch failed)
        self.done = sim.event()


class _CqState:
    def __init__(self, sim: Simulator, qid: int, base: int, entries: int):
        self.qid = qid
        self.base = base
        self.entries = entries
        self.tail = 0                  # controller-owned producer pointer
        self.phase = 1
        self.head_doorbell = 0         # consumer head from doorbell writes
        self.space_kick = Event(sim)

    def occupancy(self) -> int:
        return (self.tail - self.head_doorbell) % self.entries

    def is_full(self) -> bool:
        return self.occupancy() >= self.entries - 1


class _SqState:
    def __init__(self, sim: Simulator, qid: int, base: int, entries: int,
                 cq: _CqState):
        self.qid = qid
        self.base = base
        self.entries = entries
        self.cq = cq
        self.tail_doorbell = 0
        self.fetch_head = 0            # next entry the controller will fetch
        self.kick = Event(sim)
        self.poller = None

    def pending(self) -> int:
        return (self.tail_doorbell - self.fetch_head) % self.entries


class NvmeController(BarHandler):
    """Controller front end + its BAR (doorbell registers)."""

    def __init__(self, sim: Simulator, endpoint: PcieEndpoint,
                 backend: SsdBackend, namespace: Namespace,
                 name: str = "nvme0", functional: bool = True):
        self.sim = sim
        self.endpoint = endpoint
        self.backend = backend
        self.namespace = namespace
        self.name = name
        #: carry real payload bytes end to end (False = timing-only runs)
        self.functional = functional
        self.stats = ControllerStats()
        self.profile: SsdPerfProfile = backend.profile
        self._sqs: Dict[int, _SqState] = {}
        self._cqs: Dict[int, _CqState] = {}
        self._exec_credits = Resource(sim, self.profile.max_outstanding,
                                      name=f"{name}.exec")
        self.enabled = False
        #: the controller's shallow payload-fetch pipeline (see _exec_write):
        #: up to ``data_fetch_depth`` lanes, the parked ones waiting on
        #: these events, and the write pages queued for a lane
        self._lanes = 0
        self._idle_lanes: Deque[Event] = deque()
        self._fetch_queue: Deque[tuple] = deque()
        #: fault injection (repro.faults); None = no extra work anywhere
        self._fault_site = None
        self._fault_cfg = None
        self._fault_stats = None

    def attach_faults(self, plan, stats) -> None:
        """Inject seeded command failures / CQE delays (repro.faults).

        A no-op unless the plan carries a non-zero NVMe rate, so a fully
        disabled plan leaves the execution path untouched.
        """
        cfg = plan.config
        if cfg.nvme_cmd_fail_rate <= 0 and cfg.nvme_cqe_delay_rate <= 0:
            return
        self._fault_site = plan.site(f"{self.name}.cmd")
        self._fault_cfg = cfg
        self._fault_stats = stats

    # ------------------------------------------------------------------ admin
    def configure_admin_queues(self, asq_addr: int, asq_entries: int,
                               acq_addr: int, acq_entries: int) -> None:
        """Program ASQ/ACQ bases (models config-space register writes)."""
        if self.enabled:
            raise NVMeError("cannot reprogram admin queues while enabled")
        acq = _CqState(self.sim, 0, acq_addr, acq_entries)
        asq = _SqState(self.sim, 0, asq_addr, asq_entries, acq)
        self._cqs[0] = acq
        self._sqs[0] = asq

    def enable(self) -> None:
        """CC.EN: start the queue engine (admin queue must be configured)."""
        if 0 not in self._sqs:
            raise NVMeError("admin queues not configured")
        if self.enabled:
            return
        self.enabled = True
        for sq in self._sqs.values():
            self._start_poller(sq)

    def _start_poller(self, sq: _SqState) -> None:
        if sq.poller is None:
            sq.poller = self.sim.process(self._sq_poller(sq),
                                         name=f"{self.name}.sq{sq.qid}")

    # ------------------------------------------------------------------- BAR
    def _doorbell_target(self, offset: int):
        idx = (offset - DOORBELL_BASE) // DOORBELL_STRIDE
        qid, is_cq = divmod(idx, 2)
        return qid, bool(is_cq)

    def bar_write(self, offset: int, data=None, nbytes=None):
        """BAR writes: only the doorbell region is writable."""
        if offset < DOORBELL_BASE:
            raise NVMeError(
                f"{self.name}: write to config region {offset:#x} "
                "(use configure_admin_queues/enable)")
        if data is None:
            raise NVMeError("doorbell writes must carry a value")
        value = int.from_bytes(bytes(as_bytes_array(data)[:4]), "little")
        qid, is_cq = self._doorbell_target(offset)
        yield self.sim.timeout(10)  # register write pipeline
        if is_cq:
            cq = self._cqs.get(qid)
            if cq is None:
                raise NVMeError(f"doorbell for unknown CQ {qid}")
            if not 0 <= value < cq.entries:
                raise NVMeError(f"CQ{qid} head doorbell {value} out of range")
            cq.head_doorbell = value
            kick, cq.space_kick = cq.space_kick, Event(self.sim)
            kick.succeed()
        else:
            sq = self._sqs.get(qid)
            if sq is None:
                raise NVMeError(f"doorbell for unknown SQ {qid}")
            if not 0 <= value < sq.entries:
                raise NVMeError(f"SQ{qid} tail doorbell {value} out of range")
            sq.tail_doorbell = value
            kick, sq.kick = sq.kick, Event(self.sim)
            kick.succeed()

    def bar_read(self, offset: int, nbytes: int, functional: bool = True):
        """BAR reads: doorbell values (diagnostics)."""
        if offset < DOORBELL_BASE:
            raise NVMeError(f"{self.name}: config-region read at {offset:#x}")
        qid, is_cq = self._doorbell_target(offset)
        yield self.sim.timeout(10)
        value = 0
        if is_cq and qid in self._cqs:
            value = self._cqs[qid].head_doorbell
        elif not is_cq and qid in self._sqs:
            value = self._sqs[qid].tail_doorbell
        return np.frombuffer(value.to_bytes(max(4, nbytes), "little")[:nbytes],
                             dtype=np.uint8).copy()

    # ----------------------------------------------------------- queue engine
    def _sq_poller(self, sq: _SqState):
        """Fetch SQEs (one outstanding fetch per queue) and dispatch them."""
        try:
            while True:
                while sq.pending() == 0:
                    yield sq.kick
                batch = min(sq.pending(), FETCH_BATCH_MAX,
                            sq.entries - sq.fetch_head)  # no wrap in one read
                addr = sq.base + sq.fetch_head * SQE_BYTES
                raw = yield from self.endpoint.dma_read(
                    addr, batch * SQE_BYTES, functional=True)
                self.stats.sqe_fetches += 1
                sq.fetch_head = (sq.fetch_head + batch) % sq.entries
                for i in range(batch):
                    sqe = SubmissionEntry.unpack(
                        bytes(raw[i * SQE_BYTES:(i + 1) * SQE_BYTES]))
                    if not self._exec_credits.acquire_inline():
                        yield self._exec_credits.acquire()
                    _ = self.sim.process(self._exec(sqe, sq),
                                     name=f"{self.name}.cmd{sqe.cid}")
        except Interrupt:
            return  # queue deleted

    def _exec(self, sqe: SubmissionEntry, sq: _SqState):
        try:
            if sq.qid == 0:
                status, result = yield from self._exec_admin(sqe)
            elif sqe.opcode == IoOpcode.READ:
                status, result = yield from self._exec_read(sqe)
            elif sqe.opcode == IoOpcode.WRITE:
                status, result = yield from self._exec_write(sqe)
            elif sqe.opcode == IoOpcode.FLUSH:
                yield self.sim.timeout(2000)
                self.stats.flushes_completed += 1
                status, result = StatusCode.SUCCESS, 0
            else:
                status, result = StatusCode.INVALID_OPCODE, 0
        except NamespaceError:
            status, result = StatusCode.LBA_OUT_OF_RANGE, 0
        except InvalidCommandError:
            status, result = StatusCode.INVALID_FIELD, 0
        finally:
            self._exec_credits.release()
        if self._fault_site is not None and sq.qid != 0:
            status = yield from self._inject_faults(sqe, status)
        if status != StatusCode.SUCCESS:
            self.stats.errors += 1
        yield from self._post_cqe(sq, sqe.cid, status, result)

    def _inject_faults(self, sqe: SubmissionEntry, status: int):
        """Apply the fault plan's decisions to one executed IO command.

        Both decisions are drawn unconditionally so command k always maps
        to stream positions 2k/2k+1 regardless of rates or outcome.
        """
        cfg = self._fault_cfg
        fail = self._fault_site.flip(cfg.nvme_cmd_fail_rate)
        delay = self._fault_site.flip(cfg.nvme_cqe_delay_rate)
        if fail and status == StatusCode.SUCCESS:
            self._fault_stats.nvme_failures_injected += 1
            status = (StatusCode.UNRECOVERED_READ_ERROR
                      if sqe.opcode == IoOpcode.READ
                      else StatusCode.WRITE_FAULT)
        if delay:
            self._fault_stats.nvme_cqe_delays += 1
            yield self.sim.timeout(cfg.nvme_cqe_delay_ns)
        return status

    def _post_cqe(self, sq: _SqState, cid: int, status: int, result: int):
        cq = sq.cq
        while cq.is_full():
            yield cq.space_kick
        cqe = CompletionEntry(cid=cid, status=status, sq_head=sq.fetch_head,
                              sq_id=sq.qid, phase=cq.phase, result=result)
        addr = cq.base + cq.tail * CQE_BYTES
        cq.tail = (cq.tail + 1) % cq.entries
        if cq.tail == 0:
            cq.phase ^= 1
        yield from self.endpoint.dma_write(addr, data=cqe.pack())

    # -------------------------------------------------------------- PRP walk
    def _walk_prps(self, sqe: SubmissionEntry, nbytes: int):
        """Resolve the page addresses of a transfer, reading list pages."""
        npages = -(-nbytes // PAGE)
        if sqe.prp1 % PAGE:
            raise InvalidCommandError(
                f"PRP1 {sqe.prp1:#x} not page aligned")
        pages: List[int] = [sqe.prp1]
        if npages == 1:
            return pages
        if npages == 2:
            pages.append(sqe.prp2)
            return pages
        remaining = npages - 1
        addr = sqe.prp2
        while remaining > 0:
            if remaining > PRPS_PER_LIST_PAGE:
                # full page: 511 data entries + 1 chain pointer
                raw = yield from self.endpoint.dma_read(
                    addr, PRPS_PER_LIST_PAGE * 8, functional=True)
                entries = parse_prp_list_page(bytes(raw))
                pages.extend(entries[:-1])
                addr = entries[-1]
                remaining -= PRPS_PER_LIST_PAGE - 1
            else:
                raw = yield from self.endpoint.dma_read(
                    addr, remaining * 8, functional=True)
                pages.extend(parse_prp_list_page(bytes(raw)))
                remaining = 0
            self.stats.prp_list_reads += 1
        return pages

    @staticmethod
    def _coalesce(pages: List[int], nbytes: int, max_pages: int):
        """Group page addresses into contiguous (addr, nbytes) runs."""
        runs = []
        i = 0
        remaining = nbytes
        while i < len(pages):
            start = pages[i]
            run_pages = 1
            size = min(PAGE, remaining)
            while (run_pages < max_pages and i + run_pages < len(pages)
                   and pages[i + run_pages] == start + run_pages * PAGE
                   and remaining - size > 0):
                size += min(PAGE, remaining - size)
                run_pages += 1
            runs.append((start, size))
            remaining -= size
            i += run_pages
        if remaining != 0:
            raise InvalidCommandError(
                f"PRP pages cover {nbytes - remaining} of {nbytes} bytes")
        return runs

    # ------------------------------------------------------------------ READ
    def _exec_read(self, sqe: SubmissionEntry):
        nbytes = sqe.nlb * self.namespace.lba_bytes
        if nbytes > self.profile.mdts_bytes:
            raise InvalidCommandError(
                f"transfer {nbytes} exceeds MDTS {self.profile.mdts_bytes}")
        self.namespace.check_range(sqe.slba, sqe.nlb)
        pages = yield from self._walk_prps(sqe, nbytes)
        yield self.sim.timeout(self.profile.read_cmd_overhead_ns)

        media = (self.namespace.read_blocks(sqe.slba, sqe.nlb)
                 if self.functional else None)
        runs = self._coalesce(pages, nbytes, self.profile.batch_pages)
        npages = -(-nbytes // PAGE)

        if npages >= self.profile.n_channels:
            # Large transfer: stream from the NAND array, pipeline data out.
            transfers = []
            offset = 0
            for addr, size in runs:
                yield from self.backend.read_stream(size)
                transfers.append(self.sim.process(
                    self._dma_out(addr, media, offset, size)))
                offset += size
            yield self.sim.all_of(transfers)
            yield from self.backend.read_completion_latency()
        else:
            # Small transfer: per-page channel path (out-of-order inside).
            page_index0 = (sqe.slba * self.namespace.lba_bytes) // PAGE
            jobs = []
            offset = 0
            for addr, size in runs:
                jobs.append(self.sim.process(self._read_pages_random(
                    page_index0 + offset // PAGE, addr, media, offset, size)))
                offset += size
            yield self.sim.all_of(jobs)

        self.stats.reads_completed += 1
        self.stats.read_bytes += nbytes
        return StatusCode.SUCCESS, 0

    def _dma_out(self, addr: int, media, offset: int, size: int):
        # Not a generator: returns the fabric's write generator directly so
        # resuming a data-out event does not walk an extra delegation frame.
        if media is not None:
            return self.endpoint.dma_write(addr, data=media[offset:offset + size])
        return self.endpoint.dma_write(addr, nbytes=size)

    def _read_pages_random(self, page_index: int, addr: int, media,
                           offset: int, size: int):
        done = 0
        while done < size:
            chunk = min(PAGE, size - done)
            yield from self.backend.read_page_random(page_index)
            page_index += 1
            done += chunk
        yield from self.backend.read_completion_latency()
        yield from self._dma_out(addr, media, offset, size)

    # ----------------------------------------------------------------- WRITE
    def _exec_write(self, sqe: SubmissionEntry):
        nbytes = sqe.nlb * self.namespace.lba_bytes
        if nbytes > self.profile.mdts_bytes:
            raise InvalidCommandError(
                f"transfer {nbytes} exceeds MDTS {self.profile.mdts_bytes}")
        self.namespace.check_range(sqe.slba, sqe.nlb)
        pages = yield from self._walk_prps(sqe, nbytes)

        # Payload is fetched page by page (non-posted reads are MRRS-bounded;
        # the on-FPGA burst coalescer joins them back to 4 KiB, §4.3) through
        # the controller's shallow fetch pipeline.  The fetch rate is thus
        # depth x 4 KiB / path-RTT — the P2P write-bandwidth limiter.
        write = _WriteCmd(self.sim, len(pages))
        self.sim.schedule_call(0, self._queue_fetches, [
            (write, idx, addr, min(PAGE, nbytes - idx * PAGE))
            for idx, addr in enumerate(pages)])
        yield write.done

        if self.functional:
            payload = np.concatenate(write.chunks)[:nbytes]
            self.namespace.write_blocks(sqe.slba, payload)
        yield from self.backend.write_ack_latency()
        self.stats.writes_completed += 1
        self.stats.written_bytes += nbytes
        return StatusCode.SUCCESS, 0

    def _queue_fetches(self, fetches: List[tuple]) -> None:
        """Give each page a parked or new lane, or queue it for the next free one.

        One zero-delay call per command; a page that finds a lane starts
        one scheduler slot later (the wake event or the new lane's start).
        """
        idle = self._idle_lanes
        for fetch in fetches:
            if idle:
                idle.popleft().succeed(fetch)
            elif self._lanes < self.profile.data_fetch_depth:
                self._lanes += 1
                _ = self.sim.process(self._fetch_lane(fetch),
                                     name=f"{self.name}.fetch{self._lanes}")
            else:
                self._fetch_queue.append(fetch)

    def _fetch_lane(self, fetch: tuple):
        """One payload-fetch lane: fetch a page, pass it to the program
        engine, take the next queued page; park when none is queued."""
        sim = self.sim
        queue = self._fetch_queue
        while True:
            write, idx, addr, size = fetch
            try:
                data = yield from self.endpoint.dma_read(
                    addr, size, functional=self.functional)
                error = None
            except Exception as exc:  # fails the command, not the lane
                data, error = None, exc
            # The next queued page takes over this lane one scheduler slot
            # from now, or at once when that slot would run next anyway
            # (Simulator.grant_runs_next).
            fetch = queue.popleft() if queue else None
            handoff = (None if fetch is None or sim.grant_runs_next()
                       else sim.event().succeed())
            if error is not None:
                if write.error is None:
                    write.error = error
                    sim.schedule_call(0, self._write_done, write)
            else:
                if data is not None:
                    write.chunks[idx] = data
                self.backend.program(
                    1, self.profile.write_cmd_overhead_ns if idx == 0 else 0,
                    self._page_programmed, write)
            if fetch is None:
                wake = sim.event()
                self._idle_lanes.append(wake)
                fetch = yield wake
            elif handoff is not None:
                yield handoff

    def _page_programmed(self, write: "_WriteCmd") -> None:
        write.remaining -= 1
        if write.remaining == 0 and write.error is None:
            self.sim.schedule_call(0, self._write_done, write)

    @staticmethod
    def _write_done(write: "_WriteCmd") -> None:
        if write.error is None:
            write.done.succeed()
        else:
            write.done.fail(write.error)

    # ----------------------------------------------------------------- admin
    def _exec_admin(self, sqe: SubmissionEntry):
        self.stats.admin_completed += 1
        op = sqe.opcode
        yield self.sim.timeout(5000)  # admin commands are not perf critical
        if op == AdminOpcode.IDENTIFY:
            data = self._identify_data(cns=sqe.cdw10 & 0xFF)
            yield from self.endpoint.dma_write(sqe.prp1, data=data)
            return StatusCode.SUCCESS, 0
        if op == AdminOpcode.CREATE_IO_CQ:
            qid = sqe.cdw10 & 0xFFFF
            entries = ((sqe.cdw10 >> 16) & 0xFFFF) + 1
            if qid == 0 or qid in self._cqs or entries < 2:
                return StatusCode.INVALID_QUEUE_ID, 0
            self._cqs[qid] = _CqState(self.sim, qid, sqe.prp1, entries)
            return StatusCode.SUCCESS, 0
        if op == AdminOpcode.CREATE_IO_SQ:
            qid = sqe.cdw10 & 0xFFFF
            entries = ((sqe.cdw10 >> 16) & 0xFFFF) + 1
            cqid = (sqe.cdw11 >> 16) & 0xFFFF
            if qid == 0 or qid in self._sqs or cqid not in self._cqs \
                    or entries < 2:
                return StatusCode.INVALID_QUEUE_ID, 0
            sq = _SqState(self.sim, qid, sqe.prp1, entries, self._cqs[cqid])
            self._sqs[qid] = sq
            if self.enabled:
                self._start_poller(sq)
            return StatusCode.SUCCESS, 0
        if op == AdminOpcode.DELETE_IO_SQ:
            qid = sqe.cdw10 & 0xFFFF
            sq = self._sqs.pop(qid, None)
            if sq is None or qid == 0:
                return StatusCode.INVALID_QUEUE_ID, 0
            if sq.poller is not None and sq.poller.is_alive:
                sq.poller.interrupt("deleted")
            return StatusCode.SUCCESS, 0
        if op == AdminOpcode.DELETE_IO_CQ:
            qid = sqe.cdw10 & 0xFFFF
            if qid == 0 or qid not in self._cqs:
                return StatusCode.INVALID_QUEUE_ID, 0
            del self._cqs[qid]
            return StatusCode.SUCCESS, 0
        if op in (AdminOpcode.SET_FEATURES, AdminOpcode.GET_FEATURES):
            return StatusCode.SUCCESS, 0xFFFF_FFFF  # queues available
        return StatusCode.INVALID_OPCODE, 0

    def _identify_data(self, cns: int) -> bytes:
        """4 KiB identify structure (controller or namespace)."""
        buf = bytearray(IDENTIFY_BYTES)
        if cns == 1:  # identify controller
            model = b"Simulated 990 PRO-like NVMe SSD"
            buf[24:24 + len(model)] = model
            # MDTS as power-of-two pages at offset 77 (spec layout)
            mdts_pages = self.profile.mdts_bytes // PAGE
            buf[77] = max(1, mdts_pages.bit_length() - 1)
        else:  # identify namespace
            struct.pack_into("<Q", buf, 0, self.namespace.nlb_total)
            struct.pack_into("<Q", buf, 8, self.namespace.nlb_total)
        return bytes(buf)

    # ------------------------------------------------------------- inspection
    @property
    def io_queue_ids(self) -> List[int]:
        """IO submission queue ids currently configured."""
        return sorted(q for q in self._sqs if q != 0)
