"""Host-side admin-queue client.

Both host drivers in this system — the SPDK user-space driver and SNAcc's
kernel driver (paper §4.6) — manage the *admin* queue from the host: it
lives in host memory, and it is how IO queues are created wherever they
need to live (host memory for SPDK, the streamer's BAR FIFO for SNAcc).
This client owns that protocol:

* allocates ASQ/ACQ pages in pinned host memory,
* programs the controller's admin queue registers and enables it,
* submits admin commands by writing real SQEs into host memory and ringing
  the SQ0 tail doorbell over MMIO,
* polls the ACQ (phase bit) for completions.
"""

from __future__ import annotations

from ..errors import NVMeError
from ..mem.hostmem import PinnedAllocator
from ..pcie.root_complex import PcieFabric
from ..sim.core import Simulator
from ..units import PAGE
from .command import CompletionEntry, SubmissionEntry
from .controller import NvmeController
from .queues import CompletionRing, SubmissionRing, doorbell_offset
from .spec import AdminOpcode, CQE_BYTES, SQE_BYTES

__all__ = ["AdminQueueClient"]

#: host poll granularity while waiting for admin completions
ADMIN_POLL_NS = 1000
#: how long :meth:`AdminQueueClient.submit` polls for a CQE before it
#: gives up (modelled admin commands complete within tens of µs)
ADMIN_TIMEOUT_NS = 10_000_000


class AdminQueueClient:
    """Drives a controller's admin queue from the host CPU."""

    def __init__(self, sim: Simulator, fabric: PcieFabric,
                 controller: NvmeController, bar_base: int,
                 allocator: PinnedAllocator, host_mem_base: int,
                 entries: int = 16):
        self.sim = sim
        self.fabric = fabric
        self.controller = controller
        self.bar_base = bar_base
        self.allocator = allocator
        self.host_mem_base = host_mem_base
        self._cid = 0
        asq_buf = allocator.allocate(max(PAGE, entries * SQE_BYTES))
        acq_buf = allocator.allocate(max(PAGE, entries * CQE_BYTES))
        self.asq = SubmissionRing(asq_buf.chunks[0].base, entries, qid=0)
        self.acq = CompletionRing(acq_buf.chunks[0].base, entries, qid=0)
        self._initialized = False

    def _host_offset(self, bus_addr: int) -> int:
        return bus_addr - self.host_mem_base

    def initialize(self):
        """Generator: program admin queues and enable the controller."""
        if self._initialized:
            raise NVMeError("admin client already initialized")
        self.controller.configure_admin_queues(
            self.asq.base_addr, self.asq.entries,
            self.acq.base_addr, self.acq.entries)
        self.controller.enable()
        self._initialized = True
        yield self.sim.timeout(10_000)  # controller ready transition (CSTS.RDY)

    def next_cid(self) -> int:
        """Fresh command identifier."""
        self._cid = (self._cid + 1) & 0xFFFF
        return self._cid

    def submit(self, sqe: SubmissionEntry):
        """Generator: submit an admin command and wait for its completion.

        Returns the :class:`CompletionEntry`; raises :class:`NVMeError`
        when none lands within :data:`ADMIN_TIMEOUT_NS`.
        """
        if not self._initialized:
            raise NVMeError("initialize() the admin client first")
        host = self.fabric.host_memory
        slot = self.asq.claim_slot()
        host.write(self._host_offset(self.asq.entry_addr(slot)), sqe.pack())
        yield from self.fabric.host_mmio_write(
            self.bar_base + doorbell_offset(0, is_cq=False),
            data=self.asq.tail.to_bytes(4, "little"))
        # Poll the ACQ until the phase bit flips on the head entry.
        deadline = self.sim.now + ADMIN_TIMEOUT_NS
        while True:
            cqe = self.acq.poll(host, self.host_mem_base)
            if cqe is not None:
                break
            if self.sim.now >= deadline:
                raise NVMeError(
                    f"admin command opcode {sqe.opcode:#04x} cid {sqe.cid}: "
                    f"no completion within {ADMIN_TIMEOUT_NS} ns")
            yield self.sim.timeout(ADMIN_POLL_NS)
        self.asq.note_head(cqe.sq_head)
        yield from self.fabric.host_mmio_write(
            self.bar_base + doorbell_offset(0, is_cq=True),
            data=self.acq.head.to_bytes(4, "little"))
        return cqe

    # -- convenience wrappers ---------------------------------------------------
    def identify(self, cns: int = 1):
        """Generator: IDENTIFY; returns the 4 KiB structure."""
        buf = self.allocator.allocate(PAGE)
        sqe = SubmissionEntry(opcode=AdminOpcode.IDENTIFY, cid=self.next_cid(),
                              prp1=buf.chunks[0].base, cdw10=cns)
        cqe = yield from self.submit(sqe)
        if not cqe.ok:
            raise NVMeError(f"IDENTIFY failed with status {cqe.status:#x}")
        host = self.fabric.host_memory
        return host.read(self._host_offset(buf.chunks[0].base), PAGE)

    def create_io_cq(self, qid: int, base_addr: int, entries: int):
        """Generator: CREATE IO CQ at *base_addr* (any bus address)."""
        sqe = SubmissionEntry(
            opcode=AdminOpcode.CREATE_IO_CQ, cid=self.next_cid(),
            prp1=base_addr, cdw10=(qid & 0xFFFF) | ((entries - 1) << 16),
            cdw11=1)  # physically contiguous
        cqe = yield from self.submit(sqe)
        if not cqe.ok:
            raise NVMeError(f"CREATE_IO_CQ({qid}) failed: {cqe.status:#x}")
        return cqe

    def create_io_sq(self, qid: int, base_addr: int, entries: int, cqid: int):
        """Generator: CREATE IO SQ bound to *cqid*."""
        sqe = SubmissionEntry(
            opcode=AdminOpcode.CREATE_IO_SQ, cid=self.next_cid(),
            prp1=base_addr, cdw10=(qid & 0xFFFF) | ((entries - 1) << 16),
            cdw11=1 | (cqid << 16))
        cqe = yield from self.submit(sqe)
        if not cqe.ok:
            raise NVMeError(f"CREATE_IO_SQ({qid}) failed: {cqe.status:#x}")
        return cqe

    def delete_io_sq(self, qid: int):
        """Generator: DELETE IO SQ."""
        sqe = SubmissionEntry(opcode=AdminOpcode.DELETE_IO_SQ,
                              cid=self.next_cid(), cdw10=qid & 0xFFFF)
        return (yield from self.submit(sqe))

    def delete_io_cq(self, qid: int):
        """Generator: DELETE IO CQ."""
        sqe = SubmissionEntry(opcode=AdminOpcode.DELETE_IO_CQ,
                              cid=self.next_cid(), cdw10=qid & 0xFFFF)
        return (yield from self.submit(sqe))
