"""The SPDK poll loop's phase-bit peek against the read-and-unpack reference.

:class:`UnpackPollDriver` keeps the poll loop as it was first written:
every poll copies the 16-byte CQE at the head slot out of host memory and
unpacks it, and only then compares its phase bit.  Production peeks the
phase bit with a one-byte read and copies and unpacks the entry only when
it matches.  Both reads are functional (zero simulated time) and every
400 ns poll timeout stays, so each run below must agree with the
reference exactly: every command's completion time and latency, the CQ
head doorbell writes, the CPU's busy time, the controller's statistics,
the fault counters and the kernel's final event count.
"""

import pytest

import repro.systems as systems
from repro.errors import NVMeError, RetryExhaustedError
from repro.faults import FaultConfig
from repro.nvme.spec import CQE_BYTES, IoOpcode
from repro.sim import Simulator
from repro.sim.core import Event, Interrupt
from repro.spdk import SpdkNvmeDriver, SpdkPerf
from repro.systems import HostSystemConfig, build_host_system
from repro.units import MiB

#: failed commands (retried), delayed CQEs and replayed PCIe TLPs
FAULTS = FaultConfig(nvme_cmd_fail_rate=0.05, nvme_cqe_delay_rate=0.05,
                     pcie_tlp_loss_rate=0.01, pcie_tlp_corrupt_rate=0.01)
#: simulated-time bound per run: a poll loop that stops accepting CQEs
#: (the admin client's included) keeps polling forever, so an unbounded
#: run would hang instead of fail
DEADLINE_NS = 1_000_000_000


class RecordingDriver(SpdkNvmeDriver):
    """Production driver that keeps every handle and CQ doorbell write."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handles = []
        self.cq_doorbells = []

    def submit(self, *args, **kwargs):
        handle = yield from super().submit(*args, **kwargs)
        self.handles.append(handle)
        return handle

    def _ring_cq_doorbell(self):
        self.cq_doorbells.append((self.sim.now, self.cq.head))
        return super()._ring_cq_doorbell()


class UnpackPollDriver(RecordingDriver):
    """Reference: decode the whole head CQE on every poll."""

    def _poll_loop(self):
        host = self.fabric.host_memory
        try:  # noqa: SIM105 - Interrupt ends the loop on shutdown
            while True:
                progressed = False
                while True:
                    raw = host.read(self._host_offset(self.cq.next_addr()),
                                    CQE_BYTES)
                    cqe = self.cq.try_accept(bytes(raw))
                    if cqe is None:
                        break
                    progressed = True
                    yield from self.cpu.work(self.config.complete_cpu_ns)
                    self.sq.note_head(cqe.sq_head)
                    kick, self._sq_space = self._sq_space, Event(self.sim)
                    kick.succeed()
                    handle = self._inflight.pop(cqe.cid, None)
                    if handle is None:
                        if self._fault_plan is None:
                            raise NVMeError(
                                f"completion for unknown cid {cqe.cid}")
                        self._fault_stats.stale_cqes += 1
                    elif not cqe.ok and self._fault_plan is not None \
                            and handle.retries < self._fault_plan.config.retry_limit:
                        handle.retries += 1
                        self._fault_stats.retries += 1
                        _ = self.sim.process(self._retry_io(handle),
                                             name=f"spdk.retry{handle.cid}")
                    elif not cqe.ok:
                        if self._fault_plan is not None:
                            self._fault_stats.retry_exhausted += 1
                            handle.done.fail(RetryExhaustedError(
                                f"IO cid={cqe.cid} failed with status "
                                f"{cqe.status:#x} after {handle.retries} "
                                f"retries"))
                        else:
                            handle.done.fail(NVMeError(
                                f"IO cid={cqe.cid} failed: status "
                                f"{cqe.status:#x}"))
                    else:
                        self._list_page_pool.extend(handle.list_pages)
                        handle.completed_ns = self.sim.now
                        handle.done.succeed(cqe)
                    self._cq_doorbell_owed += 1
                    if self._cq_doorbell_owed >= self.config.cq_doorbell_batch:
                        yield from self._ring_cq_doorbell()
                if not progressed:
                    if self._cq_doorbell_owed:
                        yield from self._ring_cq_doorbell()
                    if self._fault_plan is not None and self._inflight:
                        self._scan_timeouts()
                    if self._inflight:
                        yield self.sim.timeout(self.config.poll_interval_ns)
                    else:
                        yield self._work_kick
        except Interrupt:
            return


def _run(monkeypatch, driver_cls, workload, faults):
    monkeypatch.setattr(systems, "SpdkNvmeDriver", driver_cls)
    sim = Simulator()
    system = build_host_system(
        sim, HostSystemConfig(functional=False, faults=faults))
    driver = system.spdk_driver()
    assert type(driver) is driver_cls
    sim.run_process(driver.initialize(), until=DEADLINE_NS)
    if faults is not None:
        system.fault_plan.rate_scale = 1.0
    perf = SpdkPerf(driver)
    if workload == "seq":
        runs = [perf.seq_read(96 * MiB)]
    elif workload == "rand":
        runs = [perf.rand_read(2 * MiB), perf.rand_write(1 * MiB)]
    else:
        runs = [perf.latency_probe(IoOpcode.READ, samples=24),
                perf.latency_probe(IoOpcode.WRITE, samples=24)]
    results = [sim.run_process(run, until=sim.now + DEADLINE_NS)
               for run in runs]
    return {
        "results": [r if isinstance(r, list) else (r.elapsed_ns,
                                                   r.latencies_ns)
                    for r in results],
        "handles": [(h.cid, h.opcode, h.submitted_ns, h.completed_ns,
                     h.latency_ns if h.completed_ns >= 0 else None,
                     h.retries) for h in driver.handles],
        "cq_doorbells": driver.cq_doorbells,
        "cpu_busy_ns": driver.cpu.busy_ns(),
        "controller": system.ssd.controller.stats,
        "faults": system.fault_stats,
        "now": sim.now,
        "events": sim.quiesce().events,
    }


@pytest.mark.parametrize("faults", (None, FAULTS), ids=("no_faults",
                                                       "faults_x1"))
@pytest.mark.parametrize("workload", ("seq", "rand", "qd1"))
def test_peek_matches_unpack_reference(monkeypatch, workload, faults):
    got = _run(monkeypatch, RecordingDriver, workload, faults)
    want = _run(monkeypatch, UnpackPollDriver, workload, faults)
    assert got["handles"] and got["cq_doorbells"]
    for key in want:
        assert got[key] == want[key], f"{key} diverged"
    if faults is not None:
        assert got["faults"].retries > 0


class TestPollKernelCost:
    """Exact kernel cost of one small ``SpdkPerf.seq_read`` cell.

    Recorded with the read-and-unpack poll loop: every idle 400 ns poll is
    one timeout, so a poll refactor that adds or drops a single event
    fails here even when every completion time stays the same.
    """

    def test_seq_read_cell(self):
        sim = Simulator()
        system = build_host_system(sim, HostSystemConfig(functional=False))
        driver = system.spdk_driver()
        sim.run_process(driver.initialize(), until=DEADLINE_NS)
        result = sim.run_process(SpdkPerf(driver).seq_read(8 * MiB),
                                 until=sim.now + DEADLINE_NS)
        assert result.total_bytes == 8 * MiB
        assert result.elapsed_ns == 1_226_798
        assert sim.quiesce().events == 5510
