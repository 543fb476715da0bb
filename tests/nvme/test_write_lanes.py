"""The write payload fetch lanes against the per-page reference.

:class:`PerPageController` keeps the controller's original write path as
the reference: one process per payload page, queued on a
``data_fetch_depth`` semaphore for its fetch and on a one-slot semaphore
for the program engine, joined by ``all_of``.  Production runs the same
pages on a few long-lived fetch lanes and a callback-driven program
engine and removes only events that do no modelling work, so every run
below must agree with the reference exactly: the order and time of every
resource acquire and timer start, per-command completion times,
controller statistics, programmed bytes, link wire bytes and the data at
rest.
"""

import numpy as np
import pytest

import repro.nvme.device as nvme_device
from repro.core import StreamerVariant, build_snacc_system
from repro.core.bench import SnaccPerf
from repro.errors import InvalidCommandError, PCIeError, SimulationError
from repro.faults import FaultConfig, FaultPlan
from repro.nvme.controller import NvmeController
from repro.nvme.spec import IoOpcode, StatusCode
from repro.sim import Simulator
from repro.sim.resources import Resource
from repro.sim.stats import FaultStats
from repro.spdk import SpdkPerf
from repro.systems import HostSystemConfig, build_host_system
from repro.units import KiB, MiB, PAGE, ns_for_bytes

SYSTEMS = ("spdk", "uram", "onboard_dram", "host_dram")
ACQUIRE_INLINE = Resource.acquire_inline
TIMEOUT = Simulator.timeout
SCHEDULE_CALL = Simulator.schedule_call

#: NVMe command failures (retried by SPDK and the streamer), CQE delays
#: and replayed PCIe TLP loss/corruption, all riding on the write path
FAULTS = FaultConfig(nvme_cmd_fail_rate=0.05, nvme_cqe_delay_rate=0.05,
                     pcie_tlp_loss_rate=0.01, pcie_tlp_corrupt_rate=0.01)


class RecordingController(NvmeController):
    """Production controller that logs every posted completion."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.completions = []

    def _post_cqe(self, sq, cid, status, result):
        self.completions.append((self.sim.now, sq.qid, cid, status))
        return super()._post_cqe(sq, cid, status, result)


class PerPageController(RecordingController):
    """The reference write path: one process per payload page."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._fetch_sem = Resource(self.sim, self.profile.data_fetch_depth)
        self._program_sem = Resource(self.sim, 1)

    def _exec_write(self, sqe):
        nbytes = sqe.nlb * self.namespace.lba_bytes
        if nbytes > self.profile.mdts_bytes:
            raise InvalidCommandError(
                f"transfer {nbytes} exceeds MDTS {self.profile.mdts_bytes}")
        self.namespace.check_range(sqe.slba, sqe.nlb)
        pages = yield from self._walk_prps(sqe, nbytes)
        runs = self._coalesce(pages, nbytes, 1)
        chunks = [None] * len(runs)
        jobs = []
        for idx, (addr, size) in enumerate(runs):
            jobs.append(self.sim.process(self._fetch_and_program(
                addr, size, idx, chunks,
                extra_ns=self.profile.write_cmd_overhead_ns if idx == 0 else 0)))
        yield self.sim.all_of(jobs)
        if self.functional:
            payload = np.concatenate(chunks)[:nbytes]
            self.namespace.write_blocks(sqe.slba, payload)
        yield from self.backend.write_ack_latency()
        self.stats.writes_completed += 1
        self.stats.written_bytes += nbytes
        return StatusCode.SUCCESS, 0

    def _fetch_and_program(self, addr, size, idx, chunks, extra_ns):
        yield self._fetch_sem.acquire()
        try:
            data = yield from self.endpoint.dma_read(
                addr, size, functional=self.functional)
        finally:
            self._fetch_sem.release()
        if data is not None:
            chunks[idx] = data
        yield from self._program_pages(-(-size // PAGE), extra_ns)

    def _program_pages(self, npages, extra_ns):
        backend = self.backend
        yield self._program_sem.acquire()
        try:
            per_page = ns_for_bytes(PAGE, backend.current_write_gbps)
            yield self.sim.timeout(npages * per_page + extra_ns)
        finally:
            self._program_sem.release()
        backend.programmed_bytes += npages * PAGE


def _build(monkeypatch, controller_cls, system_name, functional,
           fault_scale):
    monkeypatch.setattr(nvme_device, "NvmeController", controller_cls)
    sim = Simulator()
    cfg = HostSystemConfig(functional=functional,
                           faults=None if fault_scale is None else FAULTS)
    if system_name == "spdk":
        system = build_host_system(sim, cfg)
        driver = system.spdk_driver()
        sim.run_process(driver.initialize())
        host, perf = system, SpdkPerf(driver)
    else:
        system = build_snacc_system(sim, StreamerVariant(system_name), cfg)
        system.initialize()
        host, perf = system.host, SnaccPerf(sim, system.user)
    if fault_scale is not None:
        host.fault_plan.rate_scale = fault_scale
    return sim, host, perf


def _workload(sim, perf, system_name, workload):
    if workload == "seq" and system_name == "spdk":
        # 128 KiB commands keep all 64 queue slots busy on 8 MiB
        run = perf.seq_write(8 * MiB, io_bytes=128 * KiB)
    elif workload == "seq":
        run = perf.seq_write(8 * MiB)
    elif workload == "rand":
        run = perf.rand_write(512 * KiB)
    elif system_name == "spdk":
        run = perf.latency_probe(IoOpcode.WRITE, samples=12)
    else:
        run = perf.write_latency(samples=12)
    return sim.run_process(run)


def _log_actions(monkeypatch):
    """Log every resource acquire and every timer the model starts.

    Both paths must take these actions in the same order at the same
    times, not merely end with the same totals.  Zero-delay calls are the
    lanes' stand-ins for the reference's bootstraps, grants and process
    finishes, so only calls with a delay count as timers (the program
    engine's, mirroring the reference's program timeout).
    """
    actions = []

    def acquire_inline(res):
        actions.append(("acquire", res.sim.now, res.name))
        return ACQUIRE_INLINE(res)

    def timeout(sim, delay, value=None):
        actions.append(("timer", sim.now, delay))
        return TIMEOUT(sim, delay, value)

    def schedule_call(sim, delay, fn, arg=None):
        if delay:
            actions.append(("timer", sim.now, delay))
        return SCHEDULE_CALL(sim, delay, fn, arg)

    monkeypatch.setattr(Resource, "acquire_inline", acquire_inline)
    monkeypatch.setattr(Simulator, "timeout", timeout)
    monkeypatch.setattr(Simulator, "schedule_call", schedule_call)
    return actions


def _observe(monkeypatch, controller_cls, system_name, workload, functional,
             fault_scale):
    actions = _log_actions(monkeypatch)
    sim, host, perf = _build(monkeypatch, controller_cls, system_name,
                             functional, fault_scale)
    result = _workload(sim, perf, system_name, workload)
    ssd = host.ssd
    return {
        "result": result if isinstance(result, list) else result.gbps,
        "now": sim.now,
        "actions": actions,
        "completions": ssd.controller.completions,
        "stats": ssd.controller.stats,
        "programmed": ssd.backend.programmed_bytes,
        "wire": {name: (ep.link.crossed_bytes("up"),
                        ep.link.crossed_bytes("down"))
                 for name, ep in host.fabric.endpoints.items()},
        "faults": host.fault_stats,
        "media": {idx: bytes(page) for idx, page
                  in ssd.namespace.media._pages.items()},
    }


@pytest.mark.parametrize("fault_scale", (None, 0.0, 1.0),
                         ids=("no_faults", "faults_x0", "faults_x1"))
@pytest.mark.parametrize("functional", (False, True),
                         ids=("timing", "functional"))
@pytest.mark.parametrize("workload", ("seq", "rand", "qd1"))
@pytest.mark.parametrize("system_name", SYSTEMS)
def test_lanes_match_per_page_reference(monkeypatch, system_name, workload,
                                        functional, fault_scale):
    lanes = _observe(monkeypatch, RecordingController, system_name,
                     workload, functional, fault_scale)
    reference = _observe(monkeypatch, PerPageController, system_name,
                         workload, functional, fault_scale)
    assert lanes["completions"], "no write completed"
    for key in reference:
        assert lanes[key] == reference[key], f"{key} diverged"
    if functional:
        assert lanes["media"], "functional run stored no data"


class _PageLoss:
    """PCIe fault site that loses every payload-sized chunk while armed."""

    def __init__(self):
        self.armed = True
        self.take = 0

    def flip(self, rate):
        return self.armed and rate > 0 and self.take >= PAGE


def _replay_exhaustion(monkeypatch, controller_cls):
    """Fail one write's payload fetch on the replay budget, then write again.

    Returns the surfaced error with the time it surfaced, its cause, the
    later write's completion time and the model's actions.
    """
    monkeypatch.setattr(nvme_device, "NvmeController", controller_cls)
    actions = _log_actions(monkeypatch)
    sim = Simulator()
    system = build_host_system(sim, HostSystemConfig())
    driver = system.spdk_driver()
    sim.run_process(driver.initialize())
    # Arm TLP loss on the SSD's link only for payload-sized chunks, so
    # doorbells, SQE fetches and CQEs pass and the payload fetch fails.
    link = system.ssd.endpoint.link
    plan = FaultPlan(FaultConfig(pcie_tlp_loss_rate=1.0,
                                 pcie_replay_limit=2))
    link.attach_faults(plan, FaultStats())
    site = _PageLoss()
    link._fault_sites = {"up": site, "down": site}
    chunk = link._chunk_with_replay

    def sized_chunk(direction, take, ns):
        site.take = take
        return chunk(direction, take, ns)

    monkeypatch.setattr(link, "_chunk_with_replay", sized_chunk)
    buf = driver.alloc_buffer(16 * KiB)
    _ = sim.process(driver.io_and_wait(IoOpcode.WRITE, 0, 16 * KiB, buf))
    with pytest.raises(SimulationError) as failure:
        sim.run()
    error = (str(failure.value), repr(failure.value.__cause__), sim.now)
    site.armed = False
    handle = sim.run_process(driver.io_and_wait(IoOpcode.WRITE, 64, 16 * KiB,
                                                buf))
    return error, failure.value.__cause__, handle.completed_ns, actions


def test_replay_exhaustion_surfaces_like_the_reference(monkeypatch):
    lanes = _replay_exhaustion(monkeypatch, RecordingController)
    reference = _replay_exhaustion(monkeypatch, PerPageController)
    error, cause, later_done, actions = lanes
    assert isinstance(cause, PCIeError)
    assert "replay budget (2) exhausted" in str(cause)
    assert error == reference[0]
    # no lane is left stuck: a later write completes, at the same time
    assert later_done > error[2]
    assert later_done == reference[2]
    assert actions == reference[3]
