"""Admin command set: identify, queue lifecycle, error statuses."""

import pytest

from repro.errors import NVMeError
from repro.nvme import AdminOpcode, SubmissionEntry, StatusCode
from repro.nvme.admin import ADMIN_TIMEOUT_NS
from repro.systems import HostSystemConfig, build_host_system


@pytest.fixture
def admin(sim):
    system = build_host_system(sim, HostSystemConfig())
    driver = system.spdk_driver()
    sim.run_process(driver.initialize())
    return sim, system, driver.admin


class TestIdentify:
    def test_identify_controller_fields(self, admin):
        sim, system, client = admin

        def body():
            data = yield from client.identify(cns=1)
            return bytes(data)

        data = sim.run_process(body())
        assert b"990 PRO" in data
        # MDTS encoded as log2 pages at offset 77
        mdts_pages = 1 << data[77]
        assert mdts_pages * 4096 == system.ssd.config.profile.mdts_bytes

    def test_identify_namespace_capacity(self, admin):
        sim, system, client = admin

        def body():
            data = yield from client.identify(cns=0)
            return bytes(data)

        data = sim.run_process(body())
        nlb = int.from_bytes(data[0:8], "little")
        assert nlb == system.ssd.namespace.nlb_total


class TestQueueLifecycle:
    def test_create_and_delete_extra_queue_pair(self, admin):
        sim, system, client = admin
        base = system.allocator.allocate(64 * 1024).chunks[0].base

        def body():
            yield from client.create_io_cq(5, base, 64)
            yield from client.create_io_sq(5, base + 16384, 64, cqid=5)
            assert 5 in system.ssd.controller.io_queue_ids
            yield from client.delete_io_sq(5)
            yield from client.delete_io_cq(5)

        sim.run_process(body())
        assert 5 not in system.ssd.controller.io_queue_ids

    def test_duplicate_qid_rejected(self, admin):
        sim, system, client = admin
        base = system.allocator.allocate(16 * 1024).chunks[0].base

        def body():
            yield from client.create_io_cq(1, base, 64)  # qid 1 exists

        with pytest.raises(NVMeError):
            sim.run_process(body())

    def test_sq_without_cq_rejected(self, admin):
        sim, system, client = admin
        base = system.allocator.allocate(16 * 1024).chunks[0].base

        def body():
            yield from client.create_io_sq(9, base, 64, cqid=9)

        with pytest.raises(NVMeError):
            sim.run_process(body())

    def test_delete_unknown_queue_fails(self, admin):
        sim, _system, client = admin

        def body():
            cqe = yield from client.delete_io_sq(42)
            return cqe

        cqe = sim.run_process(body())
        assert cqe.status == StatusCode.INVALID_QUEUE_ID

    def test_unknown_admin_opcode(self, admin):
        sim, _system, client = admin
        sqe = SubmissionEntry(opcode=0x7F, cid=client.next_cid())

        def body():
            cqe = yield from client.submit(sqe)
            return cqe

        cqe = sim.run_process(body())
        assert cqe.status == StatusCode.INVALID_OPCODE

    def test_set_features_succeeds(self, admin):
        sim, _system, client = admin
        sqe = SubmissionEntry(opcode=AdminOpcode.SET_FEATURES,
                              cid=client.next_cid(), cdw10=0x07)

        def body():
            return (yield from client.submit(sqe))

        assert sim.run_process(body()).ok


class TestAdminDeadline:
    def test_lost_admin_cqe_fails_at_the_deadline(self, sim, monkeypatch):
        """A controller that never posts an admin CQE fails initialize()
        once the poll deadline passes, instead of polling forever."""
        system = build_host_system(sim, HostSystemConfig())
        controller = system.ssd.controller
        post_cqe = controller._post_cqe

        def drop_admin_cqe(sq, cid, status, result):
            if sq.qid != 0:
                yield from post_cqe(sq, cid, status, result)

        monkeypatch.setattr(controller, "_post_cqe", drop_admin_cqe)
        driver = system.spdk_driver()
        with pytest.raises(NVMeError, match="opcode 0x06 cid 1:"):
            sim.run_process(driver.initialize())
        assert controller.stats.admin_completed == 1
        # the 10 µs ready transition and the doorbell precede the polls
        assert ADMIN_TIMEOUT_NS < sim.now < ADMIN_TIMEOUT_NS + 20_000
