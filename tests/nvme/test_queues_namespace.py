"""Queue ring geometry/pointer logic and namespace bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, NamespaceError, QueueFullError
from repro.mem import HostDram
from repro.nvme import (CompletionEntry, CompletionRing, Namespace,
                        SubmissionRing, doorbell_offset)
from repro.units import MiB


class TestDoorbellOffsets:
    def test_layout(self):
        assert doorbell_offset(0, is_cq=False) == 0x1000
        assert doorbell_offset(0, is_cq=True) == 0x1004
        assert doorbell_offset(1, is_cq=False) == 0x1008
        assert doorbell_offset(1, is_cq=True) == 0x100C

    def test_negative_qid(self):
        with pytest.raises(ConfigError):
            doorbell_offset(-1, False)


class TestSubmissionRing:
    def test_claim_advances_tail(self):
        sq = SubmissionRing(0x1000, 4)
        assert sq.claim_slot() == 0
        assert sq.claim_slot() == 1
        assert sq.tail == 2

    def test_full_rejected(self):
        sq = SubmissionRing(0x1000, 4)
        for _ in range(3):  # entries-1 usable
            sq.claim_slot()
        with pytest.raises(QueueFullError):
            sq.claim_slot()

    def test_head_report_frees_slots(self):
        sq = SubmissionRing(0x1000, 4)
        for _ in range(3):
            sq.claim_slot()
        sq.note_head(2)
        assert sq.free_slots(sq.head, sq.tail) == 2
        sq.claim_slot()

    def test_entry_addr(self):
        sq = SubmissionRing(0x1000, 8)
        assert sq.entry_addr(0) == 0x1000
        assert sq.entry_addr(3) == 0x1000 + 3 * 64
        with pytest.raises(ConfigError):
            sq.entry_addr(8)

    @given(st.integers(2, 64), st.integers(0, 500))
    @settings(max_examples=50, deadline=None)
    def test_property_occupancy_bounded(self, entries, ops):
        sq = SubmissionRing(0, entries)
        claimed = 0
        for i in range(ops):
            if claimed < entries - 1:
                sq.claim_slot()
                claimed += 1
            else:
                sq.note_head(sq.tail)  # consumer caught up
                claimed = 0
            assert 0 <= sq.occupancy(sq.head, sq.tail) <= entries - 1


class TestCompletionRing:
    def test_phase_acceptance(self):
        cq = CompletionRing(0x2000, 4)
        good = CompletionEntry(cid=1, phase=1).pack()
        stale = CompletionEntry(cid=2, phase=0).pack()
        assert cq.try_accept(stale) is None
        got = cq.try_accept(good)
        assert got is not None and got.cid == 1
        assert cq.head == 1

    def test_phase_flips_on_wrap(self):
        cq = CompletionRing(0x2000, 2)
        assert cq.try_accept(CompletionEntry(cid=1, phase=1).pack()) is not None
        assert cq.try_accept(CompletionEntry(cid=2, phase=1).pack()) is not None
        assert cq.expected_phase == 0  # wrapped
        assert cq.try_accept(CompletionEntry(cid=3, phase=1).pack()) is None
        assert cq.try_accept(CompletionEntry(cid=3, phase=0).pack()) is not None

    def test_poll_decodes_only_a_posted_entry(self, sim, monkeypatch):
        """``poll`` peeks the phase bit; a stale slot costs no 16-byte read."""
        base = 0x10_0000
        mem = HostDram(sim, 1 << 20)
        cq = CompletionRing(base + 0x2000, 2)
        mem.write(0x2000, CompletionEntry(cid=7, status=0x281,
                                          phase=0).pack())
        reads = []
        read = mem.read

        def counting_read(addr, nbytes):
            reads.append((addr, nbytes))
            return read(addr, nbytes)

        monkeypatch.setattr(mem, "read", counting_read)
        assert cq.poll(mem, base) is None
        assert reads == [] and cq.head == 0
        for cid, slot in ((7, 0), (8, 1)):
            mem.write(0x2000 + 16 * slot, CompletionEntry(
                cid=cid, status=0x281, sq_head=5, phase=1).pack())
            got = cq.poll(mem, base)
            assert (got.cid, got.status, got.sq_head) == (cid, 0x281, 5)
        assert reads == [(0x2000, 16), (0x2010, 16)]
        assert cq.head == 0 and cq.expected_phase == 0  # wrapped
        assert cq.poll(mem, base) is None  # slot 0 still holds phase 1


class TestNamespace:
    def test_geometry(self):
        ns = Namespace(1 * MiB)
        assert ns.nlb_total == 2048
        assert ns.lba_bytes == 512

    def test_rw_roundtrip(self, rng):
        ns = Namespace(1 * MiB)
        data = rng.integers(0, 256, 4096, dtype=np.uint8)
        ns.write_blocks(16, data)
        assert np.array_equal(ns.read_blocks(16, 8), data)

    def test_unwritten_reads_zero(self):
        ns = Namespace(1 * MiB)
        assert ns.read_blocks(100, 4).sum() == 0

    def test_oob_rejected(self):
        ns = Namespace(1 * MiB)
        with pytest.raises(NamespaceError):
            ns.read_blocks(2047, 2)
        with pytest.raises(NamespaceError):
            ns.write_blocks(2048, bytes(512))
        with pytest.raises(NamespaceError):
            ns.read_blocks(0, 0)

    def test_unaligned_write_rejected(self):
        ns = Namespace(1 * MiB)
        with pytest.raises(NamespaceError):
            ns.write_blocks(0, bytes(100))

    def test_bad_capacity(self):
        with pytest.raises(NamespaceError):
            Namespace(1000)  # not LBA multiple
