"""Functional memory: dense, sparse, address ranges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.mem import AddressRange, Memory, SparseMemory


class TestAddressRange:
    def test_contains(self):
        r = AddressRange(0x1000, 0x100)
        assert r.contains(0x1000)
        assert r.contains(0x10FF)
        assert not r.contains(0x1100)
        assert r.contains(0x1000, 0x100)
        assert not r.contains(0x1000, 0x101)

    def test_overlaps(self):
        a = AddressRange(0, 10)
        assert a.overlaps(AddressRange(5, 10))
        assert not a.overlaps(AddressRange(10, 10))

    def test_offset_of(self):
        r = AddressRange(100, 50)
        assert r.offset_of(120) == 20
        with pytest.raises(MemoryError_):
            r.offset_of(150)

    def test_invalid(self):
        with pytest.raises(ValueError):
            AddressRange(-1, 10)
        with pytest.raises(ValueError):
            AddressRange(0, 0)


class TestMemory:
    def test_write_read_roundtrip(self, rng):
        m = Memory(4096)
        data = rng.integers(0, 256, 100, dtype=np.uint8)
        m.write(10, data)
        assert np.array_equal(m.read(10, 100), data)

    def test_read_returns_copy(self):
        m = Memory(16)
        a = m.read(0, 4)
        a[:] = 0xFF
        assert m.read(0, 4).sum() == 0

    def test_oob_rejected(self):
        m = Memory(16)
        with pytest.raises(MemoryError_):
            m.read(10, 10)
        with pytest.raises(MemoryError_):
            m.write(15, b"\x00\x00")
        with pytest.raises(MemoryError_):
            m.read(-1, 1)

    def test_accepts_bytes(self):
        m = Memory(16)
        m.write(0, b"hello")
        assert bytes(m.read(0, 5)) == b"hello"

    def test_fill(self):
        m = Memory(16)
        m.fill(4, 4, 0xAB)
        assert list(m.read(4, 4)) == [0xAB] * 4
        assert m.read(0, 4).sum() == 0

    def test_view_read_only(self):
        m = Memory(16)
        v = m.view()
        with pytest.raises(ValueError):
            v[0] = 1


class TestSparseMemory:
    def test_unwritten_reads_zero(self):
        m = SparseMemory(1 << 40)  # 1 TiB costs nothing
        assert m.read(123456789, 16).sum() == 0
        assert m.resident_pages == 0

    def test_roundtrip_across_pages(self, rng):
        m = SparseMemory(1 << 30, page_size=4096)
        data = rng.integers(0, 256, 10000, dtype=np.uint8)
        m.write(4000, data)  # bytes 4000..14000 touch pages 0..3
        assert np.array_equal(m.read(4000, 10000), data)
        assert m.resident_pages == 4

    def test_oob_rejected(self):
        m = SparseMemory(8192)
        with pytest.raises(MemoryError_):
            m.write(8000, bytes(300))

    def test_discard_drops_full_pages(self, rng):
        m = SparseMemory(1 << 20)
        m.write(0, rng.integers(0, 256, 8192, dtype=np.uint8))
        assert m.resident_pages == 2
        m.discard(0, 4096)
        assert m.resident_pages == 1
        assert m.read(0, 4096).sum() == 0

    def test_discard_keeps_partial_pages(self, rng):
        m = SparseMemory(1 << 20)
        data = rng.integers(1, 256, 4096, dtype=np.uint8)
        m.write(0, data)
        m.discard(100, 200)  # covers no full page
        assert np.array_equal(m.read(0, 4096), data)

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=60000),
                  st.integers(min_value=1, max_value=5000)),
        min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_property_matches_dense(self, writes):
        """Sparse memory behaves exactly like a dense array."""
        sparse = SparseMemory(1 << 16)
        dense = np.zeros(1 << 16, dtype=np.uint8)
        rng = np.random.default_rng(1)
        for addr, n in writes:
            n = min(n, (1 << 16) - addr)
            if n == 0:
                continue
            data = rng.integers(0, 256, n, dtype=np.uint8)
            sparse.write(addr, data)
            dense[addr:addr + n] = data
        assert np.array_equal(sparse.read(0, 1 << 16), dense)


@pytest.mark.parametrize("cls", (Memory, SparseMemory))
def test_read_byte_matches_read(cls, rng):
    m = cls(1 << 16)
    data = rng.integers(0, 256, 5000, dtype=np.uint8)
    m.write(3000, data)
    for addr in (0, 2999, 3000, 4095, 4096, 7999, 8000, (1 << 16) - 1):
        assert m.read_byte(addr) == int(m.read(addr, 1)[0])
    with pytest.raises(MemoryError_):
        m.read_byte(1 << 16)
