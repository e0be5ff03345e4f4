"""Tests for the simulated MMU: mapping, protection, and write faults."""

import numpy as np
import pytest

from repro.errors import ProtectionError
from repro.memory import AddressSpace


def resolving_handler(calls):
    """A handler that records ``(first_page, count)`` and unprotects."""

    def handler(space, first_page, count):
        calls.append((first_page, count))
        space.unprotect_range(first_page * space.page_size, count * space.page_size)
        return True

    return handler


class TestMapping:
    def test_map_region_returns_page_aligned_base(self):
        mem = AddressSpace()
        base = mem.map_region(4)
        assert base % mem.page_size == 0
        assert mem.is_mapped(base)
        assert mem.is_mapped(base + 4 * mem.page_size - 1)
        assert not mem.is_mapped(base + 4 * mem.page_size)
        assert not mem.is_mapped(base - 1)

    def test_regions_do_not_overlap(self):
        mem = AddressSpace()
        a = mem.map_region(2)
        b = mem.map_region(3)
        assert b >= a + 2 * mem.page_size

    def test_new_pages_are_zeroed(self):
        mem = AddressSpace()
        base = mem.map_region(1)
        assert mem.load(base, mem.page_size) == bytes(mem.page_size)

    def test_unmap(self):
        mem = AddressSpace()
        base = mem.map_region(2)
        other = mem.map_region(1)
        mem.store(other, b"kept")
        mem.unmap_region(base, 2)
        assert not mem.is_mapped(base)
        with pytest.raises(ProtectionError):
            mem.load(base, 1)
        assert mem.load(other, 4) == b"kept"

    def test_unmap_takes_exactly_one_live_mapping(self):
        mem = AddressSpace()
        a = mem.map_region(2)
        b = mem.map_region(2)
        for base, pages in ((a, 1), (a, 3), (a, 4), (a + mem.page_size, 1),
                            (b + 2 * mem.page_size, 1), (0x2000, 1)):
            with pytest.raises(ProtectionError):
                mem.unmap_region(base, pages)
        assert mem.is_mapped(a) and mem.is_mapped(b)
        mem.unmap_region(a, 2)
        with pytest.raises(ProtectionError):
            mem.unmap_region(a, 2)  # no longer live
        mem.unmap_region(b, 2)

    def test_invalid_page_size_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace(page_size=1000)  # not a power of two
        with pytest.raises(ValueError):
            AddressSpace(page_size=16)  # too small

    def test_map_zero_pages_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().map_region(0)


class TestLoadStore:
    def test_roundtrip_within_page(self):
        mem = AddressSpace()
        base = mem.map_region(1)
        mem.store(base + 10, b"hello")
        assert mem.load(base + 10, 5) == b"hello"

    def test_store_spanning_pages(self):
        mem = AddressSpace(page_size=64)
        base = mem.map_region(3)
        payload = bytes(range(150))
        mem.store(base + 30, payload)
        assert mem.load(base + 30, 150) == payload

    def test_store_to_unmapped_raises(self):
        mem = AddressSpace()
        with pytest.raises(ProtectionError):
            mem.store(0x999, b"x")

    def test_load_and_store_across_adjacent_mappings(self):
        mem = AddressSpace(page_size=64)
        a = mem.map_region(1)
        b = mem.map_region(2)
        c = mem.map_region(1)
        assert (b, c) == (a + 64, a + 192)
        payload = bytes(range(200))
        mem.store(a + 40, payload)  # tail of a, all of b, head of c
        assert mem.load(a + 40, 200) == payload
        assert mem.load(a, 40) == bytes(40)
        assert mem.load(b, 128) == payload[24:152]
        assert mem.load(c, 64) == payload[152:] + bytes(16)

    def test_partly_unmapped_range_names_the_first_unmapped_page(self):
        mem = AddressSpace(page_size=64)
        a = mem.map_region(1)
        b = mem.map_region(1)
        c = mem.map_region(1)
        mem.store(a, b"\x07" * 64)
        mem.unmap_region(b, 1)
        hole = f"page {b // 64:#x} is not mapped"
        past_end = f"page {(c + 64) // 64:#x} is not mapped"
        for access in (lambda: mem.load(a + 60, 8),
                       lambda: mem.store(a + 60, bytes(8)),
                       lambda: mem.view(a + 60, 8),
                       lambda: mem.writable_view(a + 60, 8),
                       lambda: mem.protect_range(a, 192)):
            with pytest.raises(ProtectionError, match=hole):
                access()
        with pytest.raises(ProtectionError, match=past_end):
            mem.load(c + 60, 8)
        with pytest.raises(ProtectionError, match=past_end):
            mem.store(c + 60, bytes(8))
        # the refused stores landed nothing in the mapped part either
        assert mem.load(a, 64) == b"\x07" * 64
        assert mem.load(c, 64) == bytes(64)


class TestViews:
    def test_view_is_zero_copy_and_read_only(self):
        mem = AddressSpace()
        base = mem.map_region(2)
        window = mem.view(base + 8, 16)
        assert window.readonly and len(window) == 16
        mem.store(base + 8, (123).to_bytes(4, "little"))
        assert np.frombuffer(window, "<u4")[0] == 123  # sees later stores
        with pytest.raises(TypeError):
            window[0] = 1
        assert len(mem.view(base, 2 * mem.page_size)) == 2 * mem.page_size
        assert len(mem.view(base + 5, 0)) == 0

    def test_writable_view_faults_like_a_store(self):
        mem = AddressSpace(page_size=64)
        base = mem.map_region(4)
        calls = []
        mem.fault_handler = resolving_handler(calls)
        mem.protect_range(base, 256)
        window = mem.writable_view(base + 70, 100)  # pages 1 and 2
        assert calls == [(base // 64 + 1, 2)]
        assert mem.stats.write_faults == 2
        window[:3] = b"abc"
        assert mem.load(base + 70, 3) == b"abc"
        mem.view(base, 256)  # reads never fault
        assert mem.stats.write_faults == 2

    def test_writable_view_refused_by_the_handler(self):
        mem = AddressSpace()
        base = mem.map_region(1)
        mem.fault_handler = lambda space, first_page, count: False
        mem.protect_range(base, 1)
        with pytest.raises(ProtectionError):
            mem.writable_view(base, 4)

    def test_windows_stay_inside_one_mapping(self):
        mem = AddressSpace(page_size=64)
        a = mem.map_region(1)
        b = mem.map_region(1)
        assert b == a + 64
        for window in (mem.view, mem.writable_view):
            with pytest.raises(ProtectionError, match="not within one mapping"):
                window(a + 60, 8)
            with pytest.raises(ProtectionError):
                window(a, -1)
            with pytest.raises(ProtectionError, match="not mapped"):
                window(b + 60, 8)
            assert len(window(a, 64)) == 64


class TestProtectionAndFaults:
    def test_store_to_protected_page_without_handler_raises(self):
        mem = AddressSpace()
        base = mem.map_region(1)
        mem.protect_range(base, mem.page_size)
        with pytest.raises(ProtectionError):
            mem.store(base, b"x")

    def test_fault_handler_resolves_store(self):
        mem = AddressSpace()
        base = mem.map_region(1)
        faulted = []
        mem.fault_handler = resolving_handler(faulted)
        mem.protect_range(base, mem.page_size)
        mem.store(base + 8, b"ab")
        assert mem.load(base + 8, 2) == b"ab"
        assert faulted == [(base // mem.page_size, 1)]
        assert mem.stats.write_faults == 1

    def test_fault_taken_once_per_page(self):
        mem = AddressSpace()
        base = mem.map_region(2)
        mem.fault_handler = resolving_handler([])
        mem.protect_range(base, 2 * mem.page_size)
        mem.store(base, b"a")
        mem.store(base + 1, b"b")  # same page: no new fault
        mem.store(base + mem.page_size, b"c")  # second page: one more
        assert mem.stats.write_faults == 2

    def test_refusing_handler_raises(self):
        mem = AddressSpace()
        base = mem.map_region(1)
        mem.fault_handler = lambda space, first_page, count: False
        mem.protect_range(base, 1)
        with pytest.raises(ProtectionError):
            mem.store(base, b"x")

    def test_handler_that_leaves_pages_protected_raises(self):
        mem = AddressSpace()
        base = mem.map_region(2)

        def half_hearted(space, first_page, count):
            space.unprotect_range(first_page * space.page_size, space.page_size)
            return True

        mem.fault_handler = half_hearted
        mem.protect_range(base, 2 * mem.page_size)
        with pytest.raises(ProtectionError, match="not resolved"):
            mem.store(base, bytes(2 * mem.page_size))
        assert mem.load(base, 8) == bytes(8)

    def test_spanning_store_faults_every_protected_page(self):
        mem = AddressSpace(page_size=64)
        base = mem.map_region(3)
        calls = []
        mem.fault_handler = resolving_handler(calls)
        mem.protect_range(base, 3 * 64)
        mem.store(base, bytes(160))
        assert mem.stats.write_faults == 3  # counted in pages...
        assert calls == [(base // 64, 3)]   # ...taken in one handler call

    def test_one_handler_call_per_maximal_protected_run(self):
        """Writable pages inside the store's span split the fault into
        runs; the handler never sees a writable page."""
        mem = AddressSpace(page_size=64)
        base = mem.map_region(10)
        first = base // 64
        calls = []
        mem.fault_handler = resolving_handler(calls)
        mem.protect_range(base, 640)
        mem.unprotect_range(base + 2 * 64, 64)        # page 2
        mem.unprotect_range(base + 5 * 64, 2 * 64)    # pages 5, 6
        mem.store(base + 64 + 10, bytes(7 * 64))      # pages 1..8
        assert calls == [(first + 1, 1), (first + 3, 2), (first + 7, 2)]
        assert mem.stats.write_faults == 5
        calls.clear()
        mem.store(base, bytes(640))                   # only 0 and 9 are left
        assert calls == [(first, 1), (first + 9, 1)]
        assert mem.stats.write_faults == 7

    def test_refused_store_lands_no_bytes(self):
        """The whole span is faulted before the first byte is copied."""
        mem = AddressSpace(page_size=64)
        base = mem.map_region(3)
        mem.store(base, b"\x11" * 192)
        refuse_from = base // 64 + 2

        def handler(space, first_page, count):
            if first_page + count > refuse_from:
                return False
            space.unprotect_range(first_page * 64, count * 64)
            return True

        mem.fault_handler = handler
        mem.protect_range(base + 128, 64)  # only the last page
        with pytest.raises(ProtectionError):
            mem.store(base + 10, b"\x22" * 150)  # pages 0, 1 writable; 2 refused
        assert mem.load(base, 192) == b"\x11" * 192

    def test_faults_never_cross_a_mapping(self):
        """Adjacent mappings belong to different subsegments: a store
        straddling two of them faults each separately, and lands nothing
        when the second refuses."""
        mem = AddressSpace(page_size=64)
        a = mem.map_region(2)
        b = mem.map_region(2)
        assert b == a + 128
        calls = []

        def handler(space, first_page, count):
            calls.append((first_page, count))
            if first_page * 64 >= b:
                return False  # the other segment is not write-locked
            space.unprotect_range(first_page * 64, count * 64)
            return True

        mem.fault_handler = handler
        mem.protect_range(a, 256)
        with pytest.raises(ProtectionError):
            mem.store(a + 64, b"\xff" * 128)  # last page of a, first of b
        assert calls == [(a // 64 + 1, 1), (b // 64, 1)]
        assert mem.load(a, 256) == bytes(256)

    def test_protect_range_partial_page_rounds_to_pages(self):
        mem = AddressSpace()
        base = mem.map_region(3)
        calls = []
        mem.fault_handler = resolving_handler(calls)
        # protection is page-granular: both ends round outward
        mem.protect_range(base + mem.page_size - 10, 20)
        mem.store(base, bytes(3 * mem.page_size))
        assert calls == [(base // mem.page_size, 2)]
        mem.protect_range(base, 3 * mem.page_size)
        mem.unprotect_range(base + mem.page_size + 100, 10)
        calls.clear()
        mem.store(base, bytes(3 * mem.page_size))
        assert calls == [(base // mem.page_size, 1), (base // mem.page_size + 2, 1)]
        mem.protect_range(base, 0)  # empty range: nothing protected
        mem.store(base, b"x")
        assert len(calls) == 2

    def test_reads_never_fault(self):
        mem = AddressSpace()
        base = mem.map_region(1)
        mem.protect_range(base, mem.page_size)
        mem.load(base, 16)  # protection only blocks stores
        assert mem.stats.write_faults == 0
