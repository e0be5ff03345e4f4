"""Tests for the subsegment heap: allocation, trees, free-list coalescing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import ALPHA, X86_32
from repro.errors import BlockError
from repro.memory import (
    BLOCK_HEADER_SIZE,
    AddressSpace,
    Heap,
    SegmentHeap,
)
from repro.types import DOUBLE, INT, ArrayDescriptor, Field, RecordDescriptor


@pytest.fixture
def heap():
    return Heap(AddressSpace())


@pytest.fixture
def seg(heap):
    return SegmentHeap("iw://host/seg", heap, X86_32)


class TestAllocation:
    def test_allocate_assigns_serials_in_order(self, seg):
        a = seg.allocate(INT, 1)
        b = seg.allocate(INT, 1)
        assert (a.serial, b.serial) == (1, 2)

    def test_allocate_with_explicit_serial(self, seg):
        block = seg.allocate(INT, 1, serial=10)
        assert block.serial == 10
        assert seg.allocate(INT, 1).serial == 11  # counter advanced past it

    def test_duplicate_serial_rejected(self, seg):
        seg.allocate(INT, 1, serial=5)
        with pytest.raises(BlockError):
            seg.allocate(INT, 1, serial=5)

    def test_named_block_lookup(self, seg):
        block = seg.allocate(INT, 1, name="head")
        assert seg.block_by_name("head") is block
        with pytest.raises(BlockError):
            seg.block_by_name("tail")

    def test_duplicate_name_rejected(self, seg):
        seg.allocate(INT, 1, name="head")
        with pytest.raises(BlockError):
            seg.allocate(INT, 1, name="head")

    def test_blocks_do_not_overlap_and_leave_header_room(self, seg):
        blocks = [seg.allocate(ArrayDescriptor(INT, 10), 1) for _ in range(20)]
        spans = sorted((b.address, b.end) for b in blocks)
        for (_, end1), (start2, _) in zip(spans, spans[1:]):
            assert start2 - end1 >= BLOCK_HEADER_SIZE

    def test_size_follows_architecture(self, heap):
        rec = RecordDescriptor("r", [Field("i", INT), Field("d", DOUBLE)])
        seg32 = SegmentHeap("a", heap, X86_32)
        seg64 = SegmentHeap("b", heap, ALPHA)
        assert seg32.allocate(rec, 1).size == 12
        assert seg64.allocate(rec, 1).size == 16

    def test_large_block_gets_own_subsegment_growth(self, seg):
        page_size = seg.heap.address_space.page_size
        big = seg.allocate(ArrayDescriptor(INT, 64 * page_size), 1)
        assert big.size == 256 * page_size
        assert big.subsegment.size >= big.size

    def test_allocation_is_aligned(self, seg):
        for _ in range(10):
            block = seg.allocate(DOUBLE, 1)
            assert block.address % 8 == 0

    def test_heap_invariants_after_allocations(self, seg):
        for i in range(50):
            seg.allocate(ArrayDescriptor(INT, (i % 7) + 1), 1)
        seg.check_invariants()


class TestFree:
    def test_free_releases_space(self, seg):
        seg.allocate(INT, 1)  # force the first subsegment into existence
        before = seg.free_bytes()
        block = seg.allocate(ArrayDescriptor(INT, 100), 1)
        assert seg.free_bytes() < before
        seg.free(block)
        assert seg.free_bytes() == before
        with pytest.raises(BlockError):
            seg.block_by_serial(block.serial)

    def test_free_removes_name(self, seg):
        block = seg.allocate(INT, 1, name="x")
        seg.free(block)
        with pytest.raises(BlockError):
            seg.block_by_name("x")
        seg.allocate(INT, 1, name="x")  # name reusable

    def test_double_free_rejected(self, seg):
        block = seg.allocate(INT, 1)
        seg.free(block)
        with pytest.raises(BlockError):
            seg.free(block)

    def test_coalescing_allows_reallocation(self, seg):
        blocks = [seg.allocate(ArrayDescriptor(INT, 64), 1) for _ in range(8)]
        subsegments = len(seg.subsegments)
        for block in blocks:
            seg.free(block)
        # freed space coalesces, so a block of the combined size fits
        seg.allocate(ArrayDescriptor(INT, 64 * 8), 1)
        assert len(seg.subsegments) == subsegments
        seg.check_invariants()


class TestLookups:
    def test_block_spanning_interior_address(self, seg):
        block = seg.allocate(ArrayDescriptor(INT, 10), 1)
        assert seg.block_spanning(block.address) is block
        assert seg.block_spanning(block.address + 39) is block
        assert seg.block_spanning(block.end) is not block

    def test_block_spanning_header_is_none(self, seg):
        block = seg.allocate(INT, 1)
        assert seg.block_spanning(block.address - 1) is None

    def test_block_spanning_other_segment(self, heap):
        seg_a = SegmentHeap("a", heap, X86_32)
        seg_b = SegmentHeap("b", heap, X86_32)
        block = seg_a.allocate(INT, 1)
        assert seg_b.block_spanning(block.address) is None
        assert seg_a.block_spanning(block.address) is block

    def test_find_subsegment(self, heap, seg):
        block = seg.allocate(INT, 1)
        subsegment = heap.find_subsegment(block.address)
        assert subsegment is block.subsegment
        assert heap.find_subsegment(0x42) is None

    def test_blocks_iterates_in_serial_order(self, seg):
        seg.allocate(INT, 1, serial=5)
        seg.allocate(INT, 1, serial=2)
        seg.allocate(INT, 1, serial=9)
        assert [b.serial for b in seg.blocks()] == [2, 5, 9]

    def test_total_data_bytes(self, seg):
        seg.allocate(ArrayDescriptor(INT, 10), 1)
        seg.allocate(INT, 1)
        assert seg.total_data_bytes == 44


class TestPageOwnership:
    def test_pages_belong_to_one_segment(self, heap):
        """The paper's invariant: any given page contains data from only
        one segment."""
        seg_a = SegmentHeap("a", heap, X86_32)
        seg_b = SegmentHeap("b", heap, X86_32)
        blocks_a = [seg_a.allocate(ArrayDescriptor(INT, 100), 1) for _ in range(5)]
        blocks_b = [seg_b.allocate(ArrayDescriptor(INT, 100), 1) for _ in range(5)]
        pages_a = {addr // heap.address_space.page_size
                   for b in blocks_a for addr in range(b.address, b.end)}
        pages_b = {addr // heap.address_space.page_size
                   for b in blocks_b for addr in range(b.address, b.end)}
        assert not (pages_a & pages_b)


class TestTwins:
    def test_a_page_is_twinned_once_and_the_twin_stays_pristine(self, heap, seg):
        memory = heap.address_space
        sub = seg.expand(1)
        size = memory.page_size
        assert sub.twins is None and list(sub.twinned_runs()) == []
        memory.store(sub.base, b"original" * (3 * size // 8))
        assert sub.twin_pages(memory, 1, 1) == 1
        memory.store(sub.base + size, b"modified")
        # pages 0-2 again: page 1 keeps its first twin, 0 and 2 get theirs
        assert sub.twin_pages(memory, 0, 3) == 2
        assert sub.twin_pages(memory, 0, 3) == 0
        assert sub.twins[:3 * size] == b"original" * (3 * size // 8)
        assert memory.load(sub.base + size, 8) == b"modified"
        assert sub.twin_pages(memory, 5, 2) == 2
        assert list(sub.twinned_runs()) == [(0, 3), (5, 7)]
        sub.drop_twins()
        assert sub.twins is None and list(sub.twinned_runs()) == []

    def test_last_page_run_ends_at_the_subsegment(self, heap, seg):
        sub = seg.expand(1)
        assert sub.twin_pages(heap.address_space, sub.num_pages - 2, 2) == 2
        assert list(sub.twinned_runs()) == [(sub.num_pages - 2, sub.num_pages)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["alloc", "free"]),
                          st.integers(1, 300)), max_size=60))
def test_heap_invariants_under_random_workload(ops):
    heap = Heap(AddressSpace())
    seg = SegmentHeap("s", heap, X86_32)
    live = []
    for op, n in ops:
        if op == "alloc" or not live:
            live.append(seg.allocate(ArrayDescriptor(INT, n), 1))
        else:
            seg.free(live.pop(n % len(live)))
    seg.check_invariants()
    # every live block is still addressable
    for block in live:
        assert seg.block_by_serial(block.serial) is block
        assert seg.block_spanning(block.address) is block
