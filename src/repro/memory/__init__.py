"""Simulated memory: mappings + MMU, the subsegment heap, typed accessors."""

from repro.memory.accessor import (
    Accessor,
    AccessorContext,
    ArrayAccessor,
    PointerAccessor,
    PrimitiveAccessor,
    RecordAccessor,
    StringAccessor,
    make_accessor,
)
from repro.memory.heap import (
    BLOCK_HEADER_SIZE,
    MIN_SUBSEGMENT_PAGES,
    BlockInfo,
    Heap,
    SegmentHeap,
    SubSegment,
)
from repro.memory.mmu import PAGE_SIZE, AddressSpace

__all__ = [
    "Accessor",
    "AccessorContext",
    "AddressSpace",
    "ArrayAccessor",
    "BLOCK_HEADER_SIZE",
    "BlockInfo",
    "Heap",
    "MIN_SUBSEGMENT_PAGES",
    "PAGE_SIZE",
    "PointerAccessor",
    "PrimitiveAccessor",
    "RecordAccessor",
    "SegmentHeap",
    "StringAccessor",
    "SubSegment",
    "make_accessor",
]
