"""The InterWeave client heap: subsegments, blocks, and free space.

An InterWeave client manages its own heap rather than using ``malloc``.
The cached copy of a segment need not be contiguous: it is a collection of
*subsegments*, each a contiguous, page-aligned mapping, so any given page
holds data from exactly one segment.  Blocks are carved out of subsegments
and are individually contiguous; segments grow by mapping new subsegments.

Bookkeeping matches Figure 2 of the paper:

- per segment: the first-subsegment list, a free list, and two balanced
  trees of blocks — by serial number (``blk_number_tree``) and by symbolic
  name (``blk_name_tree``) — which together support MIP -> pointer
  translation;
- per subsegment: a *pagemap* — here one twin buffer holding pristine
  page images at their page offsets plus one "twinned" flag per page,
  both allocated at a write session's first fault — and a balanced tree
  of blocks by address (``blk_addr_tree``);
- per client: a global tree of all subsegments by address
  (``subseg_addr_tree``); together with the per-subsegment trees it
  supports modification detection and pointer -> MIP translation.

Every block is preceded in memory by a small header region (its size is
:data:`BLOCK_HEADER_SIZE`); the header keeps blocks from abutting so a
changed-word run ending at a block boundary cannot silently bleed into the
next block's data, and mimics the in-memory block headers of the C++
implementation.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.arch import Architecture
from repro.errors import BlockError, SegmentError
from repro.memory.mmu import AddressSpace, flag_runs
from repro.types import TypeDescriptor
from repro.util import AVLTree

#: Bytes reserved in front of every block's data.
BLOCK_HEADER_SIZE = 16

#: Allocation granule; every chunk offset and size is a multiple of this,
#: which also satisfies the strictest primitive alignment (8).
_GRANULE = 16

#: Minimum size of a newly mapped subsegment, in pages.
MIN_SUBSEGMENT_PAGES = 16


class BlockInfo:
    """Metadata for one block (the contents of its header).

    ``version`` is the segment version in which the block was last
    modified, as reported by the server; it drives the locality layout
    optimization and last-block prediction.
    """

    __slots__ = ("serial", "name", "address", "size", "descriptor", "type_serial",
                 "version", "subsegment", "chunk_size")

    def __init__(self, serial: int, name: Optional[str], address: int, size: int,
                 descriptor: TypeDescriptor, type_serial: int, subsegment: "SubSegment",
                 chunk_size: int, version: int = 0):
        self.serial = serial
        self.name = name
        self.address = address
        self.size = size
        self.descriptor = descriptor
        self.type_serial = type_serial
        self.version = version
        self.subsegment = subsegment
        self.chunk_size = chunk_size

    @property
    def end(self) -> int:
        return self.address + self.size

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"Block(#{self.serial}{label} @{self.address:#x} size={self.size})"


class SubSegment:
    """A contiguous page-aligned slice of one segment's cached copy."""

    __slots__ = ("base", "num_pages", "page_size", "segment_heap", "twins", "twinned",
                 "blk_addr_tree")

    def __init__(self, base: int, num_pages: int, page_size: int, segment_heap: "SegmentHeap"):
        self.base = base
        self.num_pages = num_pages
        self.page_size = page_size
        self.segment_heap = segment_heap
        #: pristine images of the twinned pages, each at its page's
        #: offset, and one flag per page; None outside a write session
        #: and until its first fault
        self.twins: Optional[bytearray] = None
        self.twinned: Optional[bytearray] = None
        self.blk_addr_tree = AVLTree()

    @property
    def size(self) -> int:
        return self.num_pages * self.page_size

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def twin_pages(self, memory: AddressSpace, first: int, count: int) -> int:
        """Keep pristine copies of pages [first, first+count) (indices
        within the subsegment) that have none yet — one copy per run of
        such pages; returns how many pages were twinned."""
        if self.twins is None:
            self.twins = bytearray(self.size)
            self.twinned = bytearray(self.num_pages)
        current, twins, made = memory.view(self.base, self.size), memoryview(self.twins), 0
        for page, end in flag_runs(self.twinned, 0, first, first + count):
            lo, hi = page * self.page_size, end * self.page_size
            twins[lo:hi] = current[lo:hi]
            self.twinned[page:end] = b"\x01" * (end - page)
            made += end - page
        return made

    def twinned_runs(self) -> Iterator[Tuple[int, int]]:
        """Maximal runs [first, stop) of twinned pages, in order."""
        return flag_runs(self.twinned or b"", 1)

    def drop_twins(self) -> None:
        self.twins = self.twinned = None

    def __repr__(self):
        return f"SubSegment(@{self.base:#x}, {self.num_pages} pages)"


class Heap:
    """Client-wide heap state shared by all cached segments."""

    def __init__(self, address_space: AddressSpace):
        self.address_space = address_space
        self.subseg_addr_tree = AVLTree()
        #: moves whenever the set of blocks lookups can find changes (a
        #: block linked or unlinked, a subsegment unmapped), so anything
        #: derived from that set can tell when it went stale
        self.epoch = 0

    def find_subsegment(self, address: int) -> Optional[SubSegment]:
        """The subsegment spanning ``address``, or None."""
        hit = self.subseg_addr_tree.floor(address)
        if hit is None:
            return None
        subsegment = hit[1]
        return subsegment if subsegment.contains(address) else None

    def _register(self, subsegment: SubSegment) -> None:
        self.subseg_addr_tree[subsegment.base] = subsegment

    def _unregister(self, subsegment: SubSegment) -> None:
        del self.subseg_addr_tree[subsegment.base]
        self.epoch += 1  # its blocks went with it


class SegmentHeap:
    """Per-segment allocation state: subsegments, free list, block trees."""

    def __init__(self, name: str, heap: Heap, arch: Architecture):
        self.name = name
        self.heap = heap
        self.arch = arch
        self.subsegments: List[SubSegment] = []
        #: free chunks keyed by start address (values are chunk sizes)
        self.free_tree = AVLTree()
        self.blk_number_tree = AVLTree()
        self.blk_name_tree = AVLTree()
        self.next_serial = 1

    # -- growth ----------------------------------------------------------------

    def expand(self, min_bytes: int) -> SubSegment:
        """Map a new subsegment with at least ``min_bytes`` of space."""
        page_size = self.heap.address_space.page_size
        pages = max(MIN_SUBSEGMENT_PAGES, -(-min_bytes // page_size))
        base = self.heap.address_space.map_region(pages)
        subsegment = SubSegment(base, pages, page_size, self)
        self.subsegments.append(subsegment)
        self.heap._register(subsegment)
        self._free_chunk(base, subsegment.size)
        return subsegment

    # -- allocation ---------------------------------------------------------------

    def allocate(self, descriptor: TypeDescriptor, type_serial: int,
                 name: Optional[str] = None, serial: Optional[int] = None,
                 version: int = 0) -> BlockInfo:
        """Allocate a block; assigns the next serial unless one is given.

        A caller-provided serial is used when materializing blocks received
        from the server, whose serials were assigned by their creator.
        """
        if name is not None and name in self.blk_name_tree:
            raise BlockError(f"segment {self.name!r}: block name {name!r} already in use")
        if serial is None:
            serial = self.next_serial
        elif serial in self.blk_number_tree:
            raise BlockError(f"segment {self.name!r}: block serial {serial} already in use")
        self.next_serial = max(self.next_serial, serial + 1)

        data_size = descriptor.local_size(self.arch)
        chunk_size = BLOCK_HEADER_SIZE + Architecture.align_up(max(data_size, 1), _GRANULE)
        chunk_start = self._take_chunk(chunk_size)
        if chunk_start is None:
            self.expand(chunk_size)
            chunk_start = self._take_chunk(chunk_size)
            if chunk_start is None:
                raise SegmentError(f"segment {self.name!r}: allocation of {chunk_size} failed")

        address = chunk_start + BLOCK_HEADER_SIZE
        subsegment = self.heap.find_subsegment(address)
        if subsegment is None or subsegment.segment_heap is not self:
            raise SegmentError(f"segment {self.name!r}: chunk outside own subsegments")
        block = BlockInfo(serial, name, address, data_size, descriptor, type_serial,
                          subsegment, chunk_size, version)
        self.link(block)
        return block

    def link(self, block: BlockInfo) -> None:
        """Make a block findable by serial, name and address."""
        self.blk_number_tree[block.serial] = block
        if block.name is not None:
            self.blk_name_tree[block.name] = block
        block.subsegment.blk_addr_tree[block.address] = block
        self.heap.epoch += 1

    def unlink(self, block: BlockInfo) -> None:
        """Hide a block from every lookup; its storage stays allocated."""
        del self.blk_number_tree[block.serial]
        if block.name is not None:
            del self.blk_name_tree[block.name]
        del block.subsegment.blk_addr_tree[block.address]
        self.heap.epoch += 1

    def free(self, block: BlockInfo) -> None:
        """Return a block's chunk to the free list (coalescing neighbours)."""
        existing = self.blk_number_tree.get(block.serial)
        if existing is not block:
            raise BlockError(f"segment {self.name!r}: block #{block.serial} not live")
        self.unlink(block)
        self._free_chunk(block.address - BLOCK_HEADER_SIZE, block.chunk_size)

    # -- lookups --------------------------------------------------------------------

    def block_by_serial(self, serial: int) -> BlockInfo:
        block = self.blk_number_tree.get(serial)
        if block is None:
            raise BlockError(f"segment {self.name!r}: no block with serial {serial}")
        return block

    def block_by_name(self, name: str) -> BlockInfo:
        block = self.blk_name_tree.get(name)
        if block is None:
            raise BlockError(f"segment {self.name!r}: no block named {name!r}")
        return block

    def block_spanning(self, address: int) -> Optional[BlockInfo]:
        """The block whose data contains ``address`` (pointer -> MIP path)."""
        subsegment = self.heap.find_subsegment(address)
        if subsegment is None or subsegment.segment_heap is not self:
            return None
        hit = subsegment.blk_addr_tree.floor(address)
        if hit is None:
            return None
        block = hit[1]
        return block if address < block.end else None

    def blocks(self) -> Iterator[BlockInfo]:
        """All live blocks in serial order."""
        return self.blk_number_tree.values()

    @property
    def total_data_bytes(self) -> int:
        return sum(block.size for block in self.blocks())

    # -- free-list internals -----------------------------------------------------------

    def _take_chunk(self, size: int) -> Optional[int]:
        """First-fit scan of the free list in address order."""
        candidate = None
        for start, chunk_size in self.free_tree.items():
            if chunk_size >= size:
                candidate = (start, chunk_size)
                break
        if candidate is None:
            return None
        start, chunk_size = candidate
        del self.free_tree[start]
        if chunk_size > size:
            self.free_tree[start + size] = chunk_size - size
        return start

    def _free_chunk(self, start: int, size: int) -> None:
        subsegment = self.heap.find_subsegment(start)
        # Coalesce with the preceding chunk if contiguous within the same
        # subsegment (subsegments may be non-adjacent in address space).
        prev = self.free_tree.floor(start)
        if prev is not None:
            prev_start, prev_size = prev
            if prev_start + prev_size == start and subsegment is not None \
                    and subsegment.contains(prev_start):
                del self.free_tree[prev_start]
                start, size = prev_start, prev_size + size
        nxt = self.free_tree.ceiling(start + size)
        if nxt is not None:
            next_start, next_size = nxt
            if start + size == next_start and subsegment is not None \
                    and subsegment.contains(next_start):
                del self.free_tree[next_start]
                size += next_size
        self.free_tree[start] = size

    def free_bytes(self) -> int:
        return sum(size for _, size in self.free_tree.items())

    def check_invariants(self) -> None:
        """Validate heap consistency (used by tests and property checks)."""
        self.free_tree.check_invariants()
        self.blk_number_tree.check_invariants()
        spans = []
        for block in self.blocks():
            spans.append((block.address - BLOCK_HEADER_SIZE, block.chunk_size, "block"))
            assert block.subsegment.contains(block.address)
            assert block.end <= block.subsegment.end
        for start, size in self.free_tree.items():
            spans.append((start, size, "free"))
        spans.sort()
        for (s1, l1, _), (s2, _, _) in zip(spans, spans[1:]):
            assert s1 + l1 <= s2, "heap chunks overlap"
        covered = sum(l for _, l, _ in spans)
        total = sum(sub.size for sub in self.subsegments)
        assert covered == total, f"heap accounting mismatch: {covered} != {total}"
