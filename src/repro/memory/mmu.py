"""Simulated virtual memory with page protection and write faults.

InterWeave's client-side modification tracking rests on virtual memory
hardware: on a write-lock acquire the library write-protects the pages of
the segment; the first store to each page raises SIGSEGV, and the signal
handler makes a pristine copy (*twin*) of the page, records it in the
subsegment's pagemap, and re-enables write access.

Python does not take real page faults, so this module is the stand-in: an
:class:`AddressSpace` of mappings, each one contiguous buffer with one
protection flag per page.  Every store issued by the typed accessor
layer goes through :meth:`AddressSpace.store`; a store that touches
write-protected pages invokes the registered fault handler — the same
contract as the paper's SIGSEGV handler (create twin, unprotect, retry)
— before the bytes land.  Where real hardware would fault once per page,
the handler is called once per maximal run of protected pages the store
touches (``mmu.write_faults`` still counts pages), so an MB-scale store
costs one slice copy, not one Python call per 4 KiB.

Addresses are plain integers.  Regions are mapped at page granularity by a
bump allocator, so every page belongs to at most one mapping (the paper's
invariant that "any given page contains data from only one segment" is
enforced one level up, by the heap, which maps a fresh region per
subsegment).  A fault never covers pages of two mappings.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import ProtectionError
from repro.obs.metrics import MetricsRegistry, OwnerCounters, get_registry

#: Default page size (bytes).  4 KiB, as on the paper's platforms.
PAGE_SIZE = 4096

#: Base address of the first mapping; nonzero so address 0 stays NULL.
_BASE_ADDRESS = 0x1000_0000


def flag_runs(flags, value: int, start: int = 0, stop: Optional[int] = None
              ) -> Iterator[Tuple[int, int]]:
    """Maximal runs [first, end) of ``value`` in ``flags[start:stop]``, a
    bytes-like of 0/1 page flags, found by C-level scans.  Flags behind
    the run last yielded may be changed while iterating."""
    stop = len(flags) if stop is None else stop
    first = flags.find(value, start, stop)
    while first >= 0:
        end = flags.find(1 - value, first, stop)
        if end < 0:
            end = stop
        yield first, end
        first = flags.find(value, end, stop)


class _Mapping:
    """One ``map_region``: its bytes and a write-protected flag per page."""

    __slots__ = ("base", "end", "view", "protected")

    def __init__(self, base: int, num_pages: int, page_size: int):
        self.base = base
        self.end = base + num_pages * page_size
        #: the mapping's bytes: every load, store and window is a slice
        self.view = memoryview(bytearray(num_pages * page_size))
        self.protected = bytearray(num_pages)


class AddressSpace:
    """A client process's simulated address space.

    ``fault_handler(address_space, first_page, count)`` is installed by
    the InterWeave client library at startup (mirroring its SIGSEGV
    handler).  It is handed a run of write-protected pages within one
    mapping and must either make all of them writable (returning True)
    or return False, in which case the store raises
    :class:`ProtectionError` and lands no bytes.
    """

    def __init__(self, page_size: int = PAGE_SIZE,
                 metrics: Optional[MetricsRegistry] = None):
        if page_size < 32 or page_size & (page_size - 1):
            raise ValueError(f"page size must be a power of two >= 32, got {page_size}")
        self.page_size = page_size
        self._page_shift = page_size.bit_length() - 1
        #: live mappings in address order, and their bases for bisect
        self._mappings: List[_Mapping] = []
        self._bases: List[int] = []
        self._last: Optional[_Mapping] = None
        self._next_page = _BASE_ADDRESS // page_size
        self.fault_handler: Optional[Callable[["AddressSpace", int, int], bool]] = None
        #: this address space's own share of each ``mmu.*`` counter below
        self.stats = OwnerCounters(self, metrics or get_registry(), "mmu", {
            "write_faults": "write-protected pages that stores hit",
            "protect_calls": "protect_range invocations",
            "unprotect_calls": "unprotect invocations",
        })
        self._counts = self.stats.parts

    # -- mapping ---------------------------------------------------------------

    def map_region(self, num_pages: int) -> int:
        """Map ``num_pages`` fresh zeroed pages; returns the base address."""
        if num_pages < 1:
            raise ValueError("must map at least one page")
        base = self._next_page * self.page_size
        self._next_page += num_pages
        self._mappings.append(_Mapping(base, num_pages, self.page_size))
        self._bases.append(base)
        return base

    def unmap_region(self, base: int, num_pages: int) -> None:
        """Remove the mapping ``map_region(num_pages)`` returned ``base``
        for (used when a cached segment is discarded)."""
        index = bisect_right(self._bases, base) - 1
        if (index < 0 or self._mappings[index].base != base
                or self._mappings[index].end != base + num_pages * self.page_size):
            raise ProtectionError(
                f"{num_pages} pages at {base:#x} are not one live mapping")
        del self._mappings[index], self._bases[index]
        self._last = None

    def is_mapped(self, address: int) -> bool:
        index = bisect_right(self._bases, address) - 1
        return index >= 0 and address < self._mappings[index].end

    def _mapping_at(self, address: int) -> _Mapping:
        mapping = self._last
        if mapping is not None and mapping.base <= address < mapping.end:
            return mapping
        index = bisect_right(self._bases, address) - 1
        if index >= 0:
            mapping = self._mappings[index]
            if address < mapping.end:
                self._last = mapping
                return mapping
        raise ProtectionError(
            f"page {address >> self._page_shift:#x} is not mapped")

    def _spans(self, address: int, size: int) -> Iterator[Tuple[_Mapping, int, int]]:
        """(mapping, offset, length) pieces of [address, address+size);
        raises at the first unmapped page."""
        end = address + size
        while address < end:
            mapping = self._mapping_at(address)
            length = min(end, mapping.end) - address
            yield mapping, address - mapping.base, length
            address += length

    # -- protection --------------------------------------------------------------

    def protect_range(self, base: int, length: int) -> None:
        """Write-protect all pages overlapping [base, base+length)."""
        self._set_protection(base, length, b"\x01")
        self._counts.protect_calls.inc()

    def unprotect_range(self, base: int, length: int) -> None:
        self._set_protection(base, length, b"\x00")
        self._counts.unprotect_calls.inc()

    def _set_protection(self, base: int, length: int, flag: bytes) -> None:
        shift = self._page_shift
        for mapping, offset, size in self._spans(base, length):
            first = offset >> shift
            stop = ((offset + size - 1) >> shift) + 1
            mapping.protected[first:stop] = flag * (stop - first)

    # -- loads and stores ----------------------------------------------------------

    def load(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes (may span mappings)."""
        if size <= 0:
            return b""
        mapping = self._mapping_at(address)
        offset = address - mapping.base
        if address + size <= mapping.end:
            return mapping.view[offset:offset + size].tobytes()
        return b"".join(mapping.view[offset:offset + length]
                        for mapping, offset, length in self._spans(address, size))

    def store(self, address: int, data) -> None:
        """Write bytes (may span mappings), taking write faults as needed.

        This is the single choke point all application stores go through —
        the simulated equivalent of the CPU's store path.  Every page the
        store touches is faulted writable before the first byte is copied,
        so a store the handler refuses changes nothing.
        """
        size = len(data)
        if size == 0:
            return
        mapping = self._mapping_at(address)
        offset = address - mapping.base
        if address + size <= mapping.end:
            shift = self._page_shift
            if mapping.protected.find(
                    1, offset >> shift, ((offset + size - 1) >> shift) + 1) >= 0:
                self._fault_span(mapping, offset, size)
            mapping.view[offset:offset + size] = data
            return
        spans = list(self._spans(address, size))
        for mapping, offset, length in spans:
            self._fault_span(mapping, offset, length)
        source = memoryview(data)
        cursor = 0
        for mapping, offset, length in spans:
            mapping.view[offset:offset + length] = source[cursor:cursor + length]
            cursor += length

    def view(self, address: int, size: int) -> memoryview:
        """A read-only zero-copy window; must lie within one mapping."""
        return self._window(address, size, fault=False).toreadonly()

    def writable_view(self, address: int, size: int) -> memoryview:
        """A writable zero-copy window within one mapping, faulted like a
        store of the whole window; write through it before protection
        changes again."""
        return self._window(address, size, fault=True)

    def _window(self, address: int, size: int, fault: bool) -> memoryview:
        mapping = self._mapping_at(address)
        offset = address - mapping.base
        if size < 0 or address + size > mapping.end:
            if size > 0:
                self._mapping_at(mapping.end)  # unmapped beyond: say so
            raise ProtectionError(
                f"window of {size} bytes at {address:#x} is not within one mapping")
        if fault and size > 0:
            self._fault_span(mapping, offset, size)
        return mapping.view[offset:offset + size]

    def _fault_span(self, mapping: _Mapping, offset: int, size: int) -> None:
        """Take the write faults of a store to ``size`` > 0 bytes at
        ``offset``: one handler call per maximal run of protected pages."""
        flags = mapping.protected
        stop = ((offset + size - 1) >> self._page_shift) + 1
        for page, end in flag_runs(flags, 1, offset >> self._page_shift, stop):
            count = end - page
            first_page = (mapping.base >> self._page_shift) + page
            self._counts.write_faults.inc(count)
            if self.fault_handler is None:
                raise ProtectionError(
                    f"write fault on page {first_page:#x} with no fault handler installed")
            if not self.fault_handler(self, first_page, count):
                raise ProtectionError(
                    f"fault handler refused write to {count} pages at {first_page:#x}")
            if flags.find(1, page, end) >= 0:
                raise ProtectionError(
                    f"store to {count} write-protected pages at {first_page:#x} "
                    "not resolved by fault handler")
