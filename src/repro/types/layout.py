"""Flattened per-architecture layouts ("translation programs").

For translation and offset mapping the library does not walk the descriptor
tree field by field.  Instead, for each (type, architecture) pair it
flattens the tree once into a small list of :class:`LayoutRun`\\ s — groups
of identical primitives at regular local strides — and all hot operations
(diff collection, diff application, MIP swizzling) run over those runs.

Flattening with ``coalesce=True`` merges consecutive same-primitive fields
into a single run: this is exactly the paper's *isomorphic type
descriptors* optimization ("if a struct contains 10 consecutive integer
fields, the compiler generates a descriptor containing a 10-element integer
array instead").  ``coalesce=False`` keeps one run per field, which the
ablation benchmark uses to measure what the optimization buys.

A :class:`LayoutRun` describes ``repeat`` x ``unit_count`` primitive units:

- unit (i, j) — repetition ``i`` in [0, repeat), unit ``j`` in [0, unit_count)
- has machine-independent primitive offset ``prim_start + i*prim_stride + j``
- and local byte offset ``local_start + i*local_stride + j*unit_size``.

An array of records flattens into one run per (coalesced) field with
``repeat`` = the array count, so a megabyte-scale array is a handful of
runs no matter its length.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.arch import WIRE_SIZES, Architecture, PrimKind
from repro.errors import TypeDescriptorError
from repro.types.descriptor import (
    ArrayDescriptor,
    PointerDescriptor,
    PrimitiveDescriptor,
    RecordDescriptor,
    StringDescriptor,
    TypeDescriptor,
)

#: Range count up to which the scalar byte-range mapper beats the array
#: pass over a uniform layout's instances (measured, microseconds: 8
#: ranges 30 vs 117, 32: 97 vs 118, 64: 190 vs 118, 256: 771 vs 125).
_SCALAR_RANGES_MAX = 32

#: Wire size of a variable unit's length header (strings and MIPs are sent
#: as a 4-byte length followed by that many bytes).
VAR_LEN_HEADER = 4


class LayoutRun:
    """A strided group of identical primitive units (see module docstring)."""

    __slots__ = (
        "kind",
        "capacity",
        "prim_start",
        "local_start",
        "unit_count",
        "repeat",
        "prim_stride",
        "local_stride",
        "unit_size",
    )

    def __init__(self, kind, capacity, prim_start, local_start, unit_count, repeat,
                 prim_stride, local_stride, unit_size):
        self.kind: PrimKind = kind
        self.capacity: int = capacity  # string capacity; 0 for other kinds
        self.prim_start: int = prim_start
        self.local_start: int = local_start
        self.unit_count: int = unit_count
        self.repeat: int = repeat
        self.prim_stride: int = prim_stride
        self.local_stride: int = local_stride
        self.unit_size: int = unit_size

    @property
    def total_units(self) -> int:
        return self.unit_count * self.repeat

    @property
    def prim_end(self) -> int:
        """One past the largest primitive offset covered."""
        return self.prim_start + (self.repeat - 1) * self.prim_stride + self.unit_count

    def shifted(self, prim_delta: int, local_delta: int) -> "LayoutRun":
        return LayoutRun(
            self.kind, self.capacity,
            self.prim_start + prim_delta, self.local_start + local_delta,
            self.unit_count, self.repeat,
            self.prim_stride, self.local_stride, self.unit_size,
        )

    def unit_local_offset(self, i: int, j: int) -> int:
        return self.local_start + i * self.local_stride + j * self.unit_size

    def locate_prim(self, prim_offset: int) -> Optional[Tuple[int, int]]:
        """Return (i, j) if this run covers ``prim_offset``, else None."""
        delta = prim_offset - self.prim_start
        if delta < 0:
            return None
        i, j = divmod(delta, self.prim_stride)
        if i < self.repeat and j < self.unit_count:
            return (i, j)
        return None

    def __repr__(self):
        return (
            f"LayoutRun({self.kind.value}, prim={self.prim_start}+i*{self.prim_stride}+j, "
            f"local={self.local_start}+i*{self.local_stride}+j*{self.unit_size}, "
            f"c={self.unit_count}, r={self.repeat})"
        )


def _filler_strides(unit_count: int, unit_size: int) -> Tuple[int, int]:
    """Canonical (prim_stride, local_stride) for a repeat-1 run."""
    return unit_count, unit_count * unit_size


def _flatten(descriptor: TypeDescriptor, arch: Architecture, coalesce: bool) -> List[LayoutRun]:
    if isinstance(descriptor, PrimitiveDescriptor):
        size = arch.prim_size(descriptor.kind)
        prim_stride, local_stride = _filler_strides(1, size)
        return [LayoutRun(descriptor.kind, 0, 0, 0, 1, 1, prim_stride, local_stride, size)]

    if isinstance(descriptor, StringDescriptor):
        size = descriptor.capacity
        prim_stride, local_stride = _filler_strides(1, size)
        return [LayoutRun(PrimKind.STRING, size, 0, 0, 1, 1, prim_stride, local_stride, size)]

    if isinstance(descriptor, PointerDescriptor):
        size = arch.pointer_size
        prim_stride, local_stride = _filler_strides(1, size)
        return [LayoutRun(PrimKind.POINTER, 0, 0, 0, 1, 1, prim_stride, local_stride, size)]

    if isinstance(descriptor, RecordDescriptor):
        runs: List[LayoutRun] = []
        for field, local_offset, prim_offset in descriptor.iter_field_layout(arch):
            for run in _flatten(field.descriptor, arch, coalesce):
                runs.append(run.shifted(prim_offset, local_offset))
        return _coalesce(runs) if coalesce else runs

    if isinstance(descriptor, ArrayDescriptor):
        element_runs = _flatten(descriptor.element, arch, coalesce)
        count = descriptor.count
        element_prims = descriptor.element.prim_count
        element_stride = descriptor.element_stride(arch)
        runs = []
        for run in element_runs:
            wrapped = _wrap_array(run, count, element_prims, element_stride)
            if wrapped is not None:
                runs.append(wrapped)
            else:
                # Irregular inner repetition: replicate materially.
                for i in range(count):
                    runs.append(run.shifted(i * element_prims, i * element_stride))
        return _coalesce(runs) if coalesce else runs

    raise TypeDescriptorError(f"cannot flatten descriptor {descriptor!r}")


def _wrap_array(run: LayoutRun, count: int, element_prims: int,
                element_stride: int) -> Optional[LayoutRun]:
    """Lift a run of the element type to a run of the whole array, if regular."""
    if run.repeat == 1:
        lifted = LayoutRun(
            run.kind, run.capacity, run.prim_start, run.local_start,
            run.unit_count, count, element_prims, element_stride, run.unit_size,
        )
    elif (run.prim_stride * run.repeat == element_prims
          and run.local_stride * run.repeat == element_stride
          and run.prim_start + run.unit_count <= run.prim_stride):
        lifted = LayoutRun(
            run.kind, run.capacity, run.prim_start, run.local_start,
            run.unit_count, run.repeat * count,
            run.prim_stride, run.local_stride, run.unit_size,
        )
    else:
        return None
    # If the repetitions are contiguous continuations of each other, the run
    # is one dense stretch of units: collapse repeats into unit_count.
    if (lifted.prim_stride == lifted.unit_count
            and lifted.local_stride == lifted.unit_count * lifted.unit_size):
        stride_prim, stride_local = _filler_strides(
            lifted.unit_count * lifted.repeat, lifted.unit_size)
        return LayoutRun(
            lifted.kind, lifted.capacity, lifted.prim_start, lifted.local_start,
            lifted.unit_count * lifted.repeat, 1, stride_prim, stride_local,
            lifted.unit_size,
        )
    return lifted


def _coalesce(runs: List[LayoutRun]) -> List[LayoutRun]:
    """Merge adjacent repeat-1 runs of the same primitive with contiguous
    prim and local offsets (the isomorphic-descriptor optimization)."""
    merged: List[LayoutRun] = []
    for run in runs:
        if merged:
            prev = merged[-1]
            if (prev.repeat == 1 and run.repeat == 1
                    and prev.kind is run.kind
                    and prev.capacity == run.capacity
                    and run.prim_start == prev.prim_start + prev.unit_count
                    and run.local_start == prev.local_start + prev.unit_count * prev.unit_size):
                unit_count = prev.unit_count + run.unit_count
                prim_stride, local_stride = _filler_strides(unit_count, prev.unit_size)
                merged[-1] = LayoutRun(
                    prev.kind, prev.capacity, prev.prim_start, prev.local_start,
                    unit_count, 1, prim_stride, local_stride, prev.unit_size,
                )
                continue
        merged.append(run)
    return merged


class FlatLayout:
    """The flattened layout of one type on one architecture.

    Provides the mappings the paper's algorithms need:

    - primitive offset -> local byte offset (diff application, MIP -> ptr)
    - local byte offset -> primitive offset (diff collection, ptr -> MIP)
    - changed byte range -> covered primitive runs (diff collection)
    - per-instance wire stride (vectorized translation)
    """

    def __init__(self, descriptor: TypeDescriptor, arch: Architecture, coalesce: bool = True):
        self.descriptor = descriptor
        self.arch = arch
        self.coalesced = coalesce
        self.runs = sorted(
            _flatten(descriptor, arch, coalesce), key=lambda run: run.prim_start
        )
        self.prim_count = descriptor.prim_count
        self.local_size = descriptor.local_size(arch)
        # Uniform <=> all runs share the same repetition geometry, so the
        # layout is "instances" tiling both offset spaces.  A repeat-1 run
        # set (a plain record) is trivially uniform with one instance.
        self.repeat = None
        self.instance_prims = None
        self.instance_size = None
        if all(run.repeat == 1 for run in self.runs):
            # A plain record (or dense array) is trivially one instance.
            self.repeat = 1
            self.instance_prims = self.prim_count
            self.instance_size = self.local_size
        else:
            geometries = {(run.repeat, run.prim_stride, run.local_stride) for run in self.runs}
            if len(geometries) == 1:
                repeat, instance_prims, instance_size = next(iter(geometries))
                if (repeat * instance_prims == self.prim_count
                        and repeat * instance_size == self.local_size):
                    # Instances genuinely tile both offset spaces.
                    self.repeat = repeat
                    self.instance_prims = instance_prims
                    self.instance_size = instance_size
        self.has_variable = any(run.kind.is_variable_wire_size for run in self.runs)
        # Wire offset of each run's units within one instance's wire bytes
        # (only meaningful when every unit has a fixed wire size).
        self._instance_wire_offsets: Optional[List[int]] = None
        self.instance_wire_size: Optional[int] = None
        if not self.has_variable and self.repeat is not None:
            offsets, cursor = [], 0
            for run in self.runs:  # sorted by prim_start = in-instance order
                offsets.append(cursor)
                cursor += run.unit_count * WIRE_SIZES[run.kind]
            self._instance_wire_offsets = offsets
            self.instance_wire_size = cursor

    @property
    def uniform(self) -> bool:
        return self.repeat is not None

    def run_instance_wire_offset(self, run_index: int) -> int:
        """Wire byte offset of a run's units inside one instance (fixed-size only)."""
        if self._instance_wire_offsets is None:
            raise TypeDescriptorError("layout has variable-size units or is not uniform")
        return self._instance_wire_offsets[run_index]

    # -- offset mappings -------------------------------------------------------

    def prim_to_local(self, prim_offset: int) -> Tuple[PrimKind, int, int]:
        """Map a primitive offset to (kind, capacity, local byte offset)."""
        if not 0 <= prim_offset < self.prim_count:
            raise TypeDescriptorError(
                f"primitive offset {prim_offset} out of range [0, {self.prim_count})")
        for run in self.runs:
            hit = run.locate_prim(prim_offset)
            if hit is not None:
                i, j = hit
                return (run.kind, run.capacity, run.unit_local_offset(i, j))
        raise TypeDescriptorError(f"primitive offset {prim_offset} maps to no unit")

    def local_to_prim(self, byte_offset: int) -> Optional[Tuple[int, PrimKind, int, int]]:
        """Map a local byte offset to (prim offset, kind, capacity, unit start).

        Returns None when the byte falls in alignment padding.
        """
        if not 0 <= byte_offset < self.local_size:
            raise TypeDescriptorError(
                f"byte offset {byte_offset} out of range [0, {self.local_size})")
        for run in self.runs:
            delta = byte_offset - run.local_start
            if delta < 0:
                continue
            i, rem = divmod(delta, run.local_stride)
            if i >= run.repeat or rem >= run.unit_count * run.unit_size:
                continue
            j = rem // run.unit_size
            prim = run.prim_start + i * run.prim_stride + j
            return (prim, run.kind, run.capacity, run.unit_local_offset(i, j))
        return None

    def prim_runs_for_byte_range(self, byte_lo: int, byte_hi: int) -> List[Tuple[int, int]]:
        """Primitive-unit runs overlapping local bytes [byte_lo, byte_hi).

        This is the heart of diff collection: the word-diffing pass yields
        changed byte ranges, and this maps them into the machine-independent
        primitive runs that go on the wire.  The result is normalized
        (sorted, disjoint, merged).
        """
        byte_lo = max(0, byte_lo)
        byte_hi = min(self.local_size, byte_hi)
        if byte_lo >= byte_hi:
            return []
        if byte_lo == 0 and byte_hi == self.local_size:
            return [(0, self.prim_count)]

        prim_runs: List[Tuple[int, int]] = []
        if self.uniform and self.repeat > 1:
            # Whole instances in the middle cover a dense prim range; only
            # the partial head/tail instances need per-run treatment.
            first = byte_lo // self.instance_size
            last = (byte_hi - 1) // self.instance_size  # inclusive
            full_lo = first + (0 if byte_lo == first * self.instance_size else 1)
            full_hi = last + (1 if byte_hi == (last + 1) * self.instance_size else 0)
            if full_lo < full_hi:
                prim_runs.append(
                    (full_lo * self.instance_prims, (full_hi - full_lo) * self.instance_prims))
            partial = [i for i in (first, last) if not full_lo <= i < full_hi]
            for i in sorted(set(partial)):
                lo = max(byte_lo, i * self.instance_size)
                hi = min(byte_hi, (i + 1) * self.instance_size)
                prim_runs.extend(self._scan_runs(lo, hi, i, i + 1))
        else:
            prim_runs.extend(self._scan_runs(byte_lo, byte_hi, None, None))

        from repro.util import runs as run_algebra

        return run_algebra.normalize(prim_runs)


    def prim_runs_for_byte_ranges(self, byte_los, byte_his):
        """Vectorized :meth:`prim_runs_for_byte_range` over many ranges.

        ``byte_los``/``byte_his`` are parallel arrays of local byte ranges,
        sorted and disjoint (the shape word diffing produces).  Returns
        parallel numpy arrays (prim_starts, prim_counts), normalized.

        The single-dense-run layout (flat arrays — the diff-heavy case)
        and, above a few ranges, uniform repeated layouts (arrays of
        records) take pure-array paths; other layouts fall back to the
        scalar mapper per range.
        """
        import numpy as np

        byte_los = np.asarray(byte_los, dtype=np.int64)
        byte_his = np.asarray(byte_his, dtype=np.int64)
        if byte_los.size == 0:
            return byte_los, byte_his
        if (not self.has_variable and len(self.runs) == 1
                and self.runs[0].repeat == 1):
            run = self.runs[0]
            unit = run.unit_size
            los = np.clip(byte_los - run.local_start, 0,
                          run.unit_count * unit)
            his = np.clip(byte_his - run.local_start, 0,
                          run.unit_count * unit)
            j_lo = los // unit
            j_hi = (his + unit - 1) // unit
            valid = j_lo < j_hi
            starts = run.prim_start + j_lo[valid]
            ends = run.prim_start + j_hi[valid]
            starts, ends = merge_run_arrays(starts, ends)
            return starts, ends - starts
        if self.uniform and self.repeat > 1 and byte_los.size > _SCALAR_RANGES_MAX:
            return self._instance_runs_for_byte_ranges(
                np.clip(byte_los, 0, self.local_size),
                np.clip(byte_his, 0, self.local_size))
        collected = []
        for lo, hi in zip(byte_los.tolist(), byte_his.tolist()):
            collected.extend(self.prim_runs_for_byte_range(lo, hi))
        from repro.util import runs as run_algebra

        normalized = run_algebra.normalize(collected)
        starts = np.fromiter((s for s, _ in normalized), np.int64, len(normalized))
        counts = np.fromiter((c for _, c in normalized), np.int64, len(normalized))
        return starts, counts

    def _instance_runs_for_byte_ranges(self, los, his):
        """The uniform-layout case of :meth:`prim_runs_for_byte_ranges`:
        whole instances inside a range are one dense unit run, and the
        partial first/last instances of every range go through each
        layout run once, as arrays of in-instance byte windows."""
        import numpy as np

        size, prims = self.instance_size, self.instance_prims
        los, his = los[los < his], his[los < his]
        first, last = los // size, (his - 1) // size
        full_lo = first + (los != first * size)
        full_hi = last + (his == (last + 1) * size)
        whole = full_lo < full_hi
        head = (first < full_lo) | (first >= full_hi)
        tail = (last >= full_hi) & (last != first)
        inst = np.concatenate((first[head], last[tail]))
        lo = np.maximum(np.concatenate((los[head], los[tail])) - inst * size, 0)
        hi = np.minimum(np.concatenate((his[head], his[tail])) - inst * size, size)
        starts, ends = [full_lo[whole] * prims], [full_hi[whole] * prims]
        for run in self.runs:
            width = run.unit_count * run.unit_size
            j_lo = np.clip(lo - run.local_start, 0, width) // run.unit_size
            j_hi = -(-np.clip(hi - run.local_start, 0, width) // run.unit_size)
            hit = j_lo < j_hi
            origin = inst[hit] * prims + run.prim_start
            starts.append(origin + j_lo[hit])
            ends.append(origin + j_hi[hit])
        starts, ends = np.concatenate(starts), np.concatenate(ends)
        order = np.argsort(starts, kind="stable")
        # two ranges can each cover part of one unit: keep ends monotone
        starts, ends = merge_run_arrays(
            starts[order], np.maximum.accumulate(ends[order]))
        return starts, ends - starts

    def locate_units(self, prims):
        """Array form of :meth:`prim_to_local`: for an int64 array of
        primitive offsets, (index into ``runs``, local byte offset) per
        unit; the index is -1 where the offset is outside the block."""
        return self._map_units(prims, to_local=True)

    def units_at(self, byte_offsets):
        """Array form of :meth:`local_to_prim`: the primitive offset of
        the unit holding each local byte offset, -1 for padding or
        offsets outside the block."""
        return self._map_units(byte_offsets, to_local=False)[1]

    def _map_units(self, offsets, to_local: bool):
        import numpy as np

        which = np.full(offsets.shape, -1, np.int16)
        mapped = np.full(offsets.shape, -1, np.int64)
        for index, run in enumerate(self.runs):
            near = (run.prim_start, run.prim_stride, 1)
            far = (run.local_start, run.local_stride, run.unit_size)
            (start, stride, unit), (to_start, to_stride, to_unit) = (
                (near, far) if to_local else (far, near))
            delta = offsets - start
            i = delta // stride
            j = (delta - i * stride) // unit
            # a negative i (an offset before the run) is huge as unsigned
            hit = np.flatnonzero(
                (i.view(np.uint64) < run.repeat) & (j < run.unit_count))
            which[hit] = index
            mapped[hit] = to_start + i[hit] * to_stride + j[hit] * to_unit
        return which, mapped

    def _scan_runs(self, byte_lo: int, byte_hi: int,
                   inst_lo: Optional[int], inst_hi: Optional[int]) -> List[Tuple[int, int]]:
        """Per-run unit scan over a byte window, optionally clipped to an
        instance range (both measured in the run's own repetitions)."""
        out: List[Tuple[int, int]] = []
        for run in self.runs:
            units_bytes = run.unit_count * run.unit_size
            i_lo = 0 if byte_lo <= run.local_start else (byte_lo - run.local_start) // run.local_stride
            i_hi = (byte_hi - 1 - run.local_start) // run.local_stride
            if inst_lo is not None:
                i_lo = max(i_lo, inst_lo)
                i_hi = min(i_hi, inst_hi - 1)
            i_lo = max(i_lo, 0)
            i_hi = min(i_hi, run.repeat - 1)
            for i in range(i_lo, i_hi + 1):
                base = run.local_start + i * run.local_stride
                lo = max(byte_lo, base)
                hi = min(byte_hi, base + units_bytes)
                if lo >= hi:
                    continue
                j_lo = (lo - base) // run.unit_size
                j_hi = (hi - base + run.unit_size - 1) // run.unit_size
                j_hi = min(j_hi, run.unit_count)
                if j_lo < j_hi:
                    out.append((run.prim_start + i * run.prim_stride + j_lo, j_hi - j_lo))
        return out


def flat_layout(descriptor: TypeDescriptor, arch: Architecture,
                coalesce: bool = True) -> FlatLayout:
    """Return the (cached) flattened layout of ``descriptor`` on ``arch``."""
    cache = getattr(descriptor, "_flat_cache", None)
    if cache is None:
        cache = {}
        try:
            descriptor._flat_cache = cache
        except AttributeError:  # descriptors with __slots__ would land here
            return FlatLayout(descriptor, arch, coalesce)
    key = (arch.name, coalesce)
    layout = cache.get(key)
    if layout is None:
        layout = FlatLayout(descriptor, arch, coalesce)
        cache[key] = layout
    return layout


def iter_units(layout: FlatLayout, prim_lo: int, prim_hi: int) -> Iterator[Tuple[int, LayoutRun, int, int]]:
    """Yield (prim_offset, run, i, j) for every unit in [prim_lo, prim_hi),
    in ascending primitive-offset order.

    This is the per-unit slow path used for layouts with variable-size
    units; the vectorized translator bypasses it for fixed-size layouts.
    """
    entries = []
    for run in layout.runs:
        lo_i = 0
        if prim_lo > run.prim_start:
            lo_i = (prim_lo - run.prim_start) // run.prim_stride
        hi_i = min(run.repeat - 1, (prim_hi - 1 - run.prim_start) // run.prim_stride)
        for i in range(max(lo_i, 0), hi_i + 1):
            base = run.prim_start + i * run.prim_stride
            j_lo = max(0, prim_lo - base)
            j_hi = min(run.unit_count, prim_hi - base)
            for j in range(j_lo, j_hi):
                entries.append((base + j, run, i, j))
    entries.sort(key=lambda entry: entry[0])
    return iter(entries)


def merge_run_arrays(starts, ends, max_gap: int = 0):
    """Vectorized run normalization: merge sorted runs whose gaps are at
    most ``max_gap`` units.  Takes and returns parallel numpy arrays."""
    import numpy as np

    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if starts.size == 0:
        return starts, ends
    new_group = np.concatenate(([True], starts[1:] > ends[:-1] + max_gap))
    group_firsts = np.flatnonzero(new_group)
    merged_starts = starts[new_group]
    merged_ends = np.maximum.reduceat(ends, group_firsts)
    return merged_starts, merged_ends
