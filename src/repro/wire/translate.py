"""Translation between local memory format and machine-independent wire format.

This is the client's "diff collection" / "diff application" engine from
Section 3.1 of the paper: given a block's flattened layout and a range of
primitive units, it converts the local-format bytes (native byte order,
native alignment) to canonical wire format and back.

Wire format of a run of primitive units, in primitive-offset order:

- fixed-size primitives: big-endian IEEE/two's-complement bytes, packed
  with no padding (char 1, short 2, int 4, hyper 8, float 4, double 8);
- strings: a 4-byte big-endian length followed by the content bytes
  (the capacity is part of the type, not the wire data);
- pointers: a 4-byte length followed by the MIP text (swizzled from the
  local machine address by the caller-provided hook), empty for NULL.

Execution strategies, chosen per call from the layout and the input:

1. **dense** — all runs are repeat-1 and fixed-size (flat arrays, records
   of scalars): one vectorized byteswap-copy per run intersection, or,
   for a diff of more than ``_PER_RUN_MAX`` runs over a single dense
   run, one gather/scatter for the whole diff, by unit and in place on
   the block's memory — indexed by the runs' starts themselves when
   every run is one unit long (every n-th word of an array), else by
   the runs expanded to unit indices;
2. **strided** — a uniform layout of repeated instances (array of
   records), all fixed-size: full instances are translated with strided
   numpy gathers/scatters, partial head/tail instances per-unit;
3. **batched** — a layout with strings or pointers, when the call covers
   more than ``_PER_UNIT_MAX`` units: every unit of every run is placed
   (layout run, local offset, wire offset) by array arithmetic, each
   layout run's units move as one byte matrix, pointers cross the
   swizzle hook as one batch, and apply validates everything before its
   single store;
4. **per-unit** — the same layouts below that size, and irregular
   fixed-size geometry: a Python loop over units.  It is also the
   reference the batched path is tested against.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.arch import WIRE_SIZES, Architecture, PrimKind
from repro.errors import WireFormatError
from repro.memory.mmu import AddressSpace
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.types import VAR_LEN_HEADER, FlatLayout, iter_units
from repro.wire.diff import RunColumns

#: Length-header codec for variable-size units (strings and MIPs).
_LEN = struct.Struct(">I")


class TranslationContext:
    """Memory + architecture + pointer swizzling hooks.

    The translator swizzles in batches.  ``swizzle(addresses) -> [bytes]``
    maps a list of non-NULL local addresses to UTF-8 MIP texts at collect
    (local -> wire); ``unswizzle(texts) -> addresses`` maps a list of
    non-empty MIP texts back at apply (wire -> local).  They default to
    hooks that reject any non-NULL pointer, which is correct for
    pointer-free data.
    """

    __slots__ = ("memory", "arch", "swizzle", "unswizzle",
                 "_m_swizzled", "_m_unswizzled")

    def __init__(self, memory: AddressSpace, arch: Architecture,
                 swizzle: Optional[Callable[[List[int]], List[bytes]]] = None,
                 unswizzle: Optional[Callable[[List[bytes]], Sequence[int]]] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.memory = memory
        self.arch = arch
        self.swizzle = swizzle or _reject_pointers
        self.unswizzle = unswizzle or _reject_mips
        metrics = metrics or get_registry()
        self._m_swizzled = metrics.counter(
            "wire.swizzle.pointers_to_mips", "pointers swizzled at collect")
        self._m_unswizzled = metrics.counter(
            "wire.swizzle.mips_to_pointers", "MIPs unswizzled at apply")


def _reject_pointers(addresses: List[int]) -> List[bytes]:
    raise WireFormatError(f"pointer value {addresses[0]:#x} encountered "
                          "but no swizzle hook installed")


def _reject_mips(texts: List[bytes]) -> List[int]:
    raise WireFormatError(f"MIP {texts[0]!r} encountered but no unswizzle hook installed")


def _is_dense_fixed(layout: FlatLayout) -> bool:
    return (not layout.has_variable
            and all(run.repeat == 1 for run in layout.runs))


def _byteswapped(view: np.ndarray, unit_size: int) -> np.ndarray:
    """Reverse the byte order of every ``unit_size``-byte unit in ``view``.

    ``view`` has shape (..., count*unit_size); the result is a contiguous
    array of the same shape.
    """
    if unit_size == 1:
        return view
    shape = view.shape[:-1] + (view.shape[-1] // unit_size, unit_size)
    return np.ascontiguousarray(view.reshape(shape)[..., ::-1]).reshape(view.shape)


# ---------------------------------------------------------------------------
# collection: local format -> wire format
# ---------------------------------------------------------------------------

def collect_range(ctx: TranslationContext, layout: FlatLayout, base: int,
                  prim_start: int, prim_count: int) -> bytes:
    """Translate units [prim_start, prim_start+prim_count) to wire bytes."""
    return b"".join(_collect_parts(ctx, layout, base, prim_start, prim_count))


def _collect_parts(ctx, layout, base, prim_start, prim_count) -> List[bytes]:
    """collect_range's wire bytes as the pieces translation produced, so a
    caller concatenating several ranges pays for one join, not two."""
    if prim_count <= 0:
        return []
    prim_end = prim_start + prim_count
    if prim_end > layout.prim_count:
        raise WireFormatError(
            f"prim range [{prim_start}, {prim_end}) exceeds block ({layout.prim_count} units)")

    if _is_dense_fixed(layout):
        return _collect_dense(ctx, layout, base, prim_start, prim_end)
    if layout.uniform and not layout.has_variable:
        return _collect_strided(ctx, layout, base, prim_start, prim_end)
    return _collect_per_unit(ctx, layout, base, prim_start, prim_end)


def _collect_dense(ctx, layout, base, prim_start, prim_end) -> List[bytes]:
    little = ctx.arch.endian == "little"
    parts: List[bytes] = []
    for run in layout.runs:
        lo = max(prim_start, run.prim_start)
        hi = min(prim_end, run.prim_start + run.unit_count)
        if lo >= hi:
            continue
        local = run.local_start + (lo - run.prim_start) * run.unit_size
        raw = ctx.memory.load(base + local, (hi - lo) * run.unit_size)
        if little and run.unit_size > 1:
            parts.append(_byteswapped(np.frombuffer(raw, np.uint8), run.unit_size).tobytes())
        else:
            parts.append(raw)
    return parts


def _collect_strided(ctx, layout, base, prim_start, prim_end) -> List[bytes]:
    inst_prims = layout.instance_prims
    first = prim_start // inst_prims
    full_lo = first + (1 if prim_start % inst_prims else 0)
    full_hi = prim_end // inst_prims
    parts: List[bytes] = []
    # partial head instance
    if prim_start % inst_prims:
        head_end = min(prim_end, (first + 1) * inst_prims)
        parts += _collect_per_unit(ctx, layout, base, prim_start, head_end)
        if head_end == prim_end:
            return parts
    # full middle instances, vectorized
    if full_lo < full_hi:
        count = full_hi - full_lo
        inst_size = layout.instance_size
        wire_stride = layout.instance_wire_size
        raw = ctx.memory.load(base + full_lo * inst_size, count * inst_size)
        local = np.frombuffer(raw, np.uint8).reshape(count, inst_size)
        wire = np.empty((count, wire_stride), np.uint8)
        little = ctx.arch.endian == "little"
        for index, run in enumerate(layout.runs):
            width = run.unit_count * run.unit_size
            src = local[:, run.local_start:run.local_start + width]
            if little and run.unit_size > 1:
                src = _byteswapped(src, run.unit_size)
            woff = layout.run_instance_wire_offset(index)
            wire[:, woff:woff + width] = src
        parts.append(wire.tobytes())
    # partial tail instance
    tail_start = max(prim_start, full_hi * inst_prims)
    if tail_start < prim_end and prim_end % inst_prims:
        parts += _collect_per_unit(ctx, layout, base, tail_start, prim_end)
    return parts


def _collect_per_unit(ctx, layout, base, prim_start, prim_end) -> List[bytes]:
    little = ctx.arch.endian == "little"
    memory = ctx.memory
    parts: List[bytes] = []
    for _, run, i, j in iter_units(layout, prim_start, prim_end):
        address = base + run.unit_local_offset(i, j)
        kind = run.kind
        if kind is PrimKind.STRING:
            raw = memory.load(address, run.capacity)
            nul = raw.find(b"\x00")
            content = raw if nul < 0 else raw[:nul]
            parts.append(_LEN.pack(len(content)))
            parts.append(content)
        elif kind is PrimKind.POINTER:
            pointer = ctx.arch.decode_prim(PrimKind.POINTER,
                                           memory.load(address, run.unit_size))
            if pointer == 0:
                text = b""
            else:
                (text,) = ctx.swizzle([pointer])
                ctx._m_swizzled.inc()
            parts.append(_LEN.pack(len(text)))
            parts.append(text)
        else:
            raw = memory.load(address, run.unit_size)
            parts.append(raw[::-1] if little and run.unit_size > 1 else raw)
    return parts


# ---------------------------------------------------------------------------
# application: wire format -> local format
# ---------------------------------------------------------------------------

def apply_range(ctx: TranslationContext, layout: FlatLayout, base: int,
                prim_start: int, prim_count: int, data: bytes, offset: int = 0) -> int:
    """Apply wire bytes to units [prim_start, prim_start+prim_count).

    Returns the offset just past the consumed bytes, so callers can apply
    several runs from one buffer.
    """
    if prim_count <= 0:
        return offset
    prim_end = prim_start + prim_count
    if prim_end > layout.prim_count:
        raise WireFormatError(
            f"prim range [{prim_start}, {prim_end}) exceeds block ({layout.prim_count} units)")

    if _is_dense_fixed(layout):
        return _apply_dense(ctx, layout, base, prim_start, prim_end, data, offset)
    if layout.uniform and not layout.has_variable:
        return _apply_strided(ctx, layout, base, prim_start, prim_end, data, offset)
    return _apply_per_unit(ctx, layout, base, prim_start, prim_end, data, offset)


def _apply_dense(ctx, layout, base, prim_start, prim_end, data, offset) -> int:
    little = ctx.arch.endian == "little"
    for run in layout.runs:
        lo = max(prim_start, run.prim_start)
        hi = min(prim_end, run.prim_start + run.unit_count)
        if lo >= hi:
            continue
        width = (hi - lo) * run.unit_size
        chunk = data[offset:offset + width]
        if len(chunk) != width:
            raise WireFormatError("wire diff truncated")
        offset += width
        if little and run.unit_size > 1:
            chunk = _byteswapped(np.frombuffer(chunk, np.uint8), run.unit_size).tobytes()
        local = run.local_start + (lo - run.prim_start) * run.unit_size
        ctx.memory.store(base + local, chunk)
    return offset


def _apply_strided(ctx, layout, base, prim_start, prim_end, data, offset) -> int:
    inst_prims = layout.instance_prims
    first = prim_start // inst_prims
    full_lo = first + (1 if prim_start % inst_prims else 0)
    full_hi = prim_end // inst_prims
    if prim_start % inst_prims:
        head_end = min(prim_end, (first + 1) * inst_prims)
        offset = _apply_per_unit(ctx, layout, base, prim_start, head_end, data, offset)
        if head_end == prim_end:
            return offset
    if full_lo < full_hi:
        count = full_hi - full_lo
        inst_size = layout.instance_size
        wire_stride = layout.instance_wire_size
        width = count * wire_stride
        chunk = data[offset:offset + width]
        if len(chunk) != width:
            raise WireFormatError("wire diff truncated")
        offset += width
        wire = np.frombuffer(chunk, np.uint8).reshape(count, wire_stride)
        span = base + full_lo * inst_size
        local = np.frombuffer(bytearray(ctx.memory.load(span, count * inst_size)),
                              np.uint8).reshape(count, inst_size)
        little = ctx.arch.endian == "little"
        for index, run in enumerate(layout.runs):
            run_width = run.unit_count * run.unit_size
            woff = layout.run_instance_wire_offset(index)
            src = wire[:, woff:woff + run_width]
            if little and run.unit_size > 1:
                src = _byteswapped(src, run.unit_size)
            local[:, run.local_start:run.local_start + run_width] = src
        ctx.memory.store(span, local.tobytes())
    tail_start = max(prim_start, full_hi * inst_prims)
    if tail_start < prim_end and prim_end % inst_prims:
        offset = _apply_per_unit(ctx, layout, base, tail_start, prim_end, data, offset)
    return offset


def _length_at(data, offset: int) -> int:
    """The 4-byte length header of a variable-size unit at ``offset``."""
    if offset + _LEN.size > len(data):
        raise WireFormatError("wire diff truncated in a length header")
    return _LEN.unpack_from(data, offset)[0]


def _apply_per_unit(ctx, layout, base, prim_start, prim_end, data, offset) -> int:
    # ``data`` may be a view over the receive buffer: every unit copies
    # out just its own bytes, so nothing is materialized wholesale
    little = ctx.arch.endian == "little"
    memory = ctx.memory
    for _, run, i, j in iter_units(layout, prim_start, prim_end):
        address = base + run.unit_local_offset(i, j)
        kind = run.kind
        if kind is PrimKind.STRING:
            length = _length_at(data, offset)
            offset += _LEN.size
            content = bytes(data[offset:offset + length])
            if len(content) != length:
                raise WireFormatError("wire diff truncated in string")
            offset += length
            if length > run.capacity - 1:
                raise WireFormatError(
                    f"wire string of {length} bytes exceeds capacity {run.capacity}")
            memory.store(address, content + b"\x00" * (run.capacity - length))
        elif kind is PrimKind.POINTER:
            length = _length_at(data, offset)
            offset += _LEN.size
            text = bytes(data[offset:offset + length])
            if len(text) != length:
                raise WireFormatError("wire diff truncated in MIP")
            offset += length
            if length == 0:
                pointer = 0
            else:
                (pointer,) = ctx.unswizzle([text])
                ctx._m_unswizzled.inc()
            memory.store(address, ctx.arch.encode_prim(PrimKind.POINTER, pointer))
        else:
            width = run.unit_size
            chunk = bytes(data[offset:offset + width])
            if len(chunk) != width:
                raise WireFormatError("wire diff truncated")
            offset += width
            memory.store(address, chunk[::-1] if little and width > 1 else chunk)
    return offset


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def wire_size_of_range(layout: FlatLayout, prim_start: int, prim_count: int) -> Optional[int]:
    """The exact wire size of a unit range, or None if it contains
    variable-size units (whose size depends on the data)."""
    if layout.has_variable:
        return None
    total = 0
    prim_end = prim_start + prim_count
    for run in layout.runs:
        size = WIRE_SIZES[run.kind]
        if run.repeat == 1:
            lo = max(prim_start, run.prim_start)
            hi = min(prim_end, run.prim_start + run.unit_count)
            if lo < hi:
                total += (hi - lo) * size
        else:
            for i in range(run.repeat):
                base = run.prim_start + i * run.prim_stride
                lo = max(prim_start, base)
                hi = min(prim_end, base + run.unit_count)
                if lo < hi:
                    total += (hi - lo) * size
    return total


def collect_block(ctx: TranslationContext, layout: FlatLayout, base: int) -> bytes:
    """Translate a whole block to wire format (no-diff mode's unit of work)."""
    return collect_range(ctx, layout, base, 0, layout.prim_count)


def apply_block(ctx: TranslationContext, layout: FlatLayout, base: int,
                data: bytes, offset: int = 0) -> int:
    """Apply a whole block's wire image to local memory."""
    return apply_range(ctx, layout, base, 0, layout.prim_count, data, offset)


# ---------------------------------------------------------------------------
# batched run translation
# ---------------------------------------------------------------------------
#
# A fine-grained diff can carry tens of thousands of small runs (Figure 5's
# ratio-4 case: every 4th word changed, gaps too wide to splice).  Paying a
# Python call per run would swamp the real translation cost, so for the
# common layout — one dense fixed-size run, i.e. flat arrays — a whole
# diff's runs are translated with single numpy gathers/scatters.  A diff
# of a few runs (where contiguous slices beat building index arrays) and
# every other fixed-size layout loop over collect_range/apply_range;
# layouts with strings or pointers do too, until the call is big enough
# for the batched pass at the end of this file.

#: run count up to which the per-run slice path beats one gather/scatter
_PER_RUN_MAX = 4

#: unit count of a call up to which the per-unit loop beats the batched
#: pass.  Measured on arrays of records holding a string, in runs of 4
#: units, per-unit vs batched collect (apply alike), in microseconds:
#: 1 layout run 32 units 79 vs 105, 64: 145 vs 113; 4 layout runs 32:
#: 111 vs 164, 64: 206 vs 168; 32 layout runs 64: 625 vs 814, 128: 1281
#: vs 837; 256 layout runs 64: 4201 vs 4236, 128: 8456 vs 4634 (both
#: sides grow with the layout's run count, so the crossover stays put).
_PER_UNIT_MAX = 64


def _gather_run(layout: FlatLayout, run_count: int):
    """The layout's single dense run when one gather/scatter pays off."""
    if layout.has_variable or len(layout.runs) != 1 or run_count <= _PER_RUN_MAX:
        return None
    run = layout.runs[0]
    return run if run.repeat == 1 else None


def _units_of(ctx, run, base: int, window) -> np.ndarray:
    """The dense run's local bytes as units in the architecture's byte
    order, through ``window`` (memory's ``view`` or ``writable_view``): no copy."""
    order = "<" if ctx.arch.endian == "little" else ">"
    return np.frombuffer(window(base + run.local_start, run.unit_count * run.unit_size),
                         f"{order}u{run.unit_size}")


def collect_runs(ctx: TranslationContext, layout: FlatLayout, base: int,
                 starts, counts) -> RunColumns:
    """Translate a block's unit runs to wire format, as one RunColumns.

    ``starts``/``counts`` are parallel sequences (arrays or lists) of
    primitive offsets and unit counts; the result's ``data`` is one wire
    buffer holding every run's payload back to back.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    run = _gather_run(layout, starts.size)
    if run is None:
        if _batched(layout, counts):
            return _collect_batched(ctx, layout, base, starts, counts)
        parts: List[bytes] = []
        lens = []
        for start, count in zip(starts.tolist(), counts.tolist()):
            run_parts = _collect_parts(ctx, layout, base, start, count)
            lens.append(sum(map(len, run_parts)))
            parts += run_parts
        return RunColumns(starts, counts, np.array(lens, np.int64),
                          b"".join(parts))
    data = _units_of(ctx, run, base, ctx.memory.view)[
        _ragged(starts - run.prim_start, counts)]
    return RunColumns(starts, counts, counts * run.unit_size,
                      data.astype(f">u{run.unit_size}", copy=False).tobytes())


def apply_runs(ctx: TranslationContext, layout: FlatLayout, base: int,
               columns: RunColumns) -> None:
    """Apply a block diff's runs to local memory.

    Runs must be in-bounds and their data exactly sized, else
    WireFormatError.  The payload is read straight out of
    ``columns.data`` — which may be a memoryview over the receive
    buffer — with no join and no per-run objects.
    """
    starts, counts = columns.starts, columns.counts
    if starts.size and (int(starts.min()) < 0
                        or int((starts + counts).max()) > layout.prim_count):
        raise WireFormatError("diff run exceeds block bounds")
    run = _gather_run(layout, columns.run_count)
    if run is None:
        if _batched(layout, counts):
            return _apply_batched(ctx, layout, base, columns)
        payload = memoryview(columns.data)
        bounds = columns.bounds.tolist()
        for index, (start, count) in enumerate(
                zip(starts.tolist(), counts.tolist())):
            data = payload[bounds[index]:bounds[index + 1]]
            end = apply_range(ctx, layout, base, start, count, data)
            if end != len(data):
                raise WireFormatError(
                    f"run {index}: {len(data) - end} trailing bytes")
        return
    carried = memoryview(columns.data).nbytes
    expected = int(counts.sum()) * run.unit_size
    if carried != expected:
        raise WireFormatError(
            f"diff runs carry {carried} bytes, expected {expected}")
    indices = _ragged(starts - run.prim_start, counts)
    # everything is checked: scatter into the block where it lies
    _units_of(ctx, run, base, ctx.memory.writable_view)[indices] = np.frombuffer(
        columns.data, f">u{run.unit_size}")


# ---------------------------------------------------------------------------
# batched translation of variable-size layouts
# ---------------------------------------------------------------------------


def _batched(layout: FlatLayout, counts: np.ndarray) -> bool:
    """Whether a call the fixed-size paths declined is big enough for the
    batched pass."""
    return (layout.has_variable and counts.size > 0 and int(counts.min()) > 0
            and int(counts.sum()) > _PER_UNIT_MAX)


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices covering [start, start + length) of every pair: the
    starts themselves when every length is one."""
    if (lengths == 1).all():
        return starts
    ends = np.cumsum(lengths)
    return (np.repeat(starts - (ends - lengths), lengths)
            + np.arange(int(ends[-1]) if ends.size else 0))


def _place_units(ctx, layout, base, starts, counts):
    """Every unit of every run, in wire order: each run's first unit,
    then per unit its run, its layout run and its offset in ``image`` —
    the local bytes the runs span, loaded once — and ``image``'s address."""
    if int(starts.min()) < 0 or int((starts + counts).max()) > layout.prim_count:
        raise WireFormatError("diff run exceeds block bounds")
    firsts = np.cumsum(counts) - counts
    run_of = np.repeat(np.arange(counts.size), counts)
    which, local = layout.locate_units(
        np.repeat(starts - firsts, counts) + np.arange(run_of.size))
    origin = int(local.min())
    end = min(layout.local_size,
              int(local.max()) + max(run.unit_size for run in layout.runs))
    image = np.frombuffer(
        bytearray(ctx.memory.load(base + origin, end - origin)), np.uint8)
    return firsts, run_of, which, local - origin, image, base + origin


def _by_layout_run(layout, which):
    """(layout run, indices of its units) for each layout run touched."""
    for index, run in enumerate(layout.runs):
        units = np.flatnonzero(which == index)
        if units.size:
            yield run, units


def _collect_batched(ctx, layout, base, starts, counts) -> RunColumns:
    firsts, _, which, local, image, _ = _place_units(ctx, layout, base, starts, counts)
    sizes = np.empty(which.size, np.int64)  # wire bytes per unit
    groups = []
    for run, units in _by_layout_run(layout, which):
        cells = image[local[units, None] + np.arange(run.unit_size)]
        lengths = None
        if run.kind is PrimKind.STRING:
            nul = cells == 0
            lengths = np.where(nul.any(axis=1), nul.argmax(axis=1), run.capacity)
            cells = cells[np.arange(run.capacity) < lengths[:, None]]
        elif run.kind is PrimKind.POINTER:
            pointers = cells.view(ctx.arch.numpy_dtype(PrimKind.POINTER)).ravel()
            live = np.flatnonzero(pointers)
            texts = ctx.swizzle(pointers[live].tolist()) if live.size else []
            ctx._m_swizzled.inc(live.size)
            lengths = np.zeros(units.size, np.int64)
            lengths[live] = np.fromiter(map(len, texts), np.int64, live.size)
            cells = np.frombuffer(b"".join(texts), np.uint8)
        elif ctx.arch.endian == "little":
            cells = cells[:, ::-1]
        sizes[units] = run.unit_size if lengths is None else VAR_LEN_HEADER + lengths
        groups.append((units, lengths, cells))
    ends = np.cumsum(sizes)
    offsets = ends - sizes
    wire = np.empty(int(ends[-1]), np.uint8)
    for units, lengths, cells in groups:
        at = offsets[units]
        if lengths is None:
            wire[at[:, None] + np.arange(cells.shape[1])] = cells
        else:
            wire[at[:, None] + np.arange(VAR_LEN_HEADER)] = (
                lengths.astype(">u4").view(np.uint8).reshape(-1, VAR_LEN_HEADER))
            wire[_ragged(at + VAR_LEN_HEADER, lengths)] = cells
    return RunColumns(starts, counts, ends[firsts + counts - 1] - offsets[firsts],
                      wire.tobytes())


def _apply_batched(ctx, layout, base, columns) -> None:
    """Validate all of a diff, then store the span it touches once — a
    rejected diff leaves the block image as it was."""
    starts, counts, bounds = columns.starts, columns.counts, columns.bounds
    payload = np.frombuffer(columns.data, np.uint8)
    if int(bounds[-1]) > payload.size:
        raise WireFormatError("wire diff truncated")
    firsts, run_of, which, local, image, origin = _place_units(
        ctx, layout, base, starts, counts)
    variable = np.array([run.kind.is_variable_wire_size for run in layout.runs])
    sizes = np.where(variable, VAR_LEN_HEADER,
                     [run.unit_size for run in layout.runs])[which]

    def offsets():  # runs start at ``bounds``; a run's units follow each other
        packed = np.cumsum(sizes) - sizes
        return packed + (bounds[:-1] - packed[firsts])[run_of]

    # The one sequential step: a length header sits after the contents of
    # the variable-size units before it in its run, so headers are read
    # in order, shifting each from where it would be were those empty.
    var = np.flatnonzero(variable[which])
    empty_at = offsets()[var].tolist()
    per_run = np.searchsorted(run_of[var], np.arange(counts.size + 1)).tolist()
    found = []
    try:
        for lo, hi in zip(per_run, per_run[1:]):
            shift = 0
            for offset in empty_at[lo:hi]:
                (length,) = _LEN.unpack_from(columns.data, offset + shift)
                found.append(length)
                shift += length
    except struct.error:
        raise WireFormatError("wire diff truncated in a length header") from None
    lengths = np.zeros(which.size, np.int64)
    lengths[var] = found
    sizes += lengths
    at = offsets()
    wrong = np.flatnonzero((at + sizes)[firsts + counts - 1] != bounds[1:])
    if wrong.size:
        raise WireFormatError(f"run {int(wrong[0])}: data does not fill its "
                              f"{int(columns.lens[wrong[0]])} bytes exactly")
    for run, units in _by_layout_run(layout, which):
        sized = lengths[units]
        if run.kind.is_variable_wire_size:
            body = payload[_ragged(at[units] + VAR_LEN_HEADER, sized)]
        if run.kind is PrimKind.STRING:
            if int(sized.max()) > run.capacity - 1:
                raise WireFormatError(f"wire string of {int(sized.max())} bytes "
                                      f"exceeds capacity {run.capacity}")
            cells = np.zeros((units.size, run.capacity), np.uint8)
            cells[np.arange(run.capacity) < sized[:, None]] = body
        elif run.kind is PrimKind.POINTER:
            live = np.flatnonzero(sized)
            cuts = np.concatenate(([0], np.cumsum(sized[live]))).tolist()
            texts = body.tobytes()
            pointers = np.zeros(units.size, ctx.arch.numpy_dtype(PrimKind.POINTER))
            if live.size:
                pointers[live] = ctx.unswizzle(
                    [texts[lo:hi] for lo, hi in zip(cuts, cuts[1:])])
            ctx._m_unswizzled.inc(live.size)
            cells = pointers.view(np.uint8).reshape(-1, run.unit_size)
        else:
            cells = payload[at[units, None] + np.arange(run.unit_size)]
            if ctx.arch.endian == "little":
                cells = cells[:, ::-1]
        image[local[units, None] + np.arange(run.unit_size)] = cells
    ctx.memory.store(origin, image)
