"""Wire-format diffs.

The paper's key departure from RPC marshaling is that the wire format can
carry not just data but *diffs*: concise, machine-independent descriptions
of only the data that changed.  A wire-format block diff consists of the
block's serial number, the diff's length in bytes, and a series of
run-length-encoded changes, each giving the starting point and length of
the change in primitive data units followed by the updated data in wire
format (Figure 3 of the paper).

A :class:`SegmentDiff` aggregates block diffs into the unit the protocol
ships: everything that changed in one segment between two versions,
together with newly created blocks (which carry their type serial and
optional symbolic name), freed blocks, and any type descriptors the
receiver has not seen yet.

Data-plane layout.  A 10%-scattered write over an MB-scale segment
produces hundreds of thousands of small runs, so runs exist in exactly
one form end to end — :class:`RunColumns` in memory, and on the wire a
block diff body of ``run_count`` 12-byte header rows (``>u4`` prim_start,
prim_count, data_len) followed by one concatenated data section.
Encoding is two buffer splices (one numpy header array, one payload
buffer) and decoding is one ``np.frombuffer`` plus two ``memoryview``
slices — no per-run Python loop and no per-run copy.  The payload may be
``bytes`` or a ``memoryview`` aliasing the receive buffer;
materialization happens only at mutation or retention boundaries (see
:func:`decode_segment_diff_from`).  :class:`DiffRun` is the per-run
object view: accepted by the :class:`BlockDiff` constructor and handed
out by its ``runs`` property for inspection, never used on a data path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import WireFormatError
from repro.obs.metrics import Instruments
from repro.wire.codec import (Reader as _Reader, Writer as _Writer,
                              count_bytes_copied)

_RUN_HEADER_BYTES = 12
_U32_MAX = 0xFFFFFFFF

RunData = Union[bytes, memoryview]


@dataclass
class DiffRun:
    """One RLE change section: start and length in primitive data units."""

    prim_start: int
    prim_count: int
    data: RunData  # the updated units, already in wire format


class RunColumns:
    """Columnar storage for a block diff's runs.

    ``starts``/``counts``/``lens`` are parallel ``int64`` arrays and
    ``data`` is the single concatenated payload buffer (``bytes`` or a
    ``memoryview`` over the receive buffer), exactly ``lens.sum()`` bytes
    long: run *i*'s payload is ``data[bounds[i]:bounds[i+1]]``.
    """

    __slots__ = ("starts", "counts", "lens", "data")

    def __init__(self, starts: np.ndarray, counts: np.ndarray,
                 lens: np.ndarray, data: RunData):
        self.starts = starts
        self.counts = counts
        self.lens = lens
        self.data = data

    @property
    def run_count(self) -> int:
        return int(self.starts.shape[0])

    @property
    def data_bytes(self) -> int:
        return len(self.data)

    @property
    def bounds(self) -> np.ndarray:
        """Exclusive prefix sum of ``lens`` (one entry more than runs)."""
        return np.concatenate(([0], np.cumsum(self.lens)))

    def covered_units(self) -> int:
        return int(self.counts.sum())

    def materialize(self) -> None:
        """Replace a payload view with an owned ``bytes`` copy."""
        if not isinstance(self.data, bytes):
            self.data = bytes(self.data)
            count_bytes_copied(len(self.data))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunColumns):
            return NotImplemented
        return (np.array_equal(self.starts, other.starts)
                and np.array_equal(self.counts, other.counts)
                and np.array_equal(self.lens, other.lens)
                and self.data == other.data)


def _columns_from_runs(runs: Sequence[DiffRun]) -> RunColumns:
    count = len(runs)
    return RunColumns(
        np.fromiter((run.prim_start for run in runs), np.int64, count),
        np.fromiter((run.prim_count for run in runs), np.int64, count),
        np.fromiter((len(run.data) for run in runs), np.int64, count),
        b"".join(run.data for run in runs))


class BlockDiff:
    """All changes to one block.

    ``is_new`` marks blocks created since the receiver's version; they
    carry the type serial and optional name needed to materialize them.
    ``version`` is the segment version in which the block was last
    modified (server -> client direction; informs locality layout).
    A block diff with ``freed`` set tombstones a deallocated block.

    ``columns`` is the block's runs, always present (empty for tombstones
    and skeletons).  ``runs=[DiffRun(...)]`` is a constructor convenience
    converted to columns once, here; the ``runs`` property builds the
    object view back on demand, for inspection.
    """

    __slots__ = ("serial", "columns", "is_new", "freed", "type_serial",
                 "name", "version")

    def __init__(self, serial: int, runs: Sequence[DiffRun] = (),
                 is_new: bool = False, freed: bool = False,
                 type_serial: int = 0, name: Optional[str] = None,
                 version: int = 0, columns: Optional[RunColumns] = None):
        self.serial = serial
        # (a RunColumns, even an empty one, is truthy)
        self.columns = columns or _columns_from_runs(runs)
        self.is_new = is_new
        self.freed = freed
        self.type_serial = type_serial
        self.name = name
        self.version = version

    @property
    def runs(self) -> List[DiffRun]:
        cols = self.columns
        data = cols.data
        bounds = cols.bounds.tolist()
        return [DiffRun(start, count, data[bounds[i]:bounds[i + 1]])
                for i, (start, count) in enumerate(
                    zip(cols.starts.tolist(), cols.counts.tolist()))]

    @property
    def data_bytes(self) -> int:
        """Payload bytes (the paper's per-block 'diff length')."""
        return self.columns.data_bytes

    def covered_units(self) -> int:
        return self.columns.covered_units()

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockDiff):
            return NotImplemented
        return all(getattr(self, slot) == getattr(other, slot)
                   for slot in self.__slots__)

    def __repr__(self) -> str:
        return (f"BlockDiff(serial={self.serial}, runs={self.runs!r}, "
                f"is_new={self.is_new}, freed={self.freed}, "
                f"type_serial={self.type_serial}, name={self.name!r}, "
                f"version={self.version})")


@dataclass
class SegmentDiff:
    """Every change in one segment between two versions."""

    segment: str
    from_version: int  # 0 means "receiver has nothing" (full transfer)
    to_version: int
    block_diffs: List[BlockDiff] = field(default_factory=list)
    new_types: List[Tuple[int, bytes]] = field(default_factory=list)
    #: set by decoding: the diff's encoded span as received, and the
    #: offsets in it of the ``to_version`` word and of each block's
    #: ``version`` word (see :func:`stamped_wire`)
    wire: Optional[RunData] = field(default=None, compare=False, repr=False)
    version_words: tuple = field(default=(), compare=False, repr=False)

    @property
    def is_full(self) -> bool:
        return self.from_version == 0

    def payload_bytes(self) -> int:
        """Total data payload across all block diffs."""
        return sum(diff.data_bytes for diff in self.block_diffs)

    def materialize(self) -> None:
        """Copy every payload view into owned ``bytes``.

        The retention boundary: call this before keeping a decoded diff
        alive past the lifetime of the buffer it was decoded from (e.g.
        a recycled receive buffer).  Diffs decoded from immutable
        ``bytes`` never need this — the views pin the buffer.
        """
        for block_diff in self.block_diffs:
            block_diff.columns.materialize()
        if self.wire is not None and not isinstance(self.wire, bytes):
            self.wire = bytes(self.wire)
            count_bytes_copied(len(self.wire))


# ---------------------------------------------------------------------------
# binary codec
# ---------------------------------------------------------------------------

_FLAG_NEW = 0x01
_FLAG_FREED = 0x02
_FLAG_NAMED = 0x04


def _encode_runs(out: _Writer, cols: RunColumns) -> None:
    if cols.run_count:
        rows = np.empty((cols.run_count, 3), np.int64)
        rows[:, 0] = cols.starts
        rows[:, 1] = cols.counts
        rows[:, 2] = cols.lens
        # one range check: viewed unsigned, a negative field is huge too
        if int(rows.view(np.uint64).max()) > _U32_MAX:
            raise WireFormatError("diff run field exceeds u32 range")
        out.raw(rows.astype(">u4").data.cast("B"))
    out.raw(cols.data)
    count_bytes_copied(cols.data_bytes)


def encode_block_diff(diff: BlockDiff, writer: Optional[_Writer] = None) -> bytes:
    out = writer if writer is not None else _Writer()
    out.u32(diff.serial)
    flags = ((_FLAG_NEW if diff.is_new else 0)
             | (_FLAG_FREED if diff.freed else 0)
             | (_FLAG_NAMED if diff.name is not None else 0))
    out.u8(flags)
    out.u32(diff.version)
    if diff.is_new:
        out.u32(diff.type_serial)
    if diff.name is not None:
        out.text(diff.name)
    # the paper's layout: total diff length in bytes, then RLE sections —
    # the length word is reserved up front and backpatched once the body
    # has been encoded in place (no scratch buffer, no re-copy)
    body_length_at = out.reserve_u32()
    out.u32(diff.columns.run_count)
    body_start = out.tell()
    _encode_runs(out, diff.columns)
    out.patch_u32(body_length_at, out.tell() - body_start)
    return out.getvalue() if writer is None else b""


def _decode_runs(reader: _Reader, run_count: int,
                 body_length: int) -> RunColumns:
    """Decode a block diff body: header rows, then one data section.

    Run data sizes are not individually delimited in the paper's format;
    the per-run byte length in the header row lets the server store and
    splice runs without type knowledge.  (It is still counted in payload
    bytes.)  One ``frombuffer`` and two views — no per-run work.
    """
    header_bytes = run_count * _RUN_HEADER_BYTES
    if body_length < header_bytes:
        raise WireFormatError("block diff body shorter than run headers")
    headers = np.frombuffer(reader.raw_view(header_bytes),
                            dtype=">u4").reshape(run_count, 3).astype(np.int64)
    data = reader.raw_view(body_length - header_bytes)
    lens = headers[:, 2]
    if int(lens.sum()) != len(data):
        raise WireFormatError("block diff body length mismatch")
    return RunColumns(headers[:, 0], headers[:, 1], lens, data)


def decode_block_diff(reader: _Reader) -> BlockDiff:
    serial = reader.u32()
    flags = reader.u8()
    version = reader.u32()
    type_serial = reader.u32() if flags & _FLAG_NEW else 0
    name = reader.text() if flags & _FLAG_NAMED else None
    body_length = reader.u32()
    run_count = reader.u32()
    return BlockDiff(
        serial=serial,
        is_new=bool(flags & _FLAG_NEW),
        freed=bool(flags & _FLAG_FREED),
        type_serial=type_serial,
        name=name,
        version=version,
        columns=_decode_runs(reader, run_count, body_length),
    )


_diff_metrics = Instruments(lambda metrics: SimpleNamespace(
    encoded=metrics.counter("wire.diff.encoded"),
    encoded_bytes=metrics.counter("wire.diff.encoded_bytes"),
    runs_encoded=metrics.counter("wire.diff.runs_encoded"),
    decoded=metrics.counter("wire.diff.decoded"),
    decoded_bytes=metrics.counter("wire.diff.decoded_bytes")))


def encode_segment_diff_into(out: _Writer, diff: SegmentDiff) -> int:
    """Encode a segment diff into an existing Writer; returns bytes written.

    This is the zero-copy path for embedding a diff in a protocol
    message: the diff is encoded straight into the message buffer instead
    of into scratch bytes that get re-copied (see
    ``messages._encode_optional_diff``).
    """
    start = out.tell()
    out.text(diff.segment)
    out.u32(diff.from_version)
    out.u32(diff.to_version)
    out.u32(len(diff.new_types))
    for serial, encoded in diff.new_types:
        out.u32(serial)
        out.blob(encoded)
    out.u32(len(diff.block_diffs))
    for block_diff in diff.block_diffs:
        encode_block_diff(block_diff, out)
    written = out.tell() - start
    metrics = _diff_metrics()
    metrics.encoded.inc()
    metrics.encoded_bytes.inc(written)
    metrics.runs_encoded.inc(
        sum(bd.columns.run_count for bd in diff.block_diffs))
    return written


def encode_segment_diff(diff: SegmentDiff) -> bytes:
    out = _Writer()
    encode_segment_diff_into(out, diff)
    return out.getvalue()


def _buffer_is_writable(data) -> bool:
    if isinstance(data, bytearray):
        return True
    if isinstance(data, memoryview):
        return not data.readonly
    return False


def _decode_segment_diff_body(wire: memoryview) -> SegmentDiff:
    reader = _Reader(wire)
    segment = reader.text()
    from_version = reader.u32()
    version_words = [reader.offset]
    to_version = reader.u32()
    new_types = []
    for _ in range(reader.u32()):
        serial = reader.u32()
        new_types.append((serial, reader.blob()))
    block_diffs = []
    for _ in range(reader.u32()):
        version_words.append(reader.offset + 5)  # after serial and flags
        block_diffs.append(decode_block_diff(reader))
    if not reader.at_end():
        raise WireFormatError("trailing bytes after segment diff")
    return SegmentDiff(segment, from_version, to_version, block_diffs,
                       new_types, wire, tuple(version_words))


def decode_segment_diff_from(reader: _Reader, length: int) -> SegmentDiff:
    """Decode a diff in place from ``length`` bytes at the reader's cursor.

    Run payloads and ``wire`` come back as views over ``reader.data``; if
    that buffer is mutable (a recyclable receive buffer), the diff is
    materialized before returning so retained views never alias it.
    """
    metrics = _diff_metrics()
    metrics.decoded.inc()
    metrics.decoded_bytes.inc(length)
    diff = _decode_segment_diff_body(reader.raw_view(length))
    if _buffer_is_writable(reader.data):
        diff.materialize()
    return diff


def decode_segment_diff(data) -> SegmentDiff:
    return decode_segment_diff_from(_Reader(data), len(data))


def stamped_wire(diff: SegmentDiff, version: int) -> bytes:
    """A decoded diff's ``wire`` with its ``to_version`` word and every
    block's ``version`` word set to ``version``, in one copy: byte-equal
    to re-encoding the diff with those fields set, since decode -> encode
    is a fixed point (``tests/test_wire_golden.py``)."""
    word = version.to_bytes(4, "big")
    wire = memoryview(diff.wire)
    parts, at = [], 0
    for offset in diff.version_words:
        parts += (wire[at:offset], word)
        at = offset + 4
    parts.append(wire[at:])
    stamped = b"".join(parts)
    count_bytes_copied(len(stamped))
    return stamped
