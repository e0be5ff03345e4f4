"""A minimal canonical binary codec (big-endian, length-prefixed blobs).

Everything InterWeave puts on the wire — diffs, protocol messages, type
descriptors — is built from a handful of primitives: fixed-width unsigned
integers, raw byte runs, and length-prefixed blobs/strings.  This module
provides the writer/reader pair the other wire modules share.
"""

from __future__ import annotations

import struct
from typing import Union

from repro.errors import WireFormatError
from repro.obs.metrics import Instruments

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")

#: Anything the codec can read from or splice into a buffer without a copy.
Buffer = Union[bytes, bytearray, memoryview]


_bytes_copied = Instruments(
    lambda metrics: metrics.counter("wire.bytes_copied"))


def count_bytes_copied(amount: int) -> None:
    """Record payload bytes duplicated into a new buffer on the data plane.

    ``wire.bytes_copied`` is the copy-amplification metric: every point
    where diff payload is materialized (a decode that copies instead of
    slicing a view, a join before a scatter, a payload spliced into an
    outgoing message) reports the byte count here, so
    ``bytes_copied / payload_bytes`` is measurable per release.
    """
    if amount:
        _bytes_copied().inc(amount)


class Writer:
    """Accumulates canonical bytes.

    Backed by one growable ``bytearray`` rather than a list of parts: a
    large diff writes tens of thousands of one- and four-byte fields,
    and amortized in-place append beats allocating a tiny ``bytes``
    object per field plus a final join (``bench_protocol.py`` measures
    the difference).
    """

    __slots__ = ("_buffer",)

    def __init__(self):
        self._buffer = bytearray()

    def u8(self, value: int) -> "Writer":
        self._buffer.append(value)
        return self

    def u32(self, value: int) -> "Writer":
        self._buffer += _U32.pack(value)
        return self

    def u64(self, value: int) -> "Writer":
        self._buffer += _U64.pack(value)
        return self

    def f64(self, value: float) -> "Writer":
        self._buffer += _F64.pack(value)
        return self

    def boolean(self, value: bool) -> "Writer":
        return self.u8(1 if value else 0)

    def raw(self, data: bytes) -> "Writer":
        self._buffer += data
        return self

    def blob(self, data: bytes) -> "Writer":
        self.u32(len(data))
        return self.raw(data)

    def text(self, value: str) -> "Writer":
        return self.blob(value.encode("utf-8"))

    def tell(self) -> int:
        """Current write position (bytes emitted so far)."""
        return len(self._buffer)

    def reserve_u32(self) -> int:
        """Append a u32 placeholder and return its position for patch_u32.

        This is how length-prefixed sections are emitted without building
        the section in a scratch buffer and re-copying it: reserve the
        length word, encode the section in place, then backpatch.
        """
        position = len(self._buffer)
        self._buffer += b"\x00\x00\x00\x00"
        return position

    def patch_u32(self, position: int, value: int) -> None:
        """Overwrite a previously reserved u32 in place."""
        _U32.pack_into(self._buffer, position, value)

    def getvalue(self) -> bytes:
        return bytes(self._buffer)


class Reader:
    """Consumes canonical bytes, raising WireFormatError on truncation.

    ``raw``/``blob`` return ``bytes`` copies; ``raw_view``/``blob_view``
    return ``memoryview`` slices over the receive buffer instead.  A view
    keeps the underlying buffer alive via its refcount, so handing views
    to a decoder is safe as long as the buffer itself is immutable
    (``bytes``); decoders that may receive a *recycled* (mutable) buffer
    must materialize at the decode boundary — see
    ``wire.diff.decode_segment_diff``.
    """

    __slots__ = ("data", "offset", "_view")

    def __init__(self, data: Buffer, offset: int = 0):
        self.data = data
        self.offset = offset
        self._view = None

    def u8(self) -> int:
        if self.offset >= len(self.data):
            raise WireFormatError("buffer truncated")
        value = self.data[self.offset]
        self.offset += 1
        return value

    def _unpack(self, codec):
        try:
            (value,) = codec.unpack_from(self.data, self.offset)
        except struct.error:
            raise WireFormatError("buffer truncated") from None
        self.offset += codec.size
        return value

    def u32(self) -> int:
        return self._unpack(_U32)

    def u64(self) -> int:
        return self._unpack(_U64)

    def f64(self) -> float:
        return self._unpack(_F64)

    def boolean(self) -> bool:
        return self.u8() != 0

    def raw(self, size: int) -> bytes:
        chunk = self.data[self.offset:self.offset + size]
        if len(chunk) != size:
            raise WireFormatError("buffer truncated")
        self.offset += size
        return bytes(chunk)

    def blob(self) -> bytes:
        return self.raw(self.u32())

    def raw_view(self, size: int) -> memoryview:
        """Zero-copy variant of raw(): a memoryview slice of the buffer."""
        if self._view is None:
            self._view = memoryview(self.data)
        chunk = self._view[self.offset:self.offset + size]
        if len(chunk) != size:
            raise WireFormatError("buffer truncated")
        self.offset += size
        return chunk

    def blob_view(self) -> memoryview:
        """Zero-copy variant of blob(): length-prefixed memoryview slice."""
        return self.raw_view(self.u32())

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError(f"invalid UTF-8 in text field: {exc}") from exc

    def at_end(self) -> bool:
        return self.offset == len(self.data)
