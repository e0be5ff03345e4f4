"""Per-segment diff write-ahead log.

Checkpoints alone are only "partial protection against server failure":
every committed diff since the last periodic checkpoint dies with the
process.  This module closes that window.  Each committed client diff —
the same encoded bytes the :class:`~repro.server.DiffCache` holds — is
appended to the segment's WAL file *before* the release reply is sent,
so a crash after the ack can never lose an acknowledged version.  On
restart the server replays WAL-over-checkpoint: restore the newest
checkpoint, then re-apply every logged diff newer than it, truncating a
torn tail left by a crash mid-append.  Checkpointing then becomes WAL
*compaction*: once a checkpoint at version V is durably on disk, records
with ``to_version <= V`` are dropped.

File format
-----------
One file per segment (``<safe_name>.iwwal`` under the WAL directory):

- header: magic ``IWWL``, u32 format version, text segment name —
  written (and fsynced) when the file is created;
- zero or more frames: ``u32 payload_length | u32 crc32(payload) |
  payload``.

Each payload is codec-encoded: u8 record kind, u32 from_version,
u32 to_version, f64 timestamp, blob (the encoded
:class:`~repro.wire.SegmentDiff`).  The CRC makes torn or bit-rotted
tails detectable: replay stops at the first frame that is short,
mismatched, or undecodable, and recovery truncates the file there so
subsequent appends extend a clean log.

Durability policy: ``fsync=True`` (the default) fsyncs after every
append — committed means on disk.  ``fsync=False`` trades that guarantee
for throughput (data reaches the OS but may sit in the page cache);
benchmarks and tests that crash the *process* rather than the machine
can use it safely, since close()/kill still leave written bytes intact.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import WALError
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.server.checkpoint import (
    fsync_directory,
    replace_durably,
    safe_file_name,
)
from repro.wire.codec import Reader, Writer

_MAGIC = b"IWWL"
_FORMAT_VERSION = 1
_FRAME = struct.Struct(">II")  # payload length, crc32(payload)

#: record kinds (one today; the frame format leaves room for more)
REC_DIFF = 0

WAL_SUFFIX = ".iwwal"


@dataclass
class WALRecord:
    """One committed diff as logged: the release's encoded bytes plus
    the version pair and server timestamp needed to replay it."""

    kind: int
    from_version: int
    to_version: int
    timestamp: float
    payload: bytes

    def encode(self) -> bytes:
        out = Writer()
        (out.u8(self.kind).u32(self.from_version).u32(self.to_version)
            .f64(self.timestamp).blob(self.payload))
        return out.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "WALRecord":
        reader = Reader(data)
        record = cls(reader.u8(), reader.u32(), reader.u32(), reader.f64(),
                     reader.blob())
        if not reader.at_end():
            raise WALError("trailing bytes after WAL record")
        return record


def _encode_header(segment_name: str) -> bytes:
    out = Writer()
    out.raw(_MAGIC).u32(_FORMAT_VERSION).text(segment_name)
    return out.getvalue()


def _frame_parts(kind: int, from_version: int, to_version: int,
                 timestamp: float, payload: bytes) -> Tuple[bytes, bytes]:
    """A frame as (head, payload): everything up to the diff bytes, then
    the diff bytes themselves.

    The payload is the same encoded-diff buffer the DiffCache holds and
    the replication stream ships; splitting the frame lets append()
    write it as-is instead of re-copying it into a record and then into
    a frame (two full payload copies per release at MB scale).  The CRC
    is computed incrementally across both parts, and the on-disk bytes
    are identical to ``_frame(WALRecord(...))``.
    """
    meta = Writer()
    (meta.u8(kind).u32(from_version).u32(to_version).f64(timestamp)
         .u32(len(payload)))
    meta_bytes = meta.getvalue()
    crc = zlib.crc32(payload, zlib.crc32(meta_bytes))
    head = _FRAME.pack(len(meta_bytes) + len(payload), crc) + meta_bytes
    return head, payload


def _frame(record: WALRecord) -> bytes:
    payload = record.encode()
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def read_wal(path: str) -> Tuple[Optional[str], List[WALRecord], int]:
    """Scan a WAL file, tolerating a torn tail.

    Returns ``(segment_name, records, valid_length)``: every record up
    to the first short, CRC-mismatched, or undecodable frame, and the
    byte offset the file should be truncated to so future appends extend
    a clean log.  A file whose *header* is torn (crash during creation,
    before any record could exist) yields ``(None, [], 0)``.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise WALError(f"cannot read WAL {path!r}: {exc}") from exc
    reader = Reader(data)
    try:
        if reader.raw(4) != _MAGIC:
            raise WALError(f"{path!r} is not an InterWeave WAL")
        if reader.u32() != _FORMAT_VERSION:
            raise WALError(f"{path!r}: unsupported WAL format version")
        segment_name = reader.text()
    except WALError:
        raise
    except Exception:
        # torn header: created but never completed — nothing to replay
        return None, [], 0
    records: List[WALRecord] = []
    valid = reader.offset
    while True:
        remaining = len(data) - reader.offset
        if remaining == 0:
            break
        if remaining < _FRAME.size:
            break  # torn frame header
        length, crc = _FRAME.unpack_from(data, reader.offset)
        start = reader.offset + _FRAME.size
        payload = data[start:start + length]
        if len(payload) != length:
            break  # torn payload
        if zlib.crc32(payload) != crc:
            break  # corrupt payload: stop here, drop the rest
        try:
            record = WALRecord.decode(payload)
        except Exception:
            break  # framing intact but record undecodable
        records.append(record)
        reader.offset = start + length
        valid = reader.offset
    return segment_name, records, valid


class SegmentWAL:
    """The append handle for one segment's WAL file.

    Thread-safe; the server additionally serializes appends for one
    segment under its write lock, which is what keeps records in
    version order.
    """

    def __init__(self, path: str, segment_name: str, fsync: bool = True):
        self.path = path
        self.segment_name = segment_name
        self.fsync = fsync
        self._handle = None
        self._lock = threading.Lock()

    def _open_locked(self):
        if self._handle is None:
            handle = open(self.path, "ab")
            if handle.tell() == 0:
                handle.write(_encode_header(self.segment_name))
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
                    fsync_directory(os.path.dirname(self.path) or ".")
            self._handle = handle
        return self._handle

    def append(self, from_version: int, to_version: int, encoded: bytes,
               timestamp: float = 0.0, kind: int = REC_DIFF) -> int:
        """Durably append one committed diff; returns bytes written.

        Raises :class:`~repro.errors.WALError` on any I/O failure — the
        caller decides whether that fails the release or only degrades
        durability.
        """
        head, payload = _frame_parts(kind, from_version, to_version,
                                     timestamp, encoded)
        with self._lock:
            try:
                handle = self._open_locked()
                handle.write(head)
                handle.write(payload)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            except OSError as exc:
                # the handle may be mid-frame; drop it so the next append
                # reopens (recovery truncates whatever tear this left)
                self._close_locked()
                raise WALError(
                    f"cannot append to WAL {self.path!r}: {exc}") from exc
        return len(head) + len(payload)

    def compact(self, up_to_version: int) -> int:
        """Drop records with ``to_version <= up_to_version`` (they are
        covered by a durable checkpoint); returns records kept.

        Rewrites the file through the same durable-replace helper the
        checkpoint writer uses, so a crash mid-compaction leaves either
        the old or the new log, never a hybrid.
        """
        with self._lock:
            self._close_locked()
            if not os.path.exists(self.path):
                return 0
            _, records, _ = read_wal(self.path)
            kept = [r for r in records if r.to_version > up_to_version]
            data = _encode_header(self.segment_name)
            for record in kept:
                data += _frame(record)
            replace_durably(self.path, data)
            return len(kept)

    def truncate_to(self, valid_length: int) -> None:
        """Chop a torn tail off the file (crash recovery)."""
        with self._lock:
            self._close_locked()
            try:
                with open(self.path, "r+b") as handle:
                    handle.truncate(valid_length)
                    handle.flush()
                    os.fsync(handle.fileno())
            except OSError as exc:
                raise WALError(
                    f"cannot truncate WAL {self.path!r}: {exc}") from exc

    def _close_locked(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def close(self) -> None:
        with self._lock:
            self._close_locked()


class WriteAheadLog:
    """All of one server's segment WALs under a single directory."""

    def __init__(self, directory: str, fsync: bool = True,
                 metrics: Optional[MetricsRegistry] = None):
        self.directory = directory
        self.fsync = fsync
        os.makedirs(directory, exist_ok=True)
        self._segments: Dict[str, SegmentWAL] = {}
        self._lock = threading.Lock()
        registry = metrics or get_registry()
        self._m_appends = registry.counter(
            "server.wal_appends", "diff records appended to segment WALs")
        self._m_bytes = registry.counter(
            "server.wal_bytes", "bytes appended to segment WALs")
        self._m_compactions = registry.counter(
            "server.wal_compactions",
            "WAL compactions after a durable checkpoint")
        self._m_truncations = registry.counter(
            "server.wal_truncations",
            "torn WAL tails truncated during recovery")
        self._m_replayed = registry.counter(
            "server.wal_replayed", "WAL records re-applied during recovery")
        self._m_append_seconds = registry.histogram(
            "server.wal_append_seconds",
            help="durable WAL append latency (includes fsync)")

    def path_for(self, segment_name: str) -> str:
        return os.path.join(self.directory,
                            safe_file_name(segment_name) + WAL_SUFFIX)

    def for_segment(self, segment_name: str) -> SegmentWAL:
        with self._lock:
            wal = self._segments.get(segment_name)
            if wal is None:
                wal = SegmentWAL(self.path_for(segment_name), segment_name,
                                 fsync=self.fsync)
                self._segments[segment_name] = wal
            return wal

    def append(self, segment_name: str, from_version: int, to_version: int,
               encoded: bytes, timestamp: float = 0.0) -> int:
        started = time.perf_counter()
        written = self.for_segment(segment_name).append(
            from_version, to_version, encoded, timestamp)
        self._m_append_seconds.observe(time.perf_counter() - started)
        self._m_appends.inc()
        self._m_bytes.inc(written)
        return written

    def compact(self, segment_name: str, up_to_version: int) -> int:
        kept = self.for_segment(segment_name).compact(up_to_version)
        self._m_compactions.inc()
        return kept

    def recover(self) -> Dict[str, List[WALRecord]]:
        """Read every WAL in the directory, truncating torn tails.

        Returns ``segment name -> records`` (version order, as written).
        Files whose header never made it to disk are removed — they
        cannot name their segment and hold no records.
        """
        recovered: Dict[str, List[WALRecord]] = {}
        try:
            names = sorted(os.listdir(self.directory))
        except OSError as exc:
            raise WALError(
                f"cannot list WAL directory {self.directory!r}: {exc}") from exc
        for file_name in names:
            if not file_name.endswith(WAL_SUFFIX):
                continue
            path = os.path.join(self.directory, file_name)
            segment_name, records, valid = read_wal(path)
            if segment_name is None:
                os.unlink(path)
                self._m_truncations.inc()
                continue
            if valid < os.path.getsize(path):
                SegmentWAL(path, segment_name,
                           fsync=self.fsync).truncate_to(valid)
                self._m_truncations.inc()
            recovered[segment_name] = records
        return recovered

    def record_replayed(self, count: int = 1) -> None:
        if count:
            self._m_replayed.inc(count)

    def close(self) -> None:
        with self._lock:
            segments, self._segments = dict(self._segments), {}
        for wal in segments.values():
            wal.close()


def replay_records(state, records: List[WALRecord],
                   diff_cache=None) -> Tuple[int, int]:
    """Re-apply WAL records to a restored segment.

    Idempotent: records the checkpoint already covers
    (``to_version <= state.version``) are skipped, so replaying the same
    log twice — or over a newer checkpoint — is harmless.  A gap
    (``from_version`` past the segment's version) means the log and the
    checkpoint disagree about history; replay stops there with a
    :class:`~repro.errors.WALError` rather than fabricate versions.

    Returns ``(applied, skipped)``.
    """
    from repro.wire import decode_segment_diff

    applied = skipped = 0
    for record in records:
        if record.kind != REC_DIFF:
            skipped += 1
            continue
        if record.to_version <= state.version:
            skipped += 1
            continue
        if record.from_version != state.version:
            raise WALError(
                f"segment {state.name!r}: WAL record for versions "
                f"{record.from_version}->{record.to_version} does not "
                f"extend checkpoint at version {state.version} (gap)")
        diff = decode_segment_diff(record.payload)
        state.apply_client_diff(diff, now=record.timestamp)
        if diff_cache is not None:
            diff_cache.put(state.name, record.from_version,
                           record.to_version, record.payload)
        applied += 1
    return applied, skipped
