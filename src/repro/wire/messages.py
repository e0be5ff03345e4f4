"""Client <-> server protocol messages.

Every interaction between an InterWeave client library and a server is one
of a small set of request/reply messages, all serialized with the
canonical codec — even when client and server share a process, the message
crosses a real serialization boundary, so measured byte counts are genuine
wire sizes.

Requests
--------
- :class:`OpenSegmentRequest` — open (or create) a segment.
- :class:`LockAcquireRequest` — acquire a read or write lock; carries the
  client's cached version and coherence model so the server can decide
  whether the cache is "recent enough", and piggyback an update diff on
  the grant when it is not.
- :class:`LockReleaseRequest` — release a lock; a write release carries
  the wire-format diff of everything modified in the critical section.
- :class:`FetchRequest` — fetch an update diff without locking (used by
  the polling side of the adaptive polling/notification protocol).
- :class:`SubscribeRequest` — toggle server notifications for a segment
  (the notification side of the same protocol).
- :class:`GetStatsRequest` — introspect a live server: the reply carries
  a JSON snapshot of the server's metrics registry and segment table
  (see ``repro.obs`` and ``python -m repro.tools.stats_main``).

Replies mirror requests; :class:`ErrorReply` carries failures.

The cluster control plane (``repro.cluster``, docs/PROTOCOL.md §10)
adds two more request families over the same codec:

- :class:`DirectoryLookupRequest` / :class:`DirectoryUpdateRequest` —
  spoken to a :class:`~repro.cluster.SegmentDirectory` to resolve or
  change segment → origin bindings;
- :class:`MigrateOutRequest` / :class:`MigrateInRequest` /
  :class:`MigrateCommitRequest` / :class:`MigrateAbortRequest` — the
  live-migration protocol between a coordinator and origin servers;
- :class:`RedirectReply` — any segment-addressed request may be
  answered with this instead of its normal reply when the addressed
  server no longer serves the segment; the client re-resolves and
  retries ("chases the redirect").
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Type

from repro.errors import WireFormatError
from repro.wire.codec import Reader, Writer, count_bytes_copied
from repro.wire.diff import (SegmentDiff, decode_segment_diff_from,
                             encode_segment_diff_into)

LOCK_READ = 0
LOCK_WRITE = 1

#: Coherence model identifiers carried in lock requests.
COHERENCE_FULL = 0
COHERENCE_DELTA = 1
COHERENCE_TEMPORAL = 2
COHERENCE_DIFF = 3


# ---------------------------------------------------------------------------
# field kinds: the only places that know how a value is laid out
# ---------------------------------------------------------------------------

class Kind(NamedTuple):
    """How one message field crosses the wire: the token
    docs/PROTOCOL.md §5 names it by, and the put/get pair that writes
    and reads it."""

    name: str
    put: Callable[[Writer, object], object]
    get: Callable[[Reader], object]


def _encode_optional_diff(out: Writer, diff: Optional[SegmentDiff]) -> None:
    if diff is None:
        out.boolean(False)
    else:
        # encode straight into the message buffer (reserve the length
        # word, backpatch after) instead of via scratch bytes re-copied
        # with out.blob() — same wire layout, one fewer payload copy
        out.boolean(True)
        length_at = out.reserve_u32()
        written = encode_segment_diff_into(out, diff)
        out.patch_u32(length_at, written)


def _decode_optional_diff(reader: Reader) -> Optional[SegmentDiff]:
    if not reader.boolean():
        return None
    # decode in place: run payloads are memoryview slices of the message
    # buffer, not per-diff bytes copies
    return decode_segment_diff_from(reader, reader.u32())


def _encode_diff_entries(out: Writer,
                         entries: List[Tuple[int, int, bytes]]) -> None:
    out.u32(len(entries))
    for from_version, to_version, encoded in entries:
        out.u32(from_version).u32(to_version).blob(encoded)


def _decode_diff_entries(reader: Reader) -> List[Tuple[int, int, bytes]]:
    return [(reader.u32(), reader.u32(), reader.blob())
            for _ in range(reader.u32())]


def _encode_shipped_blob(out: Writer, data: bytes) -> None:
    # the replication ship copy: the release's encoded diff bytes
    # spliced into the stream message (the one copy the replication
    # tier takes — the WAL and DiffCache share the same buffer)
    count_bytes_copied(len(data))
    out.blob(data)


U8 = Kind("u8", Writer.u8, Reader.u8)
U32 = Kind("u32", Writer.u32, Reader.u32)
U64 = Kind("u64", Writer.u64, Reader.u64)
F64 = Kind("f64", Writer.f64, Reader.f64)
BOOL = Kind("bool", Writer.boolean, Reader.boolean)
TEXT = Kind("text", Writer.text, Reader.text)
BLOB = Kind("blob", Writer.blob, Reader.blob)
#: a ``blob`` on the wire whose splice counts toward ``wire.bytes_copied``
SHIPPED_BLOB = Kind("blob", _encode_shipped_blob, Reader.blob)
OPT_DIFF = Kind("opt_diff", _encode_optional_diff, _decode_optional_diff)
DIFF_ENTRIES = Kind("diff_entries", _encode_diff_entries, _decode_diff_entries)


# ---------------------------------------------------------------------------
# the schema-driven codec
# ---------------------------------------------------------------------------

class Message:
    """Base: a self-identifying, codec-serializable protocol message.

    ``FIELDS`` is the message's wire layout: one ``(name, Kind)`` pair
    per dataclass field, in body order, declared with :func:`message`.
    """

    TAG: int = -1
    FIELDS: Tuple[Tuple[str, Kind], ...] = ()


_REGISTRY: Dict[int, Type[Message]] = {}
#: tags of the read-only requests -> whether the ``mode`` byte decides it
_READ_ONLY: Dict[int, bool] = {}


def message(tag: int, *kinds: Kind, read_only=False):
    """Class decorator: make ``cls`` a dataclass, declare the wire kind
    of each of its fields (positionally), and register it under ``tag``.

    ``read_only`` marks a request a retry may simply run again, so no
    reply to it is retained (docs/PROTOCOL.md §6): ``True``, or
    ``"mode"`` when its leading ``segment``/``mode`` fields decide."""

    def declare(cls: Type[Message]) -> Type[Message]:
        cls = dataclass(cls)
        names = [spec.name for spec in fields(cls)]
        if len(kinds) != len(names):
            raise TypeError(f"{cls.__name__}: {len(kinds)} field kinds "
                            f"for {len(names)} fields")
        if tag in _REGISTRY:
            raise ValueError(f"duplicate message tag {tag}")
        cls.TAG = tag
        cls.FIELDS = tuple(zip(names, kinds))
        if read_only == "mode" and kinds[:2] != (TEXT, U8):
            raise TypeError(f"{cls.__name__}: mode must follow the segment")
        if read_only:
            _READ_ONLY[tag] = read_only == "mode"
        _REGISTRY[tag] = cls
        return cls

    return declare


def _is_read_only(data: bytes) -> bool:
    """Is the encoded request ``data`` read-only (see :func:`message`)?
    Answered from the tag byte, and for a lock request the ``mode`` byte
    after its segment name, without decoding; bytes that are no such
    request say no."""
    by_mode = _READ_ONLY.get(data[0]) if data else None
    if not by_mode:
        return by_mode is not None
    mode_at = 5 + int.from_bytes(data[1:5], "big")
    return len(data) > mode_at and data[mode_at] == LOCK_READ


def encode_message(message: Message) -> bytes:
    out = Writer()
    out.u8(message.TAG)
    for name, kind in message.FIELDS:
        kind.put(out, getattr(message, name))
    return out.getvalue()


def decode_message(data: bytes) -> Message:
    reader = Reader(data)
    tag = reader.u8()
    cls = _REGISTRY.get(tag)
    if cls is None:
        raise WireFormatError(f"unknown message tag {tag}")
    message = cls(*[kind.get(reader) for _, kind in cls.FIELDS])
    if not reader.at_end():
        raise WireFormatError(f"trailing bytes after {cls.__name__}")
    return message


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

@message(1, TEXT, BOOL, TEXT)
class OpenSegmentRequest(Message):
    segment: str
    create: bool = True
    client_id: str = ""


@message(2, TEXT, U8, TEXT, U32, U8, F64, F64, read_only="mode")
class LockAcquireRequest(Message):
    segment: str
    mode: int  # LOCK_READ or LOCK_WRITE
    client_id: str
    client_version: int  # version of the client's cached copy (0 = none)
    coherence_kind: int = COHERENCE_FULL
    coherence_param: float = 0.0
    client_time: float = 0.0  # client clock, for temporal coherence


@message(3, TEXT, U8, TEXT, OPT_DIFF, read_only="mode")
class LockReleaseRequest(Message):
    segment: str
    mode: int
    client_id: str
    diff: Optional[SegmentDiff] = None  # present on write release


@message(4, TEXT, TEXT, U32, BOOL, read_only=True)
class FetchRequest(Message):
    segment: str
    client_id: str
    client_version: int
    #: metadata only: block skeletons and types, no data runs.  Used by
    #: IW_mip_to_ptr to reserve space for a segment that is not yet locked
    #: ("actual data will not be copied until the segment is locked").
    meta_only: bool = False


@message(6, TEXT, TEXT)
class DeleteSegmentRequest(Message):
    """Destroy a segment at the server.  Clients still caching it will get
    errors on their next validation — deletion is administrative, not
    coherent."""

    segment: str
    client_id: str


@message(70, BOOL)
class DeleteSegmentReply(Message):
    deleted: bool


@message(7, TEXT, read_only=True)
class GetStatsRequest(Message):
    """Ask the server for a stats snapshot (purely observational: no
    segment or coherence state changes)."""

    client_id: str = ""


@message(71, TEXT)
class GetStatsReply(Message):
    """The snapshot, as canonical JSON text (sorted keys): a ``server``
    section (name, segment table) and a ``metrics`` section (the
    registry snapshot).  JSON keeps the payload schema-free so servers
    can grow new metrics without a protocol revision."""

    payload: str

    def to_dict(self) -> dict:
        return json.loads(self.payload)


@message(5, TEXT, TEXT, BOOL)
class SubscribeRequest(Message):
    # not read_only: a late copy could undo the client's next toggle
    segment: str
    client_id: str
    enable: bool


# ---------------------------------------------------------------------------
# replies
# ---------------------------------------------------------------------------

@message(64, BOOL, U32)
class OpenSegmentReply(Message):
    existed: bool
    version: int


@message(65, BOOL, U32, F64, OPT_DIFF)
class LockAcquireReply(Message):
    granted: bool
    version: int = 0  # current segment version at the server
    #: seconds of write-lock lease granted (0 on reads and denials); the
    #: server renews the lease on every request the writer sends for the
    #: segment and may reclaim the lock once the lease lapses
    lease_remaining: float = 0.0
    diff: Optional[SegmentDiff] = None  # update, when the cache is stale


@message(66, U32)
class LockReleaseReply(Message):
    version: int  # the version the release produced (write) or held (read)


@message(67, U32, OPT_DIFF)
class FetchReply(Message):
    version: int
    diff: Optional[SegmentDiff] = None  # None when already current


@message(68, BOOL)
class SubscribeReply(Message):
    enabled: bool


@message(69, TEXT, U32)
class NotifyInvalidate(Message):
    """Server -> client notification: the segment moved past a coherence
    bound, so the client's next acquire must revalidate."""

    segment: str
    version: int


@message(127, TEXT)
class ErrorReply(Message):
    message: str


# ---------------------------------------------------------------------------
# cluster control plane (repro.cluster; docs/PROTOCOL.md §10)
# ---------------------------------------------------------------------------

#: DirectoryUpdateRequest operations.
DIR_ADD_ORIGIN = 0
DIR_REMOVE_ORIGIN = 1
DIR_PIN = 2
DIR_UNPIN = 3
DIR_MIGRATE = 4


@message(8, TEXT, TEXT)
class DirectoryLookupRequest(Message):
    """Resolve ``segment`` to the origin server currently bound to it."""

    segment: str
    client_id: str = ""


@message(72, TEXT, U64, BOOL)
class DirectoryLookupReply(Message):
    origin: str
    #: the binding's generation stamp; redirects carrying an older
    #: generation than a cached binding are ignored
    generation: int = 0
    pinned: bool = False


@message(9, U8, TEXT, TEXT, TEXT)
class DirectoryUpdateRequest(Message):
    """Change ring membership or per-segment bindings (``DIR_*`` ops).

    ``origin`` names the server being added/removed or the pin/migration
    target; ``segment`` is used by the pin/unpin/migrate operations.
    """

    op: int
    origin: str = ""
    segment: str = ""
    client_id: str = ""


@message(73, BOOL, U64)
class DirectoryUpdateReply(Message):
    ok: bool
    generation: int = 0


@message(74, TEXT, TEXT, U64)
class RedirectReply(Message):
    """"WrongServer": the addressed server does not serve ``segment``
    (any more); ``origin`` does, as of binding ``generation``."""

    segment: str
    origin: str
    generation: int = 0


@message(10, TEXT, TEXT)
class MigrateOutRequest(Message):
    """Freeze writes to ``segment`` and export its full state."""

    segment: str
    client_id: str = ""


@message(75, U32, BLOB, DIFF_ENTRIES)
class MigrateOutReply(Message):
    """The frozen segment: a checkpoint image plus the diff-cache
    entries worth re-seeding at the target."""

    version: int
    payload: bytes
    diffs: List[Tuple[int, int, bytes]] = field(default_factory=list)


@message(11, TEXT, BLOB, DIFF_ENTRIES, TEXT)
class MigrateInRequest(Message):
    """Install an exported segment at the target origin."""

    segment: str
    payload: bytes
    diffs: List[Tuple[int, int, bytes]] = field(default_factory=list)
    client_id: str = ""


@message(12, TEXT, TEXT, U64, TEXT)
class MigrateCommitRequest(Message):
    """Drop the frozen source copy and leave a redirect tombstone."""

    segment: str
    target: str
    generation: int = 0
    client_id: str = ""


@message(13, TEXT, TEXT)
class MigrateAbortRequest(Message):
    """Unfreeze a segment whose migration failed before commit."""

    segment: str
    client_id: str = ""


@message(76, BOOL)
class MigrateAck(Message):
    """Acknowledges MigrateIn / MigrateCommit / MigrateAbort."""

    ok: bool = True


# ---------------------------------------------------------------------------
# primary-backup replication (repro.replication; docs/PROTOCOL.md §11)
# ---------------------------------------------------------------------------

#: ReplicateAppendRequest kinds.
REPL_DIFF = 0      # one committed diff (the WAL record, re-shipped)
REPL_LEASE = 1     # a write-lease grant or release at the primary
REPL_PROMOTE = 2   # control: backup becomes primary for its segments


@message(14, U8, TEXT, U32, U32, F64, SHIPPED_BLOB, TEXT, F64, TEXT)
class ReplicateAppendRequest(Message):
    """One record of the primary's replication stream.

    ``REPL_DIFF`` carries the same encoded diff bytes the primary
    appended to its WAL; the backup applies it only when
    ``from_version`` matches its copy (otherwise it nacks and the
    primary falls back to :class:`ReplicateCatchupRequest`).
    ``REPL_LEASE`` mirrors write-lease grants/releases so the backup
    can honor an in-flight writer's lease after failover (``writer`` is
    empty for a release); ``lease_expiry`` is the primary-clock expiry
    time.  ``REPL_PROMOTE`` tells the backup to start serving as
    primary (``segment`` is empty: promotion is server-wide).
    """

    kind: int
    segment: str = ""
    from_version: int = 0
    to_version: int = 0
    timestamp: float = 0.0
    payload: bytes = b""
    writer: str = ""          # REPL_LEASE: lease holder ("" = released)
    lease_expiry: float = 0.0
    client_id: str = ""


@message(15, TEXT, U32, BLOB, DIFF_ENTRIES, TEXT)
class ReplicateCatchupRequest(Message):
    """Full-state resync for one segment: a checkpoint image plus the
    diff-cache entries worth re-seeding, exactly like migration's
    export.  Sent when the backup nacks an append (version gap) or when
    a segment first joins the stream."""

    segment: str
    version: int
    payload: bytes
    diffs: List[Tuple[int, int, bytes]] = field(default_factory=list)
    client_id: str = ""


@message(77, BOOL, U32)
class ReplicateAck(Message):
    """Acknowledges a replication record; ``version`` is the backup's
    version of the segment after applying (the primary derives
    replication lag from it).  ``ok=False`` means the record could not
    be applied in sequence and the segment needs a catchup."""

    ok: bool = True
    version: int = 0
