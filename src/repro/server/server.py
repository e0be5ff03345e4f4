"""The InterWeave server.

A server manages an arbitrary number of segments, maintains the
authoritative copy of each in wire format, arbitrates write locks,
constructs update diffs honoring each client's coherence model, caches
diffs for reuse, pushes invalidation notifications to subscribed clients,
and periodically checkpoints segments to persistent storage.

The server is a :class:`~repro.transport.Dispatcher`: it consumes encoded
request messages and produces encoded replies, so the same object serves
in-process hubs and TCP transports unchanged.

Concurrency model (see the "Locking model" section of docs/PROTOCOL.md):
``dispatch`` is fully thread-safe and holds **no global lock**.  A short
table lock guards the segment dictionary; each segment carries its own
writer-preferring :class:`~repro.util.rwlock.ReaderWriterLock`, so
fetches and read-lock validations on one segment run concurrently with
each other and with all traffic on other segments, while write acquires,
releases (diff application), and deletes serialize only against their own
segment.  Invalidation pushes happen *after* the segment lock is
released, so a slow subscriber link never stalls unrelated requests.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.coherence import CoherencePolicy
from repro.errors import CheckpointError, InterWeaveError, ServerError, WALError
from repro.obs.metrics import MetricsRegistry, OwnerCounters, get_registry
from repro.server.coherence import SegmentCoherence
from repro.server.diff_cache import DiffCache
from repro.server.segment_state import ServerSegment
from repro.server.wal import WriteAheadLog, replay_records
from repro.transport.base import Dispatcher, NotificationSink, NullSink
from repro.util.clock import Clock, WallClock
from repro.util.rwlock import ReaderWriterLock
from repro.wire import SegmentDiff, encode_segment_diff
from repro.wire.messages import (
    LOCK_READ,
    LOCK_WRITE,
    REPL_DIFF,
    REPL_LEASE,
    REPL_PROMOTE,
    DeleteSegmentReply,
    DeleteSegmentRequest,
    ErrorReply,
    FetchReply,
    FetchRequest,
    GetStatsReply,
    GetStatsRequest,
    LockAcquireReply,
    LockAcquireRequest,
    LockReleaseReply,
    LockReleaseRequest,
    Message,
    MigrateAbortRequest,
    MigrateAck,
    MigrateCommitRequest,
    MigrateInRequest,
    MigrateOutReply,
    MigrateOutRequest,
    NotifyInvalidate,
    OpenSegmentReply,
    OpenSegmentRequest,
    RedirectReply,
    ReplicateAck,
    ReplicateAppendRequest,
    ReplicateCatchupRequest,
    SubscribeReply,
    SubscribeRequest,
    decode_message,
    encode_message,
)

_log = logging.getLogger(__name__)

#: the writer identity installed to freeze a segment during migration; it
#: can never collide with a real client because clients supply their own
#: ids as lease holders and the migration protocol never acquires through
#: ``_acquire_write``
MIGRATION_WRITER = "!migration"


@dataclass
class _SegmentEntry:
    state: ServerSegment
    coherence: SegmentCoherence = field(default_factory=SegmentCoherence)
    writer: Optional[str] = None
    #: server-clock instant the writer's lease lapses; meaningless when
    #: ``writer`` is None
    writer_expires: float = 0.0
    #: serializes server threads touching this segment: handlers that only
    #: read segment state (fetch, read validation) hold the read side,
    #: mutators (write acquire, release, delete) hold the write side
    lock: ReaderWriterLock = field(default_factory=ReaderWriterLock)
    #: leaf lock for the (writer, writer_expires) pair — lease renewal and
    #: lazy expiry run on the *read* side too, where segment readers
    #: overlap; never acquire any other lock while holding it
    meta: threading.Lock = field(default_factory=threading.Lock)
    #: set (under the write lock) when the segment is removed from the
    #: table; a request that looked the entry up just before the delete
    #: finds the flag after acquiring the lock and fails as "no segment"
    deleted: bool = False
    #: a migration freeze is waiting for the current write lease to be
    #: released: new write acquires are denied so the freeze wins the
    #: race against a writer re-acquiring in a tight loop (guarded by
    #: ``meta``; cleared by the freeze itself or by an abort)
    migration_pending: bool = False


class InterWeaveServer(Dispatcher):
    """Serves a set of segments to InterWeave clients.

    ``dispatch`` may be called concurrently from any number of transport
    threads; see the module docstring for the locking model.
    """

    def __init__(self, name: str = "server",
                 sink: Optional[NotificationSink] = None,
                 clock: Optional[Clock] = None,
                 diff_cache_bytes: int = 16 * 1024 * 1024,
                 checkpoint_dir: Optional[str] = None,
                 checkpoint_every: int = 0,
                 metrics: Optional[MetricsRegistry] = None,
                 lease_duration: float = 30.0,
                 wal_dir: Optional[str] = None,
                 wal_fsync: bool = True,
                 role: str = "primary",
                 quorum_ack: bool = False,
                 quorum_timeout: float = 1.0):
        if lease_duration <= 0:
            raise ServerError("lease_duration must be positive")
        if role not in ("primary", "backup"):
            raise ServerError(f"unknown server role {role!r}")
        if quorum_timeout <= 0:
            raise ServerError("quorum_timeout must be positive")
        self.name = name
        self.sink = sink or NullSink()
        self.clock = clock or WallClock()
        #: seconds a write lock survives without the holder contacting the
        #: server; a lapsed lease lets another writer reclaim the segment
        self.lease_duration = lease_duration
        self.segments: Dict[str, _SegmentEntry] = {}
        self.metrics = metrics or get_registry()
        self.diff_cache = DiffCache(diff_cache_bytes, metrics=self.metrics)
        #: this server's own share of each ``server.*`` counter below
        self.stats = OwnerCounters(self, self.metrics, "server", {
            "diffs_applied": "client write diffs applied",
            "updates_built": "update diffs rebuilt from subblock versions",
            "updates_served_from_cache": "update diffs served or composed from the diff cache",
            "notifications_pushed": "invalidations pushed to subscribers",
            "lock_denials": "write lock requests denied",
            "lease_expiries": "write locks reclaimed from clients whose lease lapsed",
            "redirects_served": "requests answered with a WrongServer redirect",
            "migrations_in": "segments imported by live migration",
            "migrations_out": "segments migrated away (commit received)",
        })
        self._counts = self.stats.parts
        self._m_requests = self.metrics.counter(
            "server.requests", "protocol requests dispatched")
        self._m_errors = self.metrics.counter(
            "server.errors", "requests answered with ErrorReply")
        self._m_internal_errors = self.metrics.counter(
            "server.internal_errors",
            "non-protocol exceptions caught in dispatch (server bugs, "
            "payloads the codec could not type)")
        self._m_dispatch = self.metrics.histogram(
            "server.dispatch_seconds", help="request handling latency")
        self._m_segments = self.metrics.gauge(
            "server.segments", "segments currently served")
        self._m_table_wait = self.metrics.histogram(
            "server.lock.table_wait_seconds",
            help="time spent waiting for the segment-table lock")
        self._m_read_wait = self.metrics.histogram(
            "server.lock.read_wait_seconds",
            help="time spent waiting for a per-segment read lock")
        self._m_write_wait = self.metrics.histogram(
            "server.lock.write_wait_seconds",
            help="time spent waiting for a per-segment write lock")
        self._m_checkpoint_errors = self.metrics.counter(
            "server.checkpoint_errors",
            "periodic checkpoints that failed to reach disk (the release "
            "they rode on still succeeded)")
        self._m_wal_errors = self.metrics.counter(
            "server.wal_errors",
            "WAL appends or replays that failed (durability degraded, "
            "the commit itself still succeeded)")
        self._m_promotions = self.metrics.counter(
            "server.promotions", "backup-to-primary promotions")
        self._m_replica_appends = self.metrics.counter(
            "server.replica_appends",
            "replication records applied while acting as a backup")
        self._m_replica_catchups = self.metrics.counter(
            "server.replica_catchups",
            "full-segment catchups installed while acting as a backup")
        self._m_quorum_acks = self.metrics.counter(
            "server.quorum_acks",
            "releases acknowledged only after the backup confirmed the "
            "replicated diff (quorum-ack mode)")
        self._m_quorum_degrades = self.metrics.counter(
            "server.quorum_degrades",
            "quorum-ack releases that timed out waiting for the backup "
            "and degraded to asynchronous replication")
        self._m_quorum_wait = self.metrics.histogram(
            "server.quorum_wait_seconds",
            help="time a quorum-ack release spent waiting for the "
                 "backup's ack")
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        #: durable diff log: every committed diff is appended (and synced)
        #: before its release reply is sent, closing the crash window
        #: between periodic checkpoints
        self.wal = (WriteAheadLog(wal_dir, fsync=wal_fsync,
                                  metrics=self.metrics)
                    if wal_dir else None)
        #: "primary" serves clients; "backup" only accepts the replication
        #: stream (and stats) until promoted
        self.role = role
        #: when True, a release reply waits (bounded by ``quorum_timeout``
        #: seconds) for the backup to acknowledge the replicated diff —
        #: RPO=0 across machine loss at the cost of release latency; a
        #: timeout degrades that release to asynchronous replication
        #: (counted in ``server.quorum_degrades``) rather than failing it
        self.quorum_ack = quorum_ack
        self.quorum_timeout = quorum_timeout
        #: a :class:`~repro.replication.ReplicationSender` once attached;
        #: primaries feed it committed diffs and lease transitions
        self.replicator = None
        #: metadata compaction cadence (versions) and history depth
        self.compact_every = 256
        self.compact_keep_back = 128
        #: segments migrated away: name -> (target origin, binding
        #: generation).  Requests naming one are answered with a
        #: RedirectReply so stale clients and relays chase the move.
        #: Guarded by the table lock; an entry is cleared if the segment
        #: ever migrates back here.
        self._moved: Dict[str, tuple] = {}
        #: guards the ``segments`` table only — held for dict operations,
        #: never while acquiring a segment lock or doing segment work
        self._table_lock = threading.Lock()

    # -- locking helpers ----------------------------------------------------------

    @contextmanager
    def _table(self):
        started = time.perf_counter()
        self._table_lock.acquire()
        self._m_table_wait.observe(time.perf_counter() - started)
        try:
            yield
        finally:
            self._table_lock.release()

    @contextmanager
    def _read_locked(self, entry: _SegmentEntry, require_live: bool = True):
        started = time.perf_counter()
        entry.lock.acquire_read()
        self._m_read_wait.observe(time.perf_counter() - started)
        try:
            if require_live and entry.deleted:
                raise ServerError(f"no segment named {entry.state.name!r}")
            yield
        finally:
            entry.lock.release_read()

    @contextmanager
    def _write_locked(self, entry: _SegmentEntry, require_live: bool = True):
        started = time.perf_counter()
        entry.lock.acquire_write()
        self._m_write_wait.observe(time.perf_counter() - started)
        try:
            if require_live and entry.deleted:
                raise ServerError(f"no segment named {entry.state.name!r}")
            yield
        finally:
            entry.lock.release_write()

    # -- dispatcher entry point ---------------------------------------------------

    def dispatch(self, client_id: str, data: bytes) -> bytes:
        started = time.perf_counter()
        self._m_requests.inc()
        try:
            request = decode_message(data)
            reply = self._handle(client_id, request)
        except InterWeaveError as exc:
            self._m_errors.inc()
            reply = ErrorReply(str(exc))
        except Exception as exc:  # noqa: BLE001 — must answer, not unwind
            # A corrupt payload the codec could not type, or a server-side
            # bug: either way the client must receive a typed ErrorReply on
            # every transport (an in-process channel would otherwise leak
            # the raw exception straight out of ``request()``).
            self._m_errors.inc()
            self._m_internal_errors.inc()
            _log.exception("unhandled exception dispatching request from %r",
                           client_id)
            reply = ErrorReply(
                f"internal server error: {type(exc).__name__}: {exc}")
        self._m_dispatch.observe(time.perf_counter() - started)
        return encode_message(reply)

    def _handle(self, client_id: str, request) -> Message:
        if isinstance(request, GetStatsRequest):
            return self._get_stats()
        if isinstance(request, ReplicateAppendRequest):
            return self._replicate_append(request)
        if isinstance(request, ReplicateCatchupRequest):
            return self._replicate_catchup(request)
        if self.role == "backup":
            # a backup mirrors its primary but must not accept writes (or
            # serve possibly-lagging reads) until promotion, or the two
            # copies would diverge
            raise ServerError(
                f"server {self.name!r} is a backup; not serving client "
                f"traffic until promoted")
        if isinstance(request, MigrateInRequest):
            # exempt from the moved check: a segment that migrated away
            # may migrate back, which reclaims the tombstone
            return self._migrate_in(request)
        moved = self._moved_binding(getattr(request, "segment", None))
        if moved is None:
            try:
                return self._route(client_id, request)
            except ServerError:
                # A migration commit can land between the check above and
                # the handler's own segment lookup (or while the handler
                # waits on the segment lock): the request then fails with
                # "no segment" even though the right answer is "it moved".
                moved = self._moved_binding(getattr(request, "segment",
                                                    None))
                if moved is None:
                    raise
        self._counts.redirects_served.inc()
        target, generation = moved
        return RedirectReply(request.segment, target, generation)

    def _route(self, client_id: str, request) -> Message:
        if isinstance(request, MigrateOutRequest):
            return self._migrate_out(client_id, request)
        if isinstance(request, MigrateCommitRequest):
            return self._migrate_commit(request)
        if isinstance(request, MigrateAbortRequest):
            return self._migrate_abort(request)
        if isinstance(request, OpenSegmentRequest):
            return self._open_segment(request)
        if isinstance(request, LockAcquireRequest):
            return self._acquire(client_id, request)
        if isinstance(request, LockReleaseRequest):
            return self._release(client_id, request)
        if isinstance(request, FetchRequest):
            return self._fetch(client_id, request)
        if isinstance(request, SubscribeRequest):
            return self._subscribe(client_id, request)
        if isinstance(request, DeleteSegmentRequest):
            return self._delete_segment(client_id, request)
        raise ServerError(f"server cannot handle {type(request).__name__}")

    # -- segment management -----------------------------------------------------------

    def _entry(self, segment_name: str) -> _SegmentEntry:
        with self._table():
            entry = self.segments.get(segment_name)
        if entry is None:
            raise ServerError(f"no segment named {segment_name!r}")
        return entry

    def add_segment(self, state: ServerSegment) -> None:
        """Install a pre-built segment (e.g. restored from a checkpoint)."""
        with self._table():
            if state.name in self.segments:
                raise ServerError(f"segment {state.name!r} already exists")
            self.segments[state.name] = _SegmentEntry(state)
            self._m_segments.set(len(self.segments))
        self.diff_cache.invalidate_segment(state.name)

    def _delete_segment(self, client_id: str,
                        request: DeleteSegmentRequest) -> Message:
        with self._table():
            entry = self.segments.get(request.segment)
        if entry is None:
            return DeleteSegmentReply(deleted=False)
        with self._write_locked(entry, require_live=False):
            if entry.deleted:
                # lost the race with another delete of the same segment
                return DeleteSegmentReply(deleted=False)
            self._lease_touch(entry, client_id)
            with entry.meta:
                blocked = (entry.writer is not None
                           and entry.writer != client_id)
            if blocked:
                raise ServerError(
                    f"segment {request.segment!r} is write-locked by another client")
            entry.deleted = True
            with self._table():
                if self.segments.get(request.segment) is entry:
                    del self.segments[request.segment]
                    self._m_segments.set(len(self.segments))
        self.diff_cache.invalidate_segment(request.segment)
        return DeleteSegmentReply(deleted=True)

    def _open_segment(self, request: OpenSegmentRequest) -> Message:
        with self._table():
            entry = self.segments.get(request.segment)
            existed = entry is not None
            if entry is None:
                if not request.create:
                    raise ServerError(f"no segment named {request.segment!r}")
                entry = _SegmentEntry(ServerSegment(request.segment))
                self.segments[request.segment] = entry
                self._m_segments.set(len(self.segments))
        with self._read_locked(entry):
            return OpenSegmentReply(existed=existed, version=entry.state.version)

    # -- live migration -----------------------------------------------------------

    def _moved_binding(self, segment_name) -> Optional[tuple]:
        if segment_name is None or not self._moved:
            return None
        with self._table():
            return self._moved.get(segment_name)

    def _migrate_out(self, client_id: str, request: MigrateOutRequest) -> Message:
        """Freeze writes and export the segment's full state.

        The freeze rides the existing lease machinery: the migration
        installs itself as the segment's writer with a lease that never
        lapses, so ordinary write acquires are denied (``granted=False``)
        and writers spin in their usual retry loop until the commit
        replaces the denial with a redirect.  Reads keep being served
        from the frozen copy throughout the transfer.

        Refused (so the coordinator backs off and retries) while a live
        client writer holds the lease — migration never revokes a lease
        that has not lapsed.
        """
        entry = self._entry(request.segment)
        with self._write_locked(entry):
            self._lease_touch(entry, client_id)
            with entry.meta:
                busy = (entry.writer is not None
                        and entry.writer != MIGRATION_WRITER)
                if busy:
                    # deny new write acquires until the current lease is
                    # released, so a looping writer cannot starve the
                    # freeze indefinitely
                    entry.migration_pending = True
                else:
                    entry.writer = MIGRATION_WRITER
                    entry.writer_expires = float("inf")
                    entry.migration_pending = False
            if busy:
                raise ServerError(
                    f"segment {request.segment!r} is write-locked; "
                    f"migration deferred")
            from repro.server.checkpoint import encode_checkpoint

            payload = encode_checkpoint(entry.state)
            diffs = self.diff_cache.entries_for(request.segment)
            return MigrateOutReply(version=entry.state.version,
                                   payload=payload, diffs=diffs)

    def _migrate_in(self, request: MigrateInRequest) -> Message:
        from repro.server.checkpoint import decode_checkpoint

        state = decode_checkpoint(request.payload)
        if state.name != request.segment:
            raise ServerError(
                f"migration payload is for {state.name!r}, "
                f"not {request.segment!r}")
        with self._table():
            if request.segment in self.segments:
                raise ServerError(
                    f"segment {request.segment!r} already exists here")
            self.segments[request.segment] = _SegmentEntry(state)
            self._m_segments.set(len(self.segments))
            # the segment may be coming back: it is served here again
            self._moved.pop(request.segment, None)
        self.diff_cache.invalidate_segment(request.segment)
        for from_version, to_version, encoded in request.diffs:
            self.diff_cache.put(request.segment, from_version, to_version,
                                encoded)
        self._counts.migrations_in.inc()
        return MigrateAck(ok=True)

    def _migrate_commit(self, request: MigrateCommitRequest) -> Message:
        """Drop the frozen source copy; leave a redirect tombstone."""
        with self._table():
            entry = self.segments.get(request.segment)
        if entry is None:
            raise ServerError(f"no segment named {request.segment!r}")
        with self._write_locked(entry, require_live=False):
            if entry.deleted:
                raise ServerError(f"no segment named {request.segment!r}")
            with entry.meta:
                frozen = entry.writer == MIGRATION_WRITER
            if not frozen:
                raise ServerError(
                    f"segment {request.segment!r} is not frozen for migration")
            entry.deleted = True
            evicted = entry.coherence.subscribers()
            version = entry.state.version
            with self._table():
                if self.segments.get(request.segment) is entry:
                    del self.segments[request.segment]
                    self._m_segments.set(len(self.segments))
                self._moved[request.segment] = (request.target,
                                                request.generation)
        self.diff_cache.invalidate_segment(request.segment)
        # Subscribers trust "subscribed + quiet = fresh"; with the data
        # gone that trust must be broken explicitly, or they would serve
        # stale copies forever.  The forced validation hits the tombstone
        # and chases the redirect to the new origin.
        if evicted:
            message = encode_message(NotifyInvalidate(request.segment,
                                                      version))
            for view in evicted:
                self.sink.push(view.client_id, message)
        self._counts.migrations_out.inc()
        return MigrateAck(ok=True)

    def _migrate_abort(self, request: MigrateAbortRequest) -> Message:
        """Unfreeze after a failed transfer; writers resume here."""
        with self._table():
            entry = self.segments.get(request.segment)
        if entry is None:
            return MigrateAck(ok=False)
        with self._write_locked(entry):
            with entry.meta:
                if entry.writer == MIGRATION_WRITER:
                    entry.writer = None
                entry.migration_pending = False
        return MigrateAck(ok=True)

    # -- locking --------------------------------------------------------------------

    def _lease_touch(self, entry: _SegmentEntry, client_id: str) -> None:
        """Renew or reclaim the segment's write lease.

        Called on every request naming the segment, so lease renewal
        piggybacks on the writer's ordinary traffic: any request from the
        current writer restarts the lease clock.  Expiry is enforced
        lazily — the first request from *another* client after the lease
        lapses reclaims the lock, so a crashed writer cannot wedge the
        segment forever.  Runs under the segment read *or* write lock;
        ``entry.meta`` makes the check-and-reclaim atomic when several
        readers race it.
        """
        with entry.meta:
            if entry.writer is None:
                return
            if entry.writer == client_id:
                entry.writer_expires = self.clock.now() + self.lease_duration
                return
            if self.clock.now() < entry.writer_expires:
                return
            entry.writer = None
        self._counts.lease_expiries.inc()

    def _acquire(self, client_id: str, request: LockAcquireRequest) -> Message:
        # locks never create segments: opening is explicit, and a deleted
        # segment must not resurrect from an orphaned cache's validation
        entry = self._entry(request.segment)
        policy = CoherencePolicy(request.coherence_kind, request.coherence_param)
        if request.mode == LOCK_WRITE:
            with self._write_locked(entry):
                return self._acquire_write(entry, client_id, request, policy)
        with self._read_locked(entry):
            return self._acquire_read(entry, client_id, request, policy)

    def _acquire_write(self, entry: _SegmentEntry, client_id: str,
                       request: LockAcquireRequest,
                       policy: CoherencePolicy) -> Message:
        self._lease_touch(entry, client_id)
        state = entry.state
        with entry.meta:
            denied = (entry.migration_pending
                      or (entry.writer is not None
                          and entry.writer != client_id))
            if not denied:
                entry.writer = client_id
                entry.writer_expires = self.clock.now() + self.lease_duration
                expires = entry.writer_expires
        if denied:
            self._counts.lock_denials.inc()
            return LockAcquireReply(granted=False, version=state.version)
        if self.replicator is not None:
            # mirror the grant so a promoted backup honors this writer's
            # lease instead of handing the lock to someone else mid-write
            self.replicator.append_lease(state.name, client_id, expires)
        # a writer must build on the current version, regardless of its
        # coherence model for reads
        diff = self._update_for(state, request.client_version)
        if diff is not None:
            entry.coherence.on_client_updated(client_id, state.version, policy)
        else:
            self._sync_view(entry, client_id, request, policy)
        return LockAcquireReply(granted=True, version=state.version,
                                lease_remaining=self.lease_duration, diff=diff)

    def _acquire_read(self, entry: _SegmentEntry, client_id: str,
                      request: LockAcquireRequest,
                      policy: CoherencePolicy) -> Message:
        self._lease_touch(entry, client_id)
        state = entry.state
        diff = None
        if self._is_stale(entry, client_id, request, policy):
            diff = self._update_for(state, request.client_version)
        if diff is not None:
            entry.coherence.on_client_updated(client_id, state.version, policy)
        else:
            self._sync_view(entry, client_id, request, policy)
        return LockAcquireReply(granted=True, version=state.version,
                                lease_remaining=0.0, diff=diff)

    def _sync_view(self, entry: _SegmentEntry, client_id: str,
                   request: LockAcquireRequest, policy: CoherencePolicy) -> None:
        """Record the client's policy/version without resetting its Diff
        coherence counter (no update was sent)."""
        view = entry.coherence.view(client_id)
        view.policy = policy
        view.version = request.client_version
        view.notified = False

    def _is_stale(self, entry: _SegmentEntry, client_id: str,
                  request: LockAcquireRequest, policy: CoherencePolicy) -> bool:
        state = entry.state
        view = entry.coherence.view(client_id)
        if view.version != request.client_version:
            # the server's counter does not describe this cache (client
            # restarted, or first contact): be conservative
            return request.client_version < state.version
        view.policy = policy
        now = self.clock.now()
        superseded = state.version_times.get(request.client_version + 1)
        return entry.coherence.is_stale(view, state.version, state.total_prim_units,
                                        now, superseded)

    def _release(self, client_id: str, request: LockReleaseRequest) -> Message:
        entry = self._entry(request.segment)
        pending = None
        checkpoint = None
        ticket = None
        with self._write_locked(entry):
            self._lease_touch(entry, client_id)
            state = entry.state
            if request.mode == LOCK_READ:
                return LockReleaseReply(version=state.version)
            with entry.meta:
                holder = entry.writer
            if holder != client_id:
                # either never held, or the lease lapsed and another client's
                # request reclaimed the lock — applying the diff now could
                # overwrite a successor writer's changes, so it is rejected
                raise ServerError(
                    f"client {client_id!r} released a write lock it does not hold "
                    f"(never acquired, or its lease expired and was reclaimed)")
            with entry.meta:
                entry.writer = None
            if request.diff is None or (not request.diff.block_diffs
                                        and not request.diff.new_types):
                if self.replicator is not None:
                    # nothing committed, but the backup must learn the
                    # lease is free — no diff record will imply it
                    self.replicator.append_lease(state.name, "", 0.0)
                return LockReleaseReply(version=state.version)
            diff = request.diff
            from_version = diff.from_version
            now = self.clock.now()
            modified_units = sum(bd.covered_units() for bd in diff.block_diffs)
            new_version = state.apply_client_diff(diff, now=now)
            self._counts.diffs_applied.inc()
            entry.coherence.on_new_version(modified_units)
            entry.coherence.on_client_updated(client_id, new_version,
                                              entry.coherence.view(client_id).policy)
            # re-encode once; the DiffCache retains this buffer, the WAL
            # writes it as-is (split frame, no re-copy), and the
            # replication stream ships it — one encoded buffer per
            # release across all three tiers
            for block_diff in diff.block_diffs:
                block_diff.version = new_version
            diff.to_version = new_version
            encoded = encode_segment_diff(diff)
            self.diff_cache.put(state.name, from_version, new_version, encoded)
            # The backup gets the record first, so its hop, apply and fsync
            # overlap ours; both hand-offs stay under the segment write
            # lock, so stream, commit and WAL order agree.  The commit is
            # durable *before* the reply leaves: once a client sees the
            # ack, no crash may lose this version (a crash in between
            # leaves the backup one unacknowledged version ahead, undone
            # by _replicate_append's duplicate rule).  An append failure
            # degrades durability but must not fail a visible commit.
            if self.replicator is not None:
                ticket = self.replicator.append_diff(
                    state.name, from_version, new_version, encoded, now,
                    ticket=self.quorum_ack)
            if self.wal is not None:
                try:
                    self.wal.append(state.name, from_version, new_version,
                                    encoded, timestamp=now)
                except WALError:
                    self._m_wal_errors.inc()
                    _log.exception("WAL append failed for %r @%d",
                                   state.name, new_version)
            pending = self._stale_notifications(entry)
            # encode the periodic checkpoint under the lock (it must be a
            # consistent image) but keep the disk write for after release —
            # fsync-ing a large segment must not stall this segment's traffic
            checkpoint = self._encode_checkpoint_if_due(state)
            if new_version % self.compact_every == 0:
                state.compact(keep_back=self.compact_keep_back)
            reply = LockReleaseReply(version=new_version)
        # pushes run outside the segment lock: a slow subscriber link must
        # not stall other clients' traffic on this segment
        self._push_notifications(pending)
        self._write_checkpoint_async_safe(checkpoint)
        # the quorum wait also runs outside the segment lock — the
        # release is not acknowledged yet, but readers and other
        # segments' writers must not stall on the backup link
        self._await_quorum(ticket)
        return reply

    def _await_quorum(self, ticket) -> None:
        """Quorum-ack mode: hold the release reply until the backup acks
        the replicated diff (bounded), degrading to async on timeout."""
        if ticket is None:
            return
        started = time.perf_counter()
        acked = ticket.wait(self.quorum_timeout) and ticket.ok
        self._m_quorum_wait.observe(time.perf_counter() - started)
        if acked:
            self._m_quorum_acks.inc()
        else:
            # the commit is already durable (WAL) and queued for the
            # backup; replying now trades RPO=0 for availability
            self._m_quorum_degrades.inc()
            _log.warning("quorum-ack release degraded to async after "
                         "%.3fs", time.perf_counter() - started)

    # -- fetch / subscribe ---------------------------------------------------------------

    def _fetch(self, client_id: str, request: FetchRequest) -> Message:
        entry = self._entry(request.segment)
        with self._read_locked(entry):
            self._lease_touch(entry, client_id)
            state = entry.state
            if request.meta_only:
                return FetchReply(version=state.version, diff=state.build_skeleton())
            diff = self._update_for(state, request.client_version)
            if diff is not None:
                view = entry.coherence.view(client_id)
                entry.coherence.on_client_updated(client_id, state.version,
                                                  view.policy)
            return FetchReply(version=state.version, diff=diff)

    def _subscribe(self, client_id: str, request: SubscribeRequest) -> Message:
        entry = self._entry(request.segment)
        with self._read_locked(entry):
            self._lease_touch(entry, client_id)
            entry.coherence.subscribe(client_id, request.enable)
            return SubscribeReply(enabled=request.enable)

    # -- introspection ---------------------------------------------------------------

    def _get_stats(self) -> Message:
        return GetStatsReply(json.dumps(self.stats_snapshot(), sort_keys=True))

    def read_segment_json(self, name: str) -> dict:
        """One segment's decoded contents + version, as a JSON-ready dict.

        Serves the HTTP gateway's ``GET /segments/{name}``: block values
        are decoded from the server's wire-format heap to plain Python
        values (see ``ServerSegment.read_block_values``) under the
        segment read lock, so the snapshot is a consistent version.
        Raises :class:`ServerError` for an unknown segment.
        """
        with self._table():
            entry = self.segments.get(name)
        if entry is None:
            raise ServerError(f"no segment named {name!r}")
        with self._read_locked(entry):
            state = entry.state
            blocks = []
            for serial in sorted(state.blocks):
                block = state.blocks[serial]
                blocks.append({
                    "serial": serial,
                    "name": block.info.name,
                    "type_serial": block.info.type_serial,
                    "version": int(block.version),
                    "prim_count": block.prim_count,
                    "values": state.read_block_values(serial),
                })
            return {"segment": name, "version": state.version,
                    "blocks": blocks}

    def stats_snapshot(self) -> dict:
        """The server's introspection payload as a plain dict.

        A ``server`` section (identity and segment table) plus a
        ``metrics`` section — the full registry snapshot, which in a
        process co-hosting clients also carries their client-side
        metrics (MMU faults, diff collection, transport bytes).

        Reads each segment under its read lock (briefly, one at a time —
        the world is never stopped).  Lease expiry is lazy, so a lapsed
        lease is reported the way ``_lease_touch`` would decide it: the
        writer shows as ``null`` with ``lease_expired`` set, not as a
        live writer holding a dead lock.
        """
        with self._table():
            entries = dict(self.segments)
        now = self.clock.now()
        segments = {}
        for name, entry in entries.items():
            with self._read_locked(entry, require_live=False):
                if entry.deleted:
                    continue
                with entry.meta:
                    writer = entry.writer
                    expires = entry.writer_expires
                expired = writer is not None and now >= expires
                segments[name] = {
                    "version": entry.state.version,
                    "blocks": len(entry.state.blocks),
                    "prim_units": entry.state.total_prim_units,
                    "writer": None if expired else writer,
                    "lease_expires": (expires if writer is not None and not expired
                                      else None),
                    "lease_expired": expired,
                    "subscribers": entry.coherence.subscriber_count(),
                }
        with self._table():
            moved = {name: {"target": target, "generation": generation}
                     for name, (target, generation) in self._moved.items()}
        return {
            "server": {"name": self.name, "role": self.role,
                       "quorum_ack": self.quorum_ack,
                       "segments": segments},
            "cluster": {
                "moved_segments": moved,
                "redirects_served": self.stats.redirects_served,
                "migrations_in": self.stats.migrations_in,
                "migrations_out": self.stats.migrations_out,
            },
            "metrics": self.metrics.snapshot(),
        }

    def _stale_notifications(self, entry: _SegmentEntry):
        """Decide who gets an invalidation; called under the write lock.

        Returns the work for :meth:`_push_notifications` to do after the
        lock is dropped.  The message is identical for every subscriber,
        so it is encoded exactly once, outside the per-subscriber loop.
        """
        state = entry.state
        stale = entry.coherence.stale_subscribers(
            state.version, state.total_prim_units, self.clock.now(),
            lambda version: state.version_times.get(version + 1))
        if not stale:
            return None
        message = encode_message(NotifyInvalidate(state.name, state.version))
        return state.version, stale, message

    def _push_notifications(self, pending) -> None:
        """Deliver invalidations decided by :meth:`_stale_notifications`.

        Runs with no segment lock held: pushing is I/O toward clients and
        must not serialize against segment traffic.
        """
        if pending is None:
            return
        version, views, message = pending
        for view in views:
            if self.sink.push(view.client_id, message):
                # between the lock release and this push the client may
                # have validated; marking it notified then would swallow
                # the *next* invalidation it actually needs
                if view.version < version:
                    view.notified = True
                self._counts.notifications_pushed.inc()

    # -- update construction -----------------------------------------------------------

    def _update_for(self, state: ServerSegment,
                    client_version: int) -> Optional[SegmentDiff]:
        if client_version >= state.version:
            return None
        cached = self.diff_cache.get(state.name, client_version, state.version)
        if cached is not None:
            from repro.wire import decode_segment_diff

            self._counts.updates_served_from_cache.inc()
            return decode_segment_diff(cached)
        diff = self._compose_from_cache(state, client_version)
        if diff is None:
            diff = state.build_update(client_version)
            if diff is None:
                return None
            self._counts.updates_built.inc()
        self.diff_cache.put(state.name, client_version, state.version,
                            encode_segment_diff(diff))
        return diff

    def _compose_from_cache(self, state: ServerSegment,
                            client_version: int) -> Optional[SegmentDiff]:
        """Stitch cached diffs into a multi-version update, if a complete
        chain exists — this keeps relaxed-coherence updates as precise as
        the writers' original diffs."""
        from repro.server.compose import compose_from_cache

        diff = compose_from_cache(self.diff_cache, state.name,
                                  client_version, state.version)
        if diff is None:
            return None  # chain broken: rebuild from subblock versions
        self._counts.updates_served_from_cache.inc()
        return diff

    # -- checkpointing --------------------------------------------------------------------

    def _encode_checkpoint_if_due(self, state: ServerSegment):
        """Encode a periodic checkpoint image under the segment lock.

        Returns ``(segment name, image, version)`` for
        :meth:`_write_checkpoint_async_safe` to persist after the lock is
        dropped, or ``None`` when no checkpoint is due.  Encoding must
        happen under the lock (the image has to be a consistent cut);
        the disk write and fsync must not.
        """
        if not (self.checkpoint_dir and self.checkpoint_every
                and state.version % self.checkpoint_every == 0):
            return None
        from repro.server.checkpoint import encode_checkpoint

        return state.name, encode_checkpoint(state), state.version

    def _write_checkpoint_async_safe(self, checkpoint) -> None:
        """Persist an encoded checkpoint; never raises.

        The release that triggered the checkpoint has already committed
        (and been WAL-logged), so a disk failure here must not turn into
        an ErrorReply — the client would believe its committed write
        failed and its retry would be rejected as a double release.
        Failures are counted in ``server.checkpoint_errors`` instead.
        A successful checkpoint makes every logged record at or below its
        version redundant, so the segment's WAL is compacted.
        """
        if checkpoint is None:
            return
        name, data, version = checkpoint
        from repro.server.checkpoint import write_checkpoint_data

        try:
            write_checkpoint_data(name, data, self.checkpoint_dir)
        except (CheckpointError, OSError):
            self._m_checkpoint_errors.inc()
            _log.exception("checkpoint of %r @%d failed", name, version)
            return
        if self.wal is not None:
            try:
                self.wal.compact(name, version)
            except WALError:
                self._m_wal_errors.inc()
                _log.exception("WAL compaction of %r @%d failed", name,
                               version)

    def checkpoint_segment(self, segment_name: str) -> str:
        """Checkpoint one segment now; returns the file path."""
        if not self.checkpoint_dir:
            raise ServerError("server has no checkpoint directory configured")
        from repro.server.checkpoint import encode_checkpoint, write_checkpoint_data

        entry = self._entry(segment_name)
        with self._read_locked(entry):
            data = encode_checkpoint(entry.state)
            version = entry.state.version
        path = write_checkpoint_data(segment_name, data, self.checkpoint_dir)
        if self.wal is not None:
            self.wal.compact(segment_name, version)
        return path

    # -- durability and replication ---------------------------------------------------

    def recover_segments(self) -> Dict[str, tuple]:
        """Restore state after a restart: checkpoints, then the WAL on top.

        Loads every checkpoint in ``checkpoint_dir``, then replays each
        segment's WAL over it — records the checkpoint already covers are
        skipped, torn tails are truncated, and a log whose history cannot
        extend the checkpoint (gap) keeps the checkpoint state rather
        than fabricate versions.  Segments that only ever existed in the
        WAL (crash before the first checkpoint) are rebuilt from scratch,
        since a fresh segment starts at version 0 exactly like the log's
        first record expects.

        Returns ``segment name -> (records applied, records skipped)``.
        """
        import glob
        import os

        from repro.server.checkpoint import read_checkpoint

        if self.checkpoint_dir and os.path.isdir(self.checkpoint_dir):
            for path in sorted(glob.glob(
                    os.path.join(self.checkpoint_dir, "*.iwck"))):
                state = read_checkpoint(path)
                with self._table():
                    known = state.name in self.segments
                if not known:
                    self.add_segment(state)
        replayed: Dict[str, tuple] = {}
        if self.wal is None:
            return replayed
        for name, records in self.wal.recover().items():
            with self._table():
                entry = self.segments.get(name)
            if entry is None:
                entry = _SegmentEntry(ServerSegment(name))
                with self._table():
                    self.segments.setdefault(name, entry)
                    self._m_segments.set(len(self.segments))
            with self._write_locked(entry):
                try:
                    applied, skipped = replay_records(entry.state, records,
                                                      self.diff_cache)
                except WALError:
                    self._m_wal_errors.inc()
                    _log.exception("WAL replay for %r stopped early", name)
                    applied, skipped = 0, len(records)
            self.wal.record_replayed(applied)
            replayed[name] = (applied, skipped)
        return replayed

    def attach_replicator(self, replicator) -> None:
        """Feed committed diffs and lease transitions to ``replicator``
        (a :class:`~repro.replication.ReplicationSender`)."""
        self.replicator = replicator

    def export_segment(self, segment_name: str):
        """A consistent (version, checkpoint image, cached diffs) triple
        for one segment — the payload of a replication catchup."""
        from repro.server.checkpoint import encode_checkpoint

        entry = self._entry(segment_name)
        with self._read_locked(entry):
            version = entry.state.version
            payload = encode_checkpoint(entry.state)
        diffs = self.diff_cache.entries_for(segment_name)
        return version, payload, diffs

    def lease_of(self, segment_name: str) -> tuple:
        """The segment's current ``(writer, expiry)`` — ``("", 0.0)``
        when unlocked or unknown.  The replication sender re-asserts
        this after every catchup, since a catchup installs fresh segment
        state at the backup and wipes the mirrored lease."""
        with self._table():
            entry = self.segments.get(segment_name)
        if entry is None:
            return "", 0.0
        with entry.meta:
            return entry.writer or "", entry.writer_expires

    def promote(self) -> None:
        """Backup becomes primary: start serving client traffic.

        Lease state replicated from the failed primary is preserved, so
        an in-flight writer's lock is honored here until its lease lapses
        — another client cannot steal the write lock just because the
        segment changed servers.
        """
        if self.role != "backup":
            return
        self.role = "primary"
        self._m_promotions.inc()
        _log.info("server %r promoted to primary", self.name)

    def _replicate_append(self, request: ReplicateAppendRequest) -> Message:
        if request.kind == REPL_PROMOTE:
            self.promote()
            return ReplicateAck(ok=True)
        if request.kind == REPL_LEASE:
            with self._table():
                entry = self.segments.get(request.segment)
            if entry is None:
                # lease for a segment this backup has never seen: it needs
                # the data before the lease means anything
                return ReplicateAck(ok=False)
            with entry.meta:
                entry.writer = request.writer or None
                entry.writer_expires = request.lease_expiry
            if self.replicator is not None:
                # chained replication: a backup forwards every record it
                # applies to its own downstream backup
                self.replicator.append_lease(request.segment, request.writer,
                                             request.lease_expiry)
            self._m_replica_appends.inc()
            return ReplicateAck(ok=True, version=entry.state.version)
        if request.kind != REPL_DIFF:
            raise ServerError(f"unknown replication record kind {request.kind}")
        with self._table():
            entry = self.segments.get(request.segment)
        if entry is None:
            return ReplicateAck(ok=False)
        from repro.wire import decode_segment_diff

        with self._write_locked(entry):
            state = entry.state
            if request.to_version <= state.version:
                # a duplicate (sender retry) is acked only if it is the very
                # record applied here: an upstream that restarted behind us
                # sends other bytes, and the nack has it reinstall the segment
                applied = (request.from_version, request.to_version,
                           request.payload) in self.diff_cache.entries_for(
                               state.name)
                return ReplicateAck(ok=applied, version=state.version)
            if request.from_version != state.version:
                # gap: the stream skipped versions (e.g. the backup
                # attached late); only a catchup can close it
                return ReplicateAck(ok=False, version=state.version)
            diff = decode_segment_diff(request.payload)
            new_version = state.apply_client_diff(diff, now=request.timestamp)
            self.diff_cache.put(state.name, request.from_version, new_version,
                                request.payload)
            # a replicated diff is a completed release at the primary
            with entry.meta:
                entry.writer = None
            if self.replicator is not None:
                # chained replication (primary → backup → backup): enqueued
                # under the segment write lock so the downstream stream keeps
                # version order, ahead of the local fsync as in _release
                self.replicator.append_diff(state.name, request.from_version,
                                            new_version, request.payload,
                                            request.timestamp)
            if self.wal is not None:
                try:
                    self.wal.append(state.name, request.from_version,
                                    new_version, request.payload,
                                    timestamp=request.timestamp)
                except WALError:
                    self._m_wal_errors.inc()
                    _log.exception("backup WAL append failed for %r @%d",
                                   state.name, new_version)
        self._m_replica_appends.inc()
        return ReplicateAck(ok=True, version=new_version)

    def _replicate_catchup(self, request: ReplicateCatchupRequest) -> Message:
        from repro.server.checkpoint import decode_checkpoint

        state = decode_checkpoint(request.payload)
        if state.name != request.segment:
            raise ServerError(
                f"catchup payload is for {state.name!r}, "
                f"not {request.segment!r}")
        fresh = _SegmentEntry(state)
        with self._table():
            old = self.segments.get(request.segment)
        if old is not None:
            with self._write_locked(old, require_live=False):
                old.deleted = True
        with self._table():
            self.segments[request.segment] = fresh
            self._m_segments.set(len(self.segments))
        self.diff_cache.invalidate_segment(request.segment)
        for from_version, to_version, encoded in request.diffs:
            self.diff_cache.put(request.segment, from_version, to_version,
                                encoded)
        # make the catchup locally durable, then drop WAL records the
        # image supersedes — otherwise a restart would replay a log that
        # no longer extends this segment's history
        checkpointed = False
        if self.checkpoint_dir:
            from repro.server.checkpoint import write_checkpoint_data

            try:
                write_checkpoint_data(request.segment, request.payload,
                                      self.checkpoint_dir)
                checkpointed = True
            except CheckpointError:
                self._m_checkpoint_errors.inc()
                _log.exception("catchup checkpoint of %r failed",
                               request.segment)
        if self.wal is not None and checkpointed:
            try:
                self.wal.compact(request.segment, state.version)
            except WALError:
                self._m_wal_errors.inc()
        if self.replicator is not None:
            # a chained backup just replaced this segment wholesale; its
            # own downstream now has a gap that no future nack may ever
            # surface (quiet segment) — propagate the catchup explicitly
            self.replicator.request_catchup(request.segment)
        self._m_replica_catchups.inc()
        return ReplicateAck(ok=True, version=state.version)

    def close(self) -> None:
        """Release file handles (WAL); the server object stays usable for
        stats but should not serve further commits."""
        if self.wal is not None:
            self.wal.close()
