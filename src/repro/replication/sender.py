"""The primary's side of the replication stream.

:class:`ReplicationSender` decouples commits from the backup link: the
server enqueues records under its segment write lock (cheap — an append
to an in-memory queue) and a worker thread ships them in order, so a slow
or dead backup never stalls a client's release.  Replication is therefore
*asynchronous* by default: the durability guarantee against a primary
crash comes from the primary's WAL; the backup bounds recovery time, not
data loss.  In quorum-ack mode (``InterWeaveServer(quorum_ack=True)``)
the server additionally waits — bounded — for the backup's ack before
answering a release, trading latency for RPO=0 across machine loss;
:meth:`append_diff` hands it a :class:`ReplicationTicket` to wait on.

The stream is self-healing.  Every record is acknowledged with the
backup's resulting segment version; a nack (``ok=False``) means the
backup cannot apply the record in sequence — it has never seen the
segment, or the stream has a gap (records dropped while the link was
down).  The sender then performs a *catchup*: it exports the segment from
the primary (checkpoint image + cached diffs, the same payload migration
uses) and ships it as one ``ReplicateCatchupRequest``, after which the
incremental stream resumes.  Because a catchup installs a fresh segment
entry at the backup (wiping any mirrored lease) and because a *dropped*
lease record is never re-shipped by the data-only catchup payload, every
successful catchup re-asserts the segment's live lease from the
primary's current state.

Gaps do not wait for new client writes.  A record that dies in flight
(transport error) or is evicted by queue overflow marks its segment
*dirty*; a catchup probe heals every dirty segment as soon as the
channel shows signs of life (a reconnect, or any later record shipping
successfully) — without it, a gap on a quiet segment would leave the
backup divergent until the next client write happened to trigger a nack.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from typing import List, Optional, Set, Tuple

from repro.errors import InterWeaveError, ServerError, TransportError
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.transport.base import Channel
from repro.wire.messages import (
    REPL_DIFF,
    REPL_LEASE,
    ErrorReply,
    ReplicateAck,
    ReplicateAppendRequest,
    ReplicateCatchupRequest,
    decode_message,
    encode_message,
)

_log = logging.getLogger(__name__)


class ReplicationTicket:
    """Completion handle for one enqueued diff record (quorum-ack mode).

    ``wait(timeout)`` returns True once the record's fate is decided;
    ``ok`` then says whether the backup actually holds the version (an
    ack, directly or via the catchup that healed a nack).  A ticket that
    completes with ``ok=False`` — dropped record, dead link, abandoned
    queue — tells the waiting release to degrade to asynchronous
    replication rather than block forever.
    """

    __slots__ = ("_event", "ok")

    def __init__(self):
        self._event = threading.Event()
        self.ok = False

    def complete(self, ok: bool) -> None:
        self.ok = ok
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)


class _QueueItem:
    """One enqueued record plus the ticket (if any) riding on it."""

    __slots__ = ("record", "ticket")

    def __init__(self, record: ReplicateAppendRequest,
                 ticket: Optional[ReplicationTicket]):
        self.record = record
        self.ticket = ticket


class ReplicationSender:
    """Ships a server's diff/lease stream to one downstream replica.

    ``server`` is the upstream copy (used to export segments for
    catchups and to read current lease state); ``channel`` is any
    request/reply channel to the replica.  Attach with
    ``server.attach_replicator(sender)``.  The upstream server may
    itself be a backup — a backup with a sender forwards every record it
    applies, forming a chain (primary → backup → backup) that promotion
    can climb.
    """

    def __init__(self, server, channel: Channel,
                 client_id: str = "!replication",
                 metrics: Optional[MetricsRegistry] = None,
                 max_queue: int = 65536):
        self.server = server
        self.channel = channel
        self.client_id = client_id
        self._queue: "deque[_QueueItem]" = deque()
        self._max_queue = max_queue
        self._cv = threading.Condition()
        self._busy = False
        self._stopped = False
        #: segments with a known (or suspected) gap at the backup; healed
        #: by catchup probes, guarded by ``self._cv``
        self._dirty: Set[str] = set()
        #: a probe pass is requested (channel recovered, overflow evicted
        #: a record, or a chained catchup must propagate); guarded by
        #: ``self._cv``
        self._probe_pending = False
        registry = metrics or get_registry()
        self._m_appends = registry.counter(
            "replication.appends", "records shipped to the backup")
        self._m_catchups = registry.counter(
            "replication.catchups", "full-segment catchups shipped")
        self._m_errors = registry.counter(
            "replication.errors",
            "records dropped on transport/server errors (the segment is "
            "marked dirty and healed by a catchup probe)")
        self._m_overflow = registry.counter(
            "replication.overflow_drops",
            "diff records evicted by the queue bound (the gap is healed "
            "by a catchup probe)")
        self._m_probes = registry.counter(
            "replication.catchup_probes",
            "dirty-segment catchups shipped by the probe path (gap healed "
            "without waiting for new client writes)")
        self._m_lease_reasserts = registry.counter(
            "replication.lease_reasserts",
            "live leases re-shipped after a catchup (catchups install "
            "fresh segment state, wiping the mirrored lease)")
        self._m_abandoned = registry.counter(
            "replication.abandoned",
            "queued records explicitly abandoned (promotion under a "
            "backlog that would not drain)")
        self._m_lag = registry.gauge(
            "replication.lag_versions",
            "primary minus backup version at the last acknowledged record")
        self._m_depth = registry.gauge(
            "replication.queue_depth", "records waiting to be shipped")
        if channel.reconnect_listener is None:
            channel.reconnect_listener = self._on_reconnect
        self._worker = threading.Thread(target=self._run,
                                        name=f"replication-{client_id}",
                                        daemon=True)
        self._worker.start()

    # -- producer side (called by the server, under its segment lock) --------

    def append_diff(self, segment: str, from_version: int, to_version: int,
                    encoded: bytes, timestamp: float,
                    ticket: bool = False) -> Optional[ReplicationTicket]:
        """Enqueue one committed diff.  With ``ticket=True`` (quorum-ack
        mode) returns a :class:`ReplicationTicket` the caller can wait
        on; otherwise returns None.

        ``encoded`` is the release's shared buffer (the same bytes the
        DiffCache retains and the WAL wrote); it is held by reference
        here and copied exactly once, into the stream message at ship
        time (counted in ``wire.bytes_copied``)."""
        handle = ReplicationTicket() if ticket else None
        self._enqueue(ReplicateAppendRequest(
            kind=REPL_DIFF, segment=segment, from_version=from_version,
            to_version=to_version, timestamp=timestamp, payload=encoded,
            client_id=self.client_id), handle)
        return handle

    def append_lease(self, segment: str, writer: str, expiry: float) -> None:
        self._enqueue(ReplicateAppendRequest(
            kind=REPL_LEASE, segment=segment, writer=writer,
            lease_expiry=expiry, client_id=self.client_id))

    def request_catchup(self, segment: str) -> None:
        """Schedule a full-state catchup for ``segment`` (used by chained
        backups to propagate a catchup they just installed, and by tests
        to heal a known gap)."""
        with self._cv:
            if self._stopped:
                return
            self._dirty.add(segment)
            self._probe_pending = True
            self._cv.notify_all()

    def _enqueue(self, record: ReplicateAppendRequest,
                 ticket: Optional[ReplicationTicket] = None) -> None:
        with self._cv:
            if self._stopped:
                if ticket is not None:
                    ticket.complete(False)
                return
            if len(self._queue) >= self._max_queue:
                self._evict_oldest_diff_locked()
            self._queue.append(_QueueItem(record, ticket))
            self._m_depth.set(len(self._queue))
            self._cv.notify_all()

    def _evict_oldest_diff_locked(self) -> None:
        """Make room by dropping the oldest *diff* record; caller holds
        ``self._cv``.

        Only diff records are evictable: the gap a dropped diff opens is
        healed by the nack→catchup path (and the probe the eviction
        schedules), but a dropped ``REPL_LEASE`` or ``REPL_PROMOTE`` is
        never re-shipped by catchup — which carries data only — so
        losing one silently corrupts failover.  Non-diff records are
        rare (a handful per segment), so exempting them keeps the queue
        effectively bounded.
        """
        for index, item in enumerate(self._queue):
            if item.record.kind != REPL_DIFF:
                continue
            del self._queue[index]
            self._m_overflow.inc()
            if item.ticket is not None:
                item.ticket.complete(False)
            if item.record.segment:
                # the channel is healthy (the queue is full because the
                # backup is slow, not dead): probe as soon as possible
                self._dirty.add(item.record.segment)
                self._probe_pending = True
            return
        # nothing evictable (the queue is all lease/promote records):
        # overflow briefly rather than corrupt failover state

    # -- worker side ----------------------------------------------------------

    def _on_reconnect(self) -> None:
        """The channel re-established a lost connection: gaps opened by
        in-flight losses can be healed now, without waiting for new
        client writes to trigger a nack."""
        with self._cv:
            if self._dirty:
                self._probe_pending = True
                self._cv.notify_all()

    def _run(self) -> None:
        while True:
            probe_segments: List[str] = []
            with self._cv:
                while True:
                    if self._probe_pending and not self._dirty:
                        # a probe was requested but everything healed in
                        # the meantime; consume the flag or flush() would
                        # wait on it forever
                        self._probe_pending = False
                        self._cv.notify_all()
                    if self._queue or self._stopped or \
                            (self._probe_pending and self._dirty):
                        break
                    self._cv.wait()
                if not self._queue and self._stopped:
                    return
                if self._queue:
                    item = self._queue.popleft()
                    self._m_depth.set(len(self._queue))
                else:
                    # queue idle and a probe is due: heal dirty segments
                    item = None
                    self._probe_pending = False
                    probe_segments = sorted(self._dirty)
                self._busy = True
            try:
                if item is not None:
                    self._ship(item.record, item.ticket)
                else:
                    for segment in probe_segments:
                        if self._catchup(segment):
                            self._m_probes.inc()
            except Exception:  # noqa: BLE001 — the stream must survive
                self._m_errors.inc()
                _log.exception("replication worker pass failed")
                if item is not None and item.ticket is not None:
                    item.ticket.complete(False)
            finally:
                with self._cv:
                    self._busy = False
                    self._cv.notify_all()

    def _ship(self, record: ReplicateAppendRequest,
              ticket: Optional[ReplicationTicket] = None) -> None:
        try:
            ack = self._request(record)
        except (TransportError, ServerError):
            self._m_errors.inc()
            if ticket is not None:
                ticket.complete(False)
            if record.kind == REPL_DIFF and record.segment:
                # the gap must not wait for the next client write: mark
                # the segment and let the reconnect probe heal it
                with self._cv:
                    self._dirty.add(record.segment)
            return
        self._m_appends.inc()
        if ack.ok:
            if record.kind == REPL_DIFF:
                self._m_lag.set(max(0, record.to_version - ack.version))
                self._mark_clean(record.segment)
            if ticket is not None:
                ticket.complete(True)
            self._wake_probe_if_dirty()
            return
        healed = self._catchup(record.segment)
        if ticket is not None:
            ticket.complete(healed)

    def _catchup(self, segment: str) -> bool:
        """Ship a full-state resync for ``segment``; True when the backup
        acked it (the segment is then clean and its lease re-asserted)."""
        try:
            version, payload, diffs = self.server.export_segment(segment)
        except InterWeaveError:
            self._m_errors.inc()
            _log.exception("cannot export %r for catchup", segment)
            return False
        try:
            ack = self._request(ReplicateCatchupRequest(
                segment=segment, version=version, payload=payload,
                diffs=diffs, client_id=self.client_id))
        except (TransportError, ServerError):
            self._m_errors.inc()
            with self._cv:
                self._dirty.add(segment)
            return False
        self._m_catchups.inc()
        if not ack.ok:
            return False
        self._m_lag.set(max(0, version - ack.version))
        self._mark_clean(segment)
        # A catchup installs a fresh segment entry at the backup, wiping
        # any mirrored lease — and if the record that opened this gap
        # was itself a dropped lease, nothing else would ever re-ship
        # it.  Re-assert the live lease from current state.
        self._reassert_lease(segment)
        return True

    def _reassert_lease(self, segment: str) -> None:
        lease_of = getattr(self.server, "lease_of", None)
        if lease_of is None:
            return
        writer, expiry = lease_of(segment)
        if not writer:
            return
        try:
            self._request(ReplicateAppendRequest(
                kind=REPL_LEASE, segment=segment, writer=writer,
                lease_expiry=expiry, client_id=self.client_id))
            self._m_lease_reasserts.inc()
        except (TransportError, ServerError):
            self._m_errors.inc()
            with self._cv:
                self._dirty.add(segment)

    def _mark_clean(self, segment: str) -> None:
        with self._cv:
            self._dirty.discard(segment)

    def _wake_probe_if_dirty(self) -> None:
        """A request just succeeded: the channel works, so any dirty
        segment can be healed right now."""
        with self._cv:
            if self._dirty:
                self._probe_pending = True
                self._cv.notify_all()

    def _request(self, message) -> ReplicateAck:
        raw = self.channel.request(encode_message(message))
        reply = decode_message(raw)
        if isinstance(reply, ErrorReply):
            raise ServerError(reply.message)
        if not isinstance(reply, ReplicateAck):
            raise ServerError(
                f"backup answered {type(reply).__name__}, not ReplicateAck")
        return reply

    # -- lifecycle ------------------------------------------------------------

    def dirty_segments(self) -> Set[str]:
        """Segments with a known gap at the backup (diagnostics)."""
        with self._cv:
            return set(self._dirty)

    def flush(self, timeout: float = 30.0) -> bool:
        """Block until every enqueued record has been shipped and every
        dirty segment probed; False if the stream did not settle in time
        (records still queued, or a gap the channel cannot heal)."""
        with self._cv:
            if self._dirty:
                self._probe_pending = True
                self._cv.notify_all()
            settled = self._cv.wait_for(
                lambda: not self._queue and not self._busy
                and not self._probe_pending, timeout)
            return settled and not self._dirty

    def abandon(self) -> int:
        """Drop every queued record and dirty mark *explicitly* — the
        promotion-under-backlog escape hatch, so a promotion never
        rebinds the directory while records it believes shipped are
        still sitting in this queue.  Returns how many records were
        abandoned; their tickets complete with ``ok=False``."""
        with self._cv:
            abandoned = len(self._queue)
            for item in self._queue:
                if item.ticket is not None:
                    item.ticket.complete(False)
            self._queue.clear()
            self._dirty.clear()
            self._probe_pending = False
            self._m_depth.set(0)
            self._cv.notify_all()
        if abandoned:
            self._m_abandoned.inc(abandoned)
            _log.warning("replication queue abandoned with %d records "
                         "(promotion under backlog)", abandoned)
        return abandoned

    def close(self, timeout: float = 5.0) -> None:
        """Drain outstanding records, then stop the worker."""
        self.flush(timeout)
        with self._cv:
            self._stopped = True
            for item in self._queue:
                if item.ticket is not None:
                    item.ticket.complete(False)
            self._cv.notify_all()
        self._worker.join(timeout)
