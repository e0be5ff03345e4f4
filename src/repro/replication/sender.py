"""The primary's side of the replication stream.

:class:`ReplicationSender` ships what the replica lacks, read from the
server's own state.  Per segment it keeps the version the replica last
acknowledged (its *cursor*) and the lease holder the replica mirrors.
The server's commit paths only *announce* "segment S changed, and its
diffs up to version V are in the diff cache", under the segment write
lock and without blocking on the link.  A worker thread then ships each
single-version diff from the cursor up to V, with the bytes from the
server's diff cache and the commit time from the segment's version
history, and then the current lease if the replica mirrors another.
The sender holds no diff payload between ships.

Replication is *asynchronous* by default: the primary's WAL guards
against a primary crash; the backup bounds recovery time, not data
loss.  In quorum-ack mode (``InterWeaveServer(quorum_ack=True)``) a
release waits, bounded, for the cursor to reach its version
(:meth:`ReplicationSender.wait_acked`).

A diff that left the cache, a nack and an unknown cursor each fall back
to one ``ReplicateCatchupRequest`` (checkpoint image + cached diffs).
The cursor is unknown for a new sender and after a chained backup
installs a catchup, and it is never guessed: an upstream that restarted
behind its backup re-creates later versions with other bytes, which a
guessed ``from_version`` could apply on the backup's *divergent* copy.
A catchup wipes the replica's lease; the lease comparison after it
re-ships a live one.  A transport failure leaves the cursor where the
last ack put it (an error reply makes it unknown), and the next announce
or :meth:`~ReplicationSender.flush` retries.
"""

from __future__ import annotations

import logging
import threading
from collections import defaultdict
from typing import Dict, Optional, Set, Tuple

from repro.errors import ServerError, TransportError
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

_NO_LEASE = ("", 0.0)


class _Replica:
    """One segment at the replica: the newest announced version, the
    acknowledged one (None until a catchup sets it), the mirrored
    ``(writer, expiry)`` and the highest target a pass failed to reach."""

    __slots__ = ("target", "acked", "lease", "failed")

    def __init__(self):
        self.target = 0
        self.acked: Optional[int] = None
        self.lease: Tuple[str, float] = _NO_LEASE
        self.failed = -1


class ReplicationSender:
    """Ships ``server``'s committed state to the replica behind
    ``channel``.  Attach with ``server.attach_replicator(sender)``.  The
    server may itself be a backup: a backup with a sender forwards what
    it applies, forming a chain (primary → backup → backup) that
    promotion can climb."""

    def __init__(self, server, channel: Channel,
                 client_id: str = "!replication",
                 metrics: Optional[MetricsRegistry] = None):
        self.server = server
        self.channel = channel
        self.client_id = client_id
        self._cv = threading.Condition()
        self._replicas: Dict[str, _Replica] = defaultdict(_Replica)
        #: segments the replica may lack something of
        self._behind: Set[str] = set()
        self._wake = False
        self._busy = False
        self._stopped = False
        registry = metrics or get_registry()
        self._m_appends = registry.counter(
            "replication.appends", "records shipped to the backup")
        self._m_catchups = registry.counter(
            "replication.catchups", "full-segment catchups shipped")
        self._m_errors = registry.counter(
            "replication.errors", "replication requests that failed (the "
            "segment is retried from its cursor)")
        self._m_abandoned = registry.counter(
            "replication.abandoned", "versions the backup never acked when "
            "a promotion abandoned the stream")
        self._m_lag = registry.gauge(
            "replication.lag_versions",
            "primary minus backup version at the last acknowledged record")
        self._worker = threading.Thread(target=self._run,
                                        name=f"replication-{client_id}",
                                        daemon=True)
        self._worker.start()

    # -- producer side (called by the server, under its segment lock) --------

    def announce(self, segment: str, version: int,
                 resync: bool = False) -> None:
        """``segment`` changed (a commit or a lease transition) and its
        diffs up to ``version`` are in the server's diff cache.
        ``resync=True`` forgets the replica's cursor: the server replaced
        the segment wholesale (a chained backup installed a catchup)."""
        with self._cv:
            if self._stopped:
                return
            replica = self._replicas[segment]
            replica.target = version
            if resync or (replica.acked or 0) > version:
                replica.acked = None
            self._behind.add(segment)
            self._wake = True
            self._cv.notify_all()

    def wait_acked(self, segment: str, version: int, timeout: float) -> bool:
        """Block until the replica acknowledged ``version`` of
        ``segment``; False once a pass failed to reach it, the stream
        was abandoned, or ``timeout`` seconds passed."""
        with self._cv:
            replica = self._replicas.get(segment)
            if replica is None:
                return False
            self._cv.wait_for(
                lambda: (replica.acked or 0) >= version
                or replica.failed >= version or self._stopped, timeout)
            return (replica.acked or 0) >= version

    # -- worker side ----------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cv:
                self._cv.wait_for(lambda: self._wake or self._stopped)
                if self._stopped:
                    return
                self._wake = False
                segments = sorted(self._behind)
                self._behind.clear()
                self._busy = True
            failed = []
            for segment in segments:
                try:
                    if not self._sync(segment):
                        failed.append(segment)
                except Exception as exc:  # noqa: BLE001 — keep shipping
                    self._m_errors.inc()
                    failed.append(segment)
                    if not isinstance(exc, TransportError):
                        # an error reply or a local fault: what the replica
                        # holds is unknown, so the next pass catches it up
                        _log.exception("replication of %r failed", segment)
                        with self._cv:
                            self._replicas[segment].acked = None
            with self._cv:
                self._behind.update(failed)
                for replica in map(self._replicas.get, failed):
                    replica.failed = replica.target
                self._busy = False
                self._cv.notify_all()

    def _sync(self, segment: str) -> bool:
        """Ship what the replica lacks of ``segment``: the diffs from its
        cursor to the announced version, then the current lease.  False
        when the stream stopped, a catchup failed, or the replica refused
        a record right after one."""
        replica = self._replicas[segment]
        caught_up = False
        while True:
            with self._cv:
                if self._stopped:
                    return False
                target, acked = replica.target, replica.acked
            if acked == target:
                lease = self.server.lease_of(segment)
                if lease == replica.lease:
                    return True
                if self._append(kind=REPL_LEASE, segment=segment,
                                writer=lease[0], lease_expiry=lease[1]).ok:
                    replica.lease = lease
                    return True
            else:
                record = None if acked is None else \
                    self.server.replication_record(segment, acked + 1)
                if record is None:
                    # the record left the cache, or the cursor is unknown
                    if not self._catchup(segment, replica):
                        return False
                    caught_up = True
                    continue
                ack = self._append(kind=REPL_DIFF, segment=segment,
                                   from_version=acked, to_version=acked + 1,
                                   payload=record[0], timestamp=record[1])
                if ack.ok:
                    self._advance(replica, acked + 1, ack)
                    continue
            # a nack: only a catchup can say what the replica holds now,
            # unless one just did and the replica still refuses
            if caught_up:
                return False
            with self._cv:
                replica.acked = None

    def _catchup(self, segment: str, replica: _Replica) -> bool:
        """Ship a full-state resync; True once the replica acked it."""
        version, payload, diffs = self.server.export_segment(segment)
        ack = self._request(ReplicateCatchupRequest(
            segment=segment, version=version, payload=payload,
            diffs=diffs, client_id=self.client_id))
        self._m_catchups.inc()
        if ack.ok:
            self._advance(replica, version, ack)
        return ack.ok

    def _advance(self, replica: _Replica, acked: int,
                 ack: ReplicateAck) -> None:
        replica.lease = _NO_LEASE  # a diff or a catchup frees the lease
        with self._cv:
            replica.acked = acked
            replica.target = max(replica.target, acked)
            self._m_lag.set(max(0, replica.target - ack.version))
            self._cv.notify_all()

    def _append(self, **fields) -> ReplicateAck:
        ack = self._request(ReplicateAppendRequest(client_id=self.client_id,
                                                   **fields))
        self._m_appends.inc()
        return ack

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

    def flush(self, timeout: float = 30.0) -> bool:
        """Run a pass and wait for it; True when the replica then holds
        every announced version and mirrors every lease.  After
        :meth:`abandon` it only waits out the request in flight."""
        with self._cv:
            self._wake = self._wake or bool(self._behind)
            self._cv.notify_all()
            settled = self._cv.wait_for(
                lambda: not self._busy and (self._stopped or not self._wake),
                timeout)
            return settled and not self._stopped and not self._behind

    def abandon(self) -> int:
        """Stop shipping for good — the promotion-under-backlog escape
        hatch, so nothing reaches a promoted backup after its directory
        rebind.  Quorum waits return False at once.  Returns how many
        announced versions the replica never acknowledged."""
        with self._cv:
            abandoned = sum(max(0, replica.target - (replica.acked or 0))
                            for replica in self._replicas.values())
            self._stopped = True
            self._cv.notify_all()
        if abandoned:
            self._m_abandoned.inc(abandoned)
            _log.warning("replication stream abandoned %d unacknowledged "
                         "version(s) (promotion under backlog)", abandoned)
        return abandoned

    def close(self, timeout: float = 5.0) -> None:
        """Ship what the replica lacks (bounded), then stop the worker."""
        self.flush(timeout)
        with self._cv:
            self._stopped = True
            self._cv.notify_all()
        self._worker.join(timeout)
