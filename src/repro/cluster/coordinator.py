"""Live segment migration between origins.

:class:`ClusterCoordinator` drives the move protocol the servers expose
as MigrateOut / MigrateIn / MigrateCommit / MigrateAbort, and keeps the
:class:`~repro.cluster.SegmentDirectory` honest about where the data is:

1. **Freeze** — MigrateOut asks the source to install the migration
   sentinel writer.  If a client holds the write lease the source
   refuses ("write-locked; migration deferred") and the coordinator
   backs off and retries; once frozen, writer acquires are denied
   (``granted=False``) and clients sit in their normal retry loop,
   so in-flight work stalls instead of failing.
2. **Transfer** — the frozen reply carries the full versioned state
   (the checkpoint codec) plus the segment's diff-cache entries, and
   MigrateIn installs both at the target.  Any failure here aborts:
   the source thaws and nothing has changed.
3. **Rebind** — the directory binds the segment to the target, bumping
   the binding generation.
4. **Commit** — MigrateCommit deletes the segment at the source and
   leaves a ``(target, generation)`` tombstone; every later request
   for the segment gets a RedirectReply that clients and relays chase
   through their resolvers.

The commit order matters: the directory is updated *before* the source
starts redirecting, so a client that chases a redirect always finds the
directory already pointing at the target (or newer).
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, Optional

from repro.cluster.directory import SegmentDirectory
from repro.errors import ServerError, TransportError
from repro.transport.base import Channel
from repro.util.clock import Clock, VirtualClock, WallClock
from repro.wire.messages import (
    REPL_PROMOTE,
    ErrorReply,
    Message,
    MigrateAbortRequest,
    MigrateAck,
    MigrateCommitRequest,
    MigrateInRequest,
    MigrateOutReply,
    MigrateOutRequest,
    ReplicateAck,
    ReplicateAppendRequest,
    decode_message,
    encode_message,
)

import time

_log = logging.getLogger(__name__)


class ClusterCoordinator:
    """Drives live migrations and ring rebalancing for one directory.

    The coordinator holds the directory *object* (they live in the same
    control-plane process) and talks to origins over the same connector
    the clients use.  Installing the coordinator also wires it up as the
    directory's ``migrator``, so a ``DIR_MIGRATE`` directory update sent
    over the wire lands here.
    """

    def __init__(self, directory: SegmentDirectory,
                 connector: Callable[[str, str], Channel],
                 client_id: str = "!cluster",
                 clock: Optional[Clock] = None,
                 freeze_retry_interval: float = 0.005,
                 freeze_retry_limit: int = 400):
        self.directory = directory
        self.connector = connector
        self.client_id = client_id
        self.clock = clock or WallClock()
        self.freeze_retry_interval = freeze_retry_interval
        self.freeze_retry_limit = freeze_retry_limit
        self._channels: Dict[str, Channel] = {}
        directory.migrator = self.migrate

    # -- migration ----------------------------------------------------------------

    def migrate(self, segment: str, target: str, pin: bool = True) -> int:
        """Move ``segment`` to ``target`` live; returns the new binding
        generation (the current one when it is already there)."""
        source, generation, _pinned = self.directory.lookup(segment)
        if target not in self.directory.ring:
            raise ServerError(f"unknown origin {target!r}")
        if source == target:
            return generation

        out = self._freeze(source, segment)

        try:
            self._request(target, MigrateInRequest(
                segment=segment, payload=out.payload, diffs=out.diffs,
                client_id=self.client_id))
        except (ServerError, TransportError):
            self._thaw(source, segment)
            raise

        generation = self.directory.bind(segment, target, pinned=pin)
        self._request(source, MigrateCommitRequest(
            segment=segment, target=target, generation=generation,
            client_id=self.client_id))
        self.directory.record_migration()
        return generation

    def rebalance(self) -> int:
        """Move every unpinned segment the ring now places elsewhere;
        returns how many segments moved."""
        moved = 0
        for segment, _current, target in self.directory.plan_rebalance():
            self.migrate(segment, target, pin=False)
            moved += 1
        return moved

    def remove_origin(self, origin: str) -> int:
        """Drain ``origin`` (migrate its segments to their ring homes
        with the origin already excluded) and drop it from the ring;
        returns how many segments moved off it."""
        self.directory.remove_origin(origin)
        moved = 0
        try:
            for segment in self.directory.bindings_on(origin):
                target = self.directory.ring.lookup(segment)
                self.migrate(segment, target, pin=False)
                moved += 1
        except Exception:
            # Put the origin back so its remaining segments stay
            # reachable through the ring-consistent directory.
            self.directory.add_origin(origin)
            raise
        return moved

    def promote_backup(self, failed: str, backup: str, sender=None,
                       drain_timeout: float = 5.0) -> int:
        """Fail ``failed`` over to its replicating ``backup``.

        When the primary process is still alive (planned failover, or a
        machine partition where only the serving port died), pass its
        :class:`~repro.replication.ReplicationSender` as ``sender``: the
        coordinator flushes what the backup still lacks into it *before*
        the directory rebinds, so writes the primary already acked
        cannot be missing from the promoted copy.  If that backlog cannot
        drain within ``drain_timeout`` (dead channel, wedged backup) the
        stream is explicitly abandoned — loudly — rather than left racing
        the promotion: a record shipped after REPL_PROMOTE would be
        applied by a *serving* origin whose clients are already writing
        to those segments.

        Tells the backup to start serving (REPL_PROMOTE), adds it to the
        ring, rebinds every segment bound to the failed origin — clients
        and relays holding stale bindings re-resolve through the usual
        redirect/re-resolve path — and finally drops the failed origin
        from the ring.  Returns the directory generation after the
        rebinds.  No data moves: the backup already holds it.
        """
        if sender is not None:
            if sender.flush(timeout=drain_timeout):
                _log.info("promotion of %r: replication backlog drained "
                          "into %r", failed, backup)
            else:
                abandoned = sender.abandon()
                _log.warning(
                    "promotion of %r: replication backlog did not drain "
                    "within %.1fs; abandoned %d unacknowledged version(s) "
                    "— the promoted backup %r may be missing the newest "
                    "acked writes", failed, drain_timeout, abandoned, backup)
        self._request(backup, ReplicateAppendRequest(
            kind=REPL_PROMOTE, client_id=self.client_id))
        if backup not in self.directory.ring:
            self.directory.add_origin(backup)
        generation = self.directory.generation
        for segment in self.directory.bindings_on(failed):
            generation = self.directory.bind(segment, backup, pinned=True)
        if failed in self.directory.ring:
            self.directory.remove_origin(failed)
        stale = self._channels.pop(failed, None)
        if stale is not None:
            stale.close()
        return generation

    def close(self) -> None:
        channels, self._channels = dict(self._channels), {}
        for channel in channels.values():
            channel.close()

    # -- protocol steps -----------------------------------------------------------

    def _freeze(self, source: str, segment: str) -> MigrateOutReply:
        request = MigrateOutRequest(segment=segment, client_id=self.client_id)
        for _attempt in range(max(1, self.freeze_retry_limit)):
            try:
                reply = self._request(source, request)
            except ServerError as exc:
                if "write-locked" not in str(exc):
                    self._thaw(source, segment)
                    raise
                # the refusal also flagged the segment migration-pending
                # at the source, so the writer cannot re-acquire and the
                # next attempt wins the race
                self._backoff()
                continue
            assert isinstance(reply, MigrateOutReply)
            return reply
        # giving up must unwedge the writers the pending flag is denying
        self._thaw(source, segment)
        raise ServerError(
            f"segment {segment!r} stayed write-locked on {source!r}; "
            f"gave up freezing after {self.freeze_retry_limit} attempts")

    def _thaw(self, source: str, segment: str) -> None:
        try:
            self._request(source, MigrateAbortRequest(
                segment=segment, client_id=self.client_id))
        except (ServerError, TransportError):
            pass  # the lease sentinel has no expiry; surface the original error

    # -- plumbing -----------------------------------------------------------------

    def _backoff(self) -> None:
        if isinstance(self.clock, VirtualClock):
            self.clock.advance(self.freeze_retry_interval)
            # advancing virtual time never blocks, so without a real
            # yield the retry loop can burn every attempt inside one GIL
            # slice while the lease holder sits preempted mid-release
            time.sleep(0.0002)
        else:
            time.sleep(self.freeze_retry_interval)

    def _channel_for(self, origin: str) -> Channel:
        channel = self._channels.get(origin)
        if channel is None:
            channel = self.connector(origin, self.client_id)
            self._channels[origin] = channel
        return channel

    def _request(self, origin: str, request: Message) -> Message:
        raw = self._channel_for(origin).request(encode_message(request))
        reply = decode_message(raw)
        if isinstance(reply, ErrorReply):
            raise ServerError(reply.message)
        if isinstance(reply, MigrateAck) and not reply.ok:
            raise ServerError(
                f"origin {origin!r} rejected {type(request).__name__}")
        if isinstance(reply, ReplicateAck) and not reply.ok:
            raise ServerError(
                f"origin {origin!r} nacked {type(request).__name__}")
        return reply
