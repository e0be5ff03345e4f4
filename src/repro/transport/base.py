"""Transport abstractions.

A :class:`Channel` carries one client's requests to one server and returns
replies; bytes in, bytes out.  Whatever the concrete transport (in-process
or TCP), **every message crosses a real serialization boundary**, so the
byte counts recorded in :class:`TransportStats` are genuine wire sizes —
the numbers Figure 7 of the paper is about.

Server-initiated traffic (the notification half of the adaptive
polling/notification protocol) flows through a :class:`NotificationSink`;
transports that cannot push (plain request/reply TCP here) simply report
``can_push = False`` and clients fall back to polling.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

_log = logging.getLogger(__name__)

from repro.errors import TransportTimeout, WireFormatError
from repro.obs.metrics import get_registry


class ReplyFuture:
    """Completion handle for one pipelined request.

    Returned by :meth:`Channel.submit`.  ``result()`` blocks until the
    reply arrives (or the request fails) and then returns the reply
    bytes or raises the typed transport error — the same contract as
    :meth:`Channel.request`, deferred.
    """

    __slots__ = ("_event", "_reply", "_error")

    def __init__(self):
        self._event = threading.Event()
        self._reply: Optional[bytes] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def resolve(self, reply: bytes) -> None:
        self._reply = reply
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def result(self, timeout: Optional[float] = None) -> bytes:
        if not self._event.wait(timeout):
            raise TransportTimeout(
                f"no reply within {timeout:g}s" if timeout is not None
                else "no reply")
        if self._error is not None:
            raise self._error
        return self._reply


class TransportStats:
    """Byte and message accounting for one channel (or one server)."""

    __slots__ = ("bytes_sent", "bytes_received", "requests", "notifications")

    def __init__(self):
        self.bytes_sent = 0
        self.bytes_received = 0
        self.requests = 0
        self.notifications = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received

    def reset(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.requests = 0
        self.notifications = 0

    def __repr__(self):
        return (f"TransportStats(sent={self.bytes_sent}, received={self.bytes_received}, "
                f"requests={self.requests})")


class Channel:
    """A request/reply pipe from one client to one server."""

    #: whether the server can push notifications back over this transport
    can_push = False

    def __init__(self):
        self.stats = TransportStats()
        #: invoked (with no arguments) after the channel re-establishes a
        #: lost connection; clients use it to reset per-segment polling
        #: state, since notifications may have been missed while down
        self.reconnect_listener: Optional[Callable[[], None]] = None
        metrics = get_registry()
        self._m_bytes_sent = metrics.counter(
            "transport.bytes_sent", "request bytes sent by client channels")
        self._m_bytes_received = metrics.counter(
            "transport.bytes_received", "reply/push bytes received by channels")
        self._m_requests = metrics.counter(
            "transport.requests", "request/reply round trips")
        self._m_notifications = metrics.counter(
            "transport.notifications", "server pushes delivered to channels")
        self._m_rtt = metrics.histogram(
            "transport.request_seconds", help="request round-trip latency")

    def _record_request(self, sent: int, received: int,
                        seconds: Optional[float] = None) -> None:
        """Account one round trip in the channel's stats and the registry."""
        self.stats.requests += 1
        self.stats.bytes_sent += sent
        self.stats.bytes_received += received
        self._m_requests.inc()
        self._m_bytes_sent.inc(sent)
        self._m_bytes_received.inc(received)
        if seconds is not None:
            self._m_rtt.observe(seconds)

    def _record_push(self, received: int) -> None:
        """Account one server push delivered over this channel."""
        self.stats.notifications += 1
        self.stats.bytes_received += received
        self._m_notifications.inc()
        self._m_bytes_received.inc(received)

    def request(self, data: bytes) -> bytes:
        raise NotImplementedError

    def submit(self, data: bytes) -> ReplyFuture:
        """Start one request and return a :class:`ReplyFuture` for it.

        Pipelining hook: transports that can keep several requests in
        flight on one connection (:class:`~repro.transport.TCPChannel`)
        override this to return before the reply arrives.  The default
        completes synchronously via :meth:`request`, so every channel —
        in-process, wrappers — accepts pipelined callers with unchanged
        semantics (depth 1).
        """
        future = ReplyFuture()
        try:
            future.resolve(self.request(data))
        except Exception as exc:  # noqa: BLE001 — deliver through the future
            future.fail(exc)
        return future

    def set_notification_handler(self, handler: Callable[[bytes], None]) -> None:
        """Install the callback for pushed messages (push transports only)."""
        raise NotImplementedError(f"{type(self).__name__} cannot push")

    def health(self) -> dict:
        """A point-in-time introspection snapshot of this channel.

        Transports extend the base dict with their own fields (broken
        flag, reconnect counts, endpoint); ``client.session_state()``
        surfaces it per server.
        """
        return {
            "transport": type(self).__name__,
            "can_push": self.can_push,
            "requests": self.stats.requests,
            "notifications": self.stats.notifications,
            "bytes_sent": self.stats.bytes_sent,
            "bytes_received": self.stats.bytes_received,
        }

    def close(self) -> None:
        pass


class NotificationSink:
    """Server-side interface for pushing a message to a connected client."""

    def push(self, client_id: str, data: bytes) -> bool:
        """Deliver ``data`` to ``client_id``; False if unreachable."""
        raise NotImplementedError


class NullSink(NotificationSink):
    """A sink for deployments with no push path: drops everything."""

    def push(self, client_id: str, data: bytes) -> bool:
        return False


class Dispatcher:
    """Server-side interface: handle one encoded request, return the reply.

    Contract: ``dispatch`` must be thread-safe and must always return an
    encoded reply — transports call it concurrently (the TCP server from
    its core threads and dispatch pool, and several in-process clients
    may share a hub from different threads), and a raised exception would
    leak straight into the client's ``request()`` call (in-process)
    instead of producing a typed ``ErrorReply`` (TCP answers it with one).
    Implementations answer malformed or unprocessable requests with an
    encoded ``ErrorReply`` rather than raising.
    """

    def dispatch(self, client_id: str, data: bytes) -> bytes:
        raise NotImplementedError


class _ReplySession:
    """One client channel's request-deduplication state.

    ``replies`` retains the last ``window`` dispatched replies (keyed by
    sequence number), ``pending`` tracks dispatches currently running,
    and ``horizon`` is the highest sequence number ever evicted from
    ``replies`` — anything at or below it may have been forgotten, so a
    repeat is rejected as stale rather than silently re-dispatched.
    """

    __slots__ = ("lock", "replies", "pending", "horizon", "last_seq")

    def __init__(self):
        self.lock = threading.Lock()
        self.replies: "OrderedDict[int, bytes]" = OrderedDict()
        self.pending: Dict[int, threading.Event] = {}
        self.horizon = 0
        self.last_seq = 0

    def busy(self) -> bool:
        """Is a dispatch for this session running right now?"""
        return bool(self.pending) or self.lock.locked()


class ReplyCache:
    """Per-client reply window: at-most-once dispatch under retries.

    Clients stamp every request with a monotonically increasing sequence
    number and reuse the number when they retry.  The cache remembers,
    per session, the replies to the last ``window`` sequence numbers, so
    a retry of an already-processed request (reply lost in flight,
    timeout after the server finished) returns the cached reply instead
    of re-executing a non-idempotent operation such as a write release.

    Pipelining (see ``docs/PROTOCOL.md`` §6) shapes the semantics:

    - sequence numbers above the retention horizon that have not been
      seen yet are dispatched **concurrently and in any order** — a
      TCP channel keeps many in flight at once, and the executor
      may start them out of order;
    - a retry that races its own original (the original is still
      dispatching) waits for that dispatch and replays its reply rather
      than double-dispatching;
    - only sequence numbers at or below the horizon — evicted from the
      window, necessarily acknowledged long ago — are rejected as stale.

    Sessions are keyed by ``(client_id, nonce)``: each channel draws a
    random session nonce at construction, so a fresh channel reusing a
    client id (a CLI tool run twice, a reconnect wrapper recreating its
    inner channel) starts its own sequence space instead of colliding
    with the previous channel's — without the nonce the new channel's
    restarted sequence would either replay a stale cached reply or be
    rejected outright.

    A sequence number of 0 opts out of deduplication (used by one-shot
    tools that never retry).  The cache is the durable half of a client
    session: a server that restarts with a fresh cache loses exactly-once
    semantics for retries that straddle the restart, so deployments that
    restart transports in place should carry the cache over (see
    ``docs/ROBUSTNESS.md``).  Clients must keep their in-flight window
    smaller than ``window`` or retries can fall off the retention edge.
    """

    def __init__(self, max_clients: int = 1024, window: int = 256):
        if max_clients < 1:
            raise ValueError("max_clients must be >= 1")
        if window < 1:
            raise ValueError("window must be >= 1")
        self._max_clients = max_clients
        self._window = window
        self._lock = threading.Lock()
        self._sessions: "OrderedDict[Tuple[str, int], _ReplySession]" = OrderedDict()
        metrics = get_registry()
        self._m_hits = metrics.counter(
            "transport.server.dedup_hits",
            "retried requests answered from the reply cache")
        self._m_evictions = metrics.counter(
            "transport.server.dedup_evictions",
            "dedup sessions evicted by the LRU bound (at-most-once lost)")

    def _session(self, client_id: str, nonce: int) -> _ReplySession:
        key = (client_id, nonce)
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                session = _ReplySession()
                self._sessions[key] = session
                self._evict_locked()
            else:
                self._sessions.move_to_end(key)
            return session

    def _evict_locked(self) -> None:
        """Enforce the LRU bound; caller holds ``self._lock``.

        Evicting a session forfeits its at-most-once guarantee — a later
        retry from that client will re-dispatch — so the loss is counted
        and logged rather than silent, and a session with a dispatch
        running right now is never evicted.
        """
        while len(self._sessions) > self._max_clients:
            for key, session in self._sessions.items():
                if not session.busy():
                    del self._sessions[key]
                    self._m_evictions.inc()
                    _log.warning(
                        "reply-cache session %r evicted (LRU bound %d): "
                        "a retry from this client will re-dispatch",
                        key, self._max_clients)
                    break
            else:
                return  # every session is mid-dispatch; overflow briefly

    def execute(self, client_id: str, seq: int,
                dispatch: Callable[[], bytes], nonce: int = 0) -> bytes:
        """Run ``dispatch`` once per (client, nonce, seq), replaying
        cached replies for retries within the same session.

        Distinct in-window sequence numbers dispatch concurrently (no
        per-session serialization): pipelined channels rely on it.  A
        retry of a sequence number whose original dispatch is still
        running blocks until that dispatch finishes and shares its
        reply.  Deadlock-freedom with a bounded dispatch pool rests on
        FIFO task start order: a duplicate is always submitted after its
        original, so by the time the duplicate runs its original is
        either finished or running on another worker — a blocked waiter
        therefore always has a progressing partner.
        """
        if seq == 0:
            return dispatch()
        session = self._session(client_id, nonce)
        while True:
            with session.lock:
                cached = session.replies.get(seq)
                if cached is not None:
                    self._m_hits.inc()
                    return cached
                racing = session.pending.get(seq)
                if racing is None:
                    if seq <= session.horizon:
                        raise WireFormatError(
                            f"stale sequence number {seq} from {client_id!r} "
                            f"(retention horizon {session.horizon}, newest "
                            f"seen {session.last_seq})")
                    event = threading.Event()
                    session.pending[seq] = event
                    break
            # a retry raced its original mid-dispatch: wait for the
            # original and replay its reply (loop re-checks the cache)
            racing.wait()
        try:
            reply = dispatch()
        except BaseException:
            # a failed dispatch is not cached (the transport answers the
            # client with an ErrorReply); a retry may re-dispatch
            with session.lock:
                session.pending.pop(seq, None)
            event.set()
            raise
        with session.lock:
            session.pending.pop(seq, None)
            session.replies[seq] = reply
            if seq > session.last_seq:
                session.last_seq = seq
            while len(session.replies) > self._window:
                evicted, _ = session.replies.popitem(last=False)
                if evicted > session.horizon:
                    session.horizon = evicted
        event.set()
        return reply

    def __len__(self):
        with self._lock:
            return len(self._sessions)


class NetworkModel:
    """An optional latency/bandwidth cost model for simulated WAN links.

    ``transfer_time(nbytes)`` returns seconds of simulated time a message
    of that size occupies the link; channels with a virtual clock advance
    it by that much, letting experiments reason about slow Internet links
    without real sleeps.
    """

    def __init__(self, latency: float = 0.0, bandwidth: Optional[float] = None):
        if latency < 0:
            raise ValueError("latency must be >= 0")
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError("bandwidth must be positive (bytes/second)")
        self.latency = latency
        self.bandwidth = bandwidth

    def transfer_time(self, nbytes: int) -> float:
        cost = self.latency
        if self.bandwidth is not None:
            cost += nbytes / self.bandwidth
        return cost
