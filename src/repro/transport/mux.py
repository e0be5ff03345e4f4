"""Connection multiplexing: many requests in flight on one socket.

The serial :class:`~repro.transport.TCPChannel` admits one outstanding
request per connection — every RPC pays a full round trip before the
next can start, so a client touching many segments leaves the PR 3
per-segment server locks idle.  This module pipelines:

- :class:`_MuxCore` owns one socket and a reader thread.  Requests are
  registered in per-request *wait slots* keyed by the ``(nonce, seq)``
  pair the reply frame echoes, so replies are matched to waiters by
  identity, not arrival order.  A submitter sends its own frame through
  the send-combining section the server uses (``tcp._SendCombiner``):
  frames that pile up behind a send leave in one gathered ``sendmsg``
  (a lone request still leaves at once — ``TCP_NODELAY`` stays set).
- :class:`MultiplexingChannel` is a virtual channel over a core: its own
  client id, session nonce, and sequence space, so the server's
  :class:`~repro.transport.ReplyCache` and lock tables see it as an
  ordinary client.  Many channels (application threads, the poller, a
  whole process of clients) share one core — and therefore one socket.
- :class:`MuxConnectionPool` hands out virtual channels over one shared
  core per server; its :meth:`~MuxConnectionPool.connect` method slots
  straight into ``InterWeaveClient(connector=...)``.

Fault tolerance composes with the PR 2 machinery: after a reconnect the
core re-sends only the unacknowledged in-flight window (the slots still
waiting), relying on the server's reply cache to deduplicate anything
that was actually processed; a per-request timeout re-sends that one
frame without abandoning the socket, because a late original reply is
matched by sequence number and the extra one is counted as an orphan
and dropped.  Contrast the serial channel, which must burn its socket
on every timeout precisely because it cannot tell replies apart.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import (
    RetryExhausted,
    TransportDisconnected,
    TransportError,
    TransportTimeout,
)
from repro.obs.metrics import get_registry
from repro.transport.base import Channel, ReplyFuture
from repro.transport.retry import RetryPolicy, is_retryable
from repro.transport.tcp import (
    _recv_frame,
    _SendCombiner,
    _sendmsg_all,
    request_frame_buffers,
    split_reply_frame,
)


class _Slot:
    """One in-flight request: its wire frame and the waiter's future."""

    __slots__ = ("key", "buffers", "future", "sent", "dead")

    def __init__(self, key: Tuple[int, int], buffers: Tuple[bytes, ...]):
        self.key = key
        self.buffers = buffers
        self.future = ReplyFuture()
        #: reached the wire at least once (reconnect re-sends only these;
        #: never-sent slots are still queued and go out normally)
        self.sent = False
        #: abandoned by its waiter; the send section skips it
        self.dead = False


class _MuxCore:
    """The shared half of a multiplexed connection: one socket, one
    reader thread, one send-combining section, and the wait-slot table.

    The reader owns the socket's lifecycle.  On a socket error (the
    reader's or a sender's) the socket is invalidated; with a
    :class:`RetryPolicy` the reader reconnects with backoff and re-sends
    the in-flight window, failing all waiters with
    :class:`~repro.errors.RetryExhausted` if one cycle's budget runs
    out (then keeps healing in the background); without a policy it
    fails all waiters immediately and reconnects lazily when the next
    request creates demand.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0,
                 retry: Optional[RetryPolicy] = None):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._retry = retry
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._slots: Dict[Tuple[int, int], _Slot] = {}
        self._out = _SendCombiner(self._send_frames)
        self._sock: Optional[socket.socket] = None
        self._closed = False
        self._close_event = threading.Event()
        self._listeners: List[Callable[[], None]] = []
        self._channels = 0
        self.reconnects = 0
        self.orphans = 0
        self.last_error: Optional[str] = None
        metrics = get_registry()
        self._m_inflight = metrics.gauge(
            "transport.mux.inflight",
            "requests awaiting replies on multiplexed connections")
        self._m_batch = metrics.histogram(
            "transport.mux.batch_frames",
            help="request frames per sendmsg")
        self._m_queue_wait = metrics.histogram(
            "transport.mux.send_queue_wait_seconds",
            help="time requests waited behind another send or a reconnect")
        self._m_orphans = metrics.counter(
            "transport.mux.orphan_replies",
            "replies that arrived after their waiter gave up (or duplicates)")
        self._m_reconnects = metrics.counter(
            "transport.reconnects", "channel connections re-established")
        self._m_reconnect_seconds = metrics.histogram(
            "transport.reconnect_seconds",
            help="time spent re-establishing lost connections")
        self._sock = self._connect()  # eager: construction surfaces bad endpoints
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-mux-reader", daemon=True)
        self._reader.start()

    # -- connection management ------------------------------------------------

    def _connect(self) -> socket.socket:
        try:
            sock = socket.create_connection((self._host, self._port),
                                            timeout=self._timeout)
        except socket.timeout as exc:
            raise TransportTimeout(
                f"connect to {self._host}:{self._port} timed out after "
                f"{self._timeout:g}s") from exc
        except OSError as exc:
            raise TransportDisconnected(
                f"connect to {self._host}:{self._port} failed: {exc}") from exc
        # blocking socket: the reader sits in recv for as long as replies
        # are outstanding; per-request deadlines live in the waiters
        # (create_connection's timeout would otherwise stick to the socket)
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _invalidate(self, sock: socket.socket, error: BaseException) -> bool:
        """Drop ``sock`` if it is still the current socket.

        Returns True if this call performed the invalidation (the
        caller observed the failure first); False if another thread
        already replaced or dropped it.
        """
        with self._lock:
            if self._sock is not sock:
                return False
            self._sock = None
            self.last_error = str(error)
        try:
            sock.close()
        except OSError:
            pass
        return True

    def _fail_pending(self, error: BaseException) -> None:
        with self._lock:
            slots = [s for s in self._slots.values() if not s.dead]
            self._slots.clear()
            self._m_inflight.set(0)
        for slot in slots:
            slot.future.fail(error)

    def _reconnect(self) -> None:
        """Reader-owned: re-establish the socket and send what waited for
        it plus the unacknowledged in-flight window (slots that reached the
        wire; the server's reply cache deduplicates anything it ran)."""
        failures = 0
        while not self._closed:
            started = time.perf_counter()
            try:
                sock = self._connect()
            except (TransportTimeout, TransportDisconnected) as error:
                self.last_error = str(error)
                if self._retry is None:
                    # lazy mode: fail the waiters that created the demand
                    # and wait for the next request to try again
                    self._fail_pending(error)
                    return
                delay = self._retry.delay_for(failures)
                if delay is None:
                    # this cycle's budget is spent: unblock the waiters,
                    # then keep healing so later requests find a socket
                    self._fail_pending(RetryExhausted(
                        f"reconnect to {self._host}:{self._port} failed after "
                        f"{failures + 1} attempts: {error}"))
                    failures = 0
                    continue
                failures += 1
                if delay > 0 and self._close_event.wait(delay):
                    return
                continue
            with self._lock:
                self._sock = sock
                window = sorted(
                    (s for s in self._slots.values() if s.sent and not s.dead),
                    key=lambda s: s.key[1])
            self.reconnects += 1
            self._m_reconnects.inc()
            self._m_reconnect_seconds.observe(time.perf_counter() - started)
            for listener in list(self._listeners):
                listener()
            # through the send section: a submitter may already be sending
            # on the new socket (if it dies at once, the read loop is back)
            now = time.perf_counter()
            self._out.push(*[(slot, now) for slot in window])
            return

    def break_connection(self) -> None:
        """Fault-injection hook: sever the socket under the reader."""
        with self._lock:
            sock = self._sock
        if sock is not None:
            self._invalidate(sock, TransportDisconnected("connection broken"))

    # -- submit / cancel ------------------------------------------------------

    def submit(self, buffers: Tuple[bytes, ...],
               key: Tuple[int, int]) -> ReplyFuture:
        """Register a wait slot for (nonce, seq) and send its frame."""
        slot = _Slot(key, buffers)
        with self._lock:
            if self._closed:
                raise TransportError("channel is closed")
            self._slots[key] = slot
            self._m_inflight.set(len(self._slots))
            if self._sock is None:
                self._cond.notify_all()  # wake a lazily-reconnecting reader
        self._out.push((slot, time.perf_counter()))
        return slot.future

    def resend(self, key: Tuple[int, int]) -> Optional[ReplyFuture]:
        """Send an in-flight request's frame again (per-request timeout
        recovery).  The socket is *not* dropped: the original reply, if
        it ever lands, is matched by sequence number — the duplicate's
        is absorbed as an orphan.  Returns the slot's (fresh, if the old
        one failed) future, or None if the slot is gone."""
        with self._lock:
            if self._closed:
                raise TransportError("channel is closed")
            slot = self._slots.get(key)
            if slot is None or slot.dead:
                return None
            if slot.future.done():
                # the core failed it (disconnect); arm a fresh future so
                # the caller can wait for the re-sent copy
                slot.future = ReplyFuture()
            self._cond.notify_all()
        self._out.push((slot, time.perf_counter()))
        return slot.future

    def cancel(self, key: Tuple[int, int]) -> None:
        """Forget a slot whose waiter gave up; a late reply becomes an
        orphan and any queued copy of the frame is skipped."""
        with self._lock:
            slot = self._slots.pop(key, None)
            if slot is not None:
                slot.dead = True
            self._m_inflight.set(len(self._slots))

    # -- the reader thread and the send section --------------------------------

    def _read_loop(self) -> None:
        while not self._closed:
            with self._lock:
                while self._sock is None and not self._closed:
                    if self._retry is not None or self._slots:
                        break  # reconnect: standing policy, or demand
                    self._cond.wait(timeout=0.2)
                if self._closed:
                    return
                sock = self._sock
            if sock is None:
                self._reconnect()
                continue
            try:
                frame = _recv_frame(sock)
                if frame is None:
                    raise TransportDisconnected("server closed the connection")
                nonce, seq, message = split_reply_frame(frame)
            except (TransportDisconnected, TransportError, OSError) as error:
                if self._closed:
                    return
                self._invalidate(sock, error)
                continue
            with self._lock:
                slot = self._slots.pop((nonce, seq), None)
                self._m_inflight.set(len(self._slots))
            if slot is None or slot.dead or slot.future.done():
                # late reply after a give-up, a duplicate after a resend,
                # or the server's (0, 0) unattributable-error marker
                self.orphans += 1
                self._m_orphans.inc()
                continue
            slot.future.resolve(message)

    def _send_frames(self, batch: list) -> Optional[list]:
        """The send section's socket call: one gathered ``sendmsg``.
        Returns what must stay queued because the socket is down."""
        live = [item for item in batch
                if not item[0].dead and not item[0].future.done()]
        sock = self._sock
        if sock is None:
            return live  # the reader sends them once it has reconnected
        if not live:
            return None  # gave up, or already answered/failed
        now = time.perf_counter()
        buffers: List[bytes] = []
        for slot, queued in live:
            self._m_queue_wait.observe(now - queued)
            buffers.extend(slot.buffers)
        self._m_batch.observe(len(live))
        try:
            _sendmsg_all(sock, buffers)
        except OSError as error:
            self._invalidate(sock, error)
            # the batch never (fully) left: slots that reached the wire
            # before are in the reconnect's window, the rest stay queued
            return [item for item in live if not item[0].sent]
        for slot, _queued in live:
            slot.sent = True
        return None

    # -- channel registry -----------------------------------------------------

    def attach(self, listener: Optional[Callable[[], None]] = None) -> None:
        with self._lock:
            self._channels += 1
        if listener is not None:
            self._listeners.append(listener)

    def detach(self, listener: Optional[Callable[[], None]] = None) -> None:
        if listener is not None and listener in self._listeners:
            self._listeners.remove(listener)
        with self._lock:
            self._channels -= 1

    @property
    def endpoint(self) -> str:
        return f"{self._host}:{self._port}"

    @property
    def connected(self) -> bool:
        return self._sock is not None

    @property
    def inflight(self) -> int:
        return len(self._slots)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._close_event.set()
        self._fail_pending(TransportError("channel is closed"))
        with self._lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        if self._reader is not threading.current_thread():
            self._reader.join(timeout=1.0)


class MultiplexingChannel(Channel):
    """A pipelined virtual channel over a (possibly shared) socket.

    Each channel carries its own client id, session nonce, and sequence
    space, so the server's lock attribution and retry dedup treat it as
    an independent client even when dozens of channels share one
    :class:`_MuxCore`.  ``request()`` blocks its calling thread only —
    other threads' requests proceed on the same socket, out-of-order
    replies land on the right waiters.  ``submit()`` returns a
    :class:`~repro.transport.ReplyFuture` for explicit pipelining from a
    single thread.

    With a :class:`RetryPolicy`, a per-request timeout re-sends that one
    frame (the connection is kept: replies match by sequence number) and
    a disconnection waits for the core's reconnect, counting attempts
    against the policy's budget; without one, timeouts and
    disconnections surface as typed errors for that request alone.
    """

    can_push = False

    def __init__(self, host: Optional[str] = None, port: Optional[int] = None,
                 client_id: str = "anonymous", timeout: float = 10.0,
                 retry: Optional[RetryPolicy] = None,
                 core: Optional[_MuxCore] = None):
        super().__init__()
        if core is None:
            if host is None or port is None:
                raise ValueError("MultiplexingChannel needs host/port or a core")
            core = _MuxCore(host, port, timeout=timeout, retry=retry)
            self._owns_core = True
        else:
            self._owns_core = False
        self._core = core
        self._client_id = client_id.encode("utf-8")
        self._timeout = timeout
        self._retry = retry
        self._nonce = int.from_bytes(os.urandom(8), "big")
        self._seq_lock = threading.Lock()
        self._next_seq = 0
        self._closed = False
        self.resends = 0
        metrics = get_registry()
        self._m_resends = metrics.counter(
            "transport.mux.resends",
            "in-flight frames re-sent after a per-request timeout or reconnect")
        self._m_retries = metrics.counter(
            "transport.retries", "requests retried after a transient fault")
        core.attach(self._fire_reconnect_listener)

    def _fire_reconnect_listener(self) -> None:
        if self.reconnect_listener is not None:
            self.reconnect_listener()

    def _submit(self, data: bytes) -> Tuple[Tuple[int, int], ReplyFuture, int]:
        if not isinstance(data, (bytes, bytearray)):
            raise TransportError("channels carry bytes only; serialize the message first")
        if self._closed:
            raise TransportError("channel is closed")
        with self._seq_lock:
            self._next_seq += 1
            seq = self._next_seq
        buffers = request_frame_buffers(self._client_id, self._nonce, seq,
                                        bytes(data))
        key = (self._nonce, seq)
        future = self._core.submit(buffers, key)
        return key, future, sum(len(b) for b in buffers) - 4

    def submit(self, data: bytes) -> ReplyFuture:
        """Queue a request and return its future without blocking."""
        _key, future, _sent = self._submit(data)
        return future

    def request(self, data: bytes) -> bytes:
        key, future, sent_bytes = self._submit(data)
        started = time.perf_counter()
        failures = 0
        while True:
            try:
                reply = future.result(timeout=self._timeout)
            except TransportTimeout:
                failure: TransportError = TransportTimeout(
                    f"no reply for seq {key[1]} within {self._timeout:g}s")
            except TransportError as exc:
                if not is_retryable(exc):
                    self._core.cancel(key)
                    raise
                failure = exc
            else:
                self._record_request(sent_bytes, len(reply),
                                     time.perf_counter() - started)
                return reply
            delay = self._retry.delay_for(failures) if self._retry else None
            if delay is None:
                self._core.cancel(key)
                if self._retry is not None and failures:
                    raise RetryExhausted(
                        f"request to {self._core.endpoint} failed after "
                        f"{failures + 1} attempts: {failure}") from failure
                raise failure
            failures += 1
            self._m_retries.inc()
            if delay > 0:
                time.sleep(delay)
            if self._closed:
                self._core.cancel(key)
                raise TransportError("channel is closed") from failure
            resent = self._core.resend(key)
            if resent is None:
                raise failure
            future = resent
            self.resends += 1
            self._m_resends.inc()

    def break_connection(self) -> None:
        """Sever the shared socket (fault-injection hook); affects every
        channel on this core, exactly like a real connection loss."""
        self._core.break_connection()

    def health(self) -> dict:
        state = super().health()
        state.update({
            "endpoint": self._core.endpoint,
            "connected": self._core.connected,
            "multiplexed": True,
            "owns_core": self._owns_core,
            "inflight": self._core.inflight,
            "reconnects": self._core.reconnects,
            "resends": self.resends,
            "orphan_replies": self._core.orphans,
            "last_error": self._core.last_error,
            "session_nonce": self._nonce,
            "next_seq": self._next_seq,
        })
        return state

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._core.detach(self._fire_reconnect_listener)
        if self._owns_core:
            self._core.close()


class MuxConnectionPool:
    """One multiplexed connection per server, shared by every client.

    ``connect(server, client_id)`` matches the
    ``InterWeaveClient(connector=...)`` signature: each call returns a
    new virtual :class:`MultiplexingChannel` (own nonce and sequence
    space) over the pool's single shared core for that server — so a
    process full of clients, their pollers, and a stats CLI all ride one
    socket per server instead of one socket per purpose.  Closing a
    virtual channel leaves the core up; :meth:`close` tears down every
    core.
    """

    def __init__(self, addresses: Optional[Dict[str, Tuple[str, int]]] = None,
                 timeout: float = 10.0, retry: Optional[RetryPolicy] = None):
        self._addresses: Dict[str, Tuple[str, int]] = dict(addresses or {})
        self._timeout = timeout
        self._retry = retry
        self._lock = threading.Lock()
        self._cores: Dict[str, _MuxCore] = {}

    def add_server(self, server: str, host: str, port: int) -> None:
        with self._lock:
            self._addresses[server] = (host, port)

    def _core_for(self, server: str) -> _MuxCore:
        with self._lock:
            core = self._cores.get(server)
            if core is None:
                address = self._addresses.get(server)
                if address is None:
                    raise TransportError(f"unknown server {server!r}")
                core = _MuxCore(address[0], address[1], timeout=self._timeout,
                                retry=self._retry)
                self._cores[server] = core
            return core

    def connect(self, server: str, client_id: str) -> MultiplexingChannel:
        return MultiplexingChannel(client_id=client_id, timeout=self._timeout,
                                   retry=self._retry,
                                   core=self._core_for(server))

    def health(self) -> dict:
        with self._lock:
            return {server: {
                "endpoint": core.endpoint,
                "connected": core.connected,
                "inflight": core.inflight,
                "reconnects": core.reconnects,
            } for server, core in self._cores.items()}

    def close(self) -> None:
        with self._lock:
            cores = list(self._cores.values())
            self._cores.clear()
        for core in cores:
            core.close()
