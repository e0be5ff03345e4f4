"""The TCP client: many requests in flight on one socket, and no thread.

:class:`TCPChannel` is the only TCP client channel.  Each channel is a
virtual client — its own client id, random session nonce and sequence
space, so the server's :class:`~repro.transport.ReplyCache` and lock
tables see an ordinary client — over a :class:`_MuxCore`: one socket, a
table of *wait slots* keyed by the ``(nonce, seq)`` pair every reply
echoes (replies match waiters by identity, not arrival order), and the
server's send-combining section (``tcp._SendCombiner``: a lone request
leaves on its caller's thread, a backlog coalesces into one ``sendmsg``).
A channel built from host and port owns its core; :class:`MuxConnectionPool`
hands out channels over one shared core per server.

Only the threads waiting for replies read the socket.  At most one holds
the core's *read role*: it reads whole frames and resolves the slot each
names, waking only that slot's owner, and once its own reply has landed
it hands the role to one thread still waiting.  A deadline bounds the
wait for a frame to start, never a frame's middle.  A serial caller thus
sends, reads and returns on its own stack.

Faults, one rule each (see ``docs/ROBUSTNESS.md``): a lost connection
fails the requests in flight on it with
:class:`~repro.errors.TransportDisconnected`, and the next waiter to find
the socket down reconnects, on demand (frames queued meanwhile go out
once); with a :class:`~repro.transport.RetryPolicy` a timeout or a
disconnection backs off (``close()`` cuts the backoff short) and re-sends
the frame under its sequence number — the server's reply cache
deduplicates — and without one the typed error surfaces; a timed-out
request keeps the socket, and its late reply is counted as an orphan,
never handed to another request.
"""

from __future__ import annotations

import os
import select
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
from repro.obs.metrics import OwnerCounters, get_registry
from repro.transport.base import Channel
from repro.transport.retry import RetryPolicy, is_retryable
from repro.transport.tcp import (
    _LEN,
    _MAX_FRAME,
    _REPLY_HEADER,
    _SendCombiner,
    _sendmsg_all,
    request_frame_buffers,
    split_reply_frame,
)


#: bytes asked of one ``recv``: a small reply, or several, in one call
_RECV_SIZE = 1 << 16


class _Conn:
    """One connected socket, non-blocking: every wait is a ``poll`` with
    its own bound.  ``pending`` holds bytes read past the last whole
    frame; only the read role touches it."""

    __slots__ = ("sock", "_in", "_out", "_stall_ms", "pending")

    def __init__(self, sock: socket.socket, stall: float):
        sock.setblocking(False)
        self.sock = sock
        self._in = select.poll()
        self._in.register(sock, select.POLLIN)
        self._out = select.poll()
        self._out.register(sock, select.POLLOUT)
        #: a frame (or a send) stalled this long midway loses the connection
        self._stall_ms = stall * 1000.0
        self.pending = bytearray()

    def readable(self, seconds: Optional[float] = None) -> bool:
        """Wait for input: ``seconds`` at most, or else the stall bound,
        past which a frame already started is given up (``socket.timeout``)."""
        if seconds is not None:
            return bool(self._in.poll(max(seconds, 0.0) * 1000.0))
        if not self._in.poll(self._stall_ms):
            raise socket.timeout("reply stalled mid-frame")
        return True

    def writable(self) -> None:
        if not self._out.poll(self._stall_ms):
            raise socket.timeout("send stalled")


def _read_frame(conn: _Conn, remaining: float) -> Optional[bytearray]:
    """The next whole frame (after its length prefix), or None if none
    starts within ``remaining`` seconds (past the deadline, only one
    already there is read).  A frame that has started is read to its
    end."""
    sock, pending = conn.sock, conn.pending
    if not pending and not conn.readable(remaining):
        return None
    while True:
        if len(pending) >= _LEN.size:
            (length,) = _LEN.unpack_from(pending)
            if length > _MAX_FRAME:
                raise TransportError(f"frame of {length} bytes exceeds limit")
            end = _LEN.size + length
            if len(pending) >= end:
                frame = pending[_LEN.size:end]
                del pending[:end]
                return frame
            if end - len(pending) > _RECV_SIZE:
                # a large frame: the rest straight into its own buffer
                frame = bytearray(length)
                have = len(pending) - _LEN.size
                frame[:have] = memoryview(pending)[_LEN.size:]
                pending.clear()
                view = memoryview(frame)[have:]
                while view:
                    try:
                        got = sock.recv_into(view)
                    except BlockingIOError:
                        conn.readable()
                        continue
                    if not got:
                        raise TransportDisconnected("server closed the connection")
                    view = view[got:]
                return frame
        try:
            chunk = sock.recv(_RECV_SIZE)
        except BlockingIOError:
            conn.readable()
            continue
        if not chunk:
            raise TransportDisconnected("server closed the connection")
        pending += chunk


class _Slot:
    """One in-flight request: its wire frame, and the future its owner
    waits on — ``done()`` and ``result()`` as on a
    :class:`~repro.transport.ReplyFuture`, except that ``result()`` takes
    part in reading the socket.  Mutated under the core's lock."""

    __slots__ = ("key", "buffers", "channel", "reply", "error", "finished",
                 "sent", "dead", "waiting", "cond")

    def __init__(self, key: Tuple[int, int], buffers: Tuple[bytes, ...],
                 channel: "TCPChannel"):
        self.key = key
        self.buffers = buffers
        self.channel = channel
        self.reply: Optional[bytes] = None
        self.error: Optional[BaseException] = None
        self.finished = False
        #: handed to the current socket (a lost socket fails these; frames
        #: not yet sent stay queued for the next one)
        self.sent = False
        #: abandoned by its owner; the send section skips it
        self.dead = False
        #: the owner sleeps on ``cond`` (made on first use, over the
        #: core's lock) until its reply lands or the read role is free
        self.waiting = False
        self.cond: Optional[threading.Condition] = None

    def done(self) -> bool:
        return self.finished

    def result(self, timeout: Optional[float] = None) -> bytes:
        """The reply, under the channel's retry rules; ``timeout``
        defaults to the channel's."""
        return self.channel._wait(self, timeout)


class _MuxCore:
    """The shared half of a channel: one socket, the wait-slot table, the
    read role and one send-combining section.  It has no thread: whoever
    waits reads, and whoever finds the socket down reconnects."""

    def __init__(self, host: str, port: int, timeout: float = 10.0,
                 retry: Optional[RetryPolicy] = None):
        self.host = host
        self.port = port
        self._timeout = timeout
        self.retry = retry
        self._lock = threading.Lock()
        self._slots: Dict[Tuple[int, int], _Slot] = {}
        self._out = _SendCombiner(self._send_frames)
        #: a waiter is reading the socket: the read role is taken
        self._reading = False
        self._conn: Optional[_Conn] = None
        self._closed = False
        #: the channels' reconnect hooks, run after a reconnect
        self.listeners: List[Callable[[], None]] = []
        self.last_error: Optional[str] = None
        metrics = get_registry()
        #: this core's parts of the registry counters
        self.reconnects = OwnerCounters(self, metrics, "transport", {
            "reconnects": "channel connections re-established",
        }).parts.reconnects
        self.orphans = OwnerCounters(self, metrics, "transport.mux", {
            "orphan_replies": "replies that arrived after their waiter "
                              "gave up (or duplicates)",
        }).parts.orphan_replies
        self._m_inflight = metrics.gauge(
            "transport.mux.inflight",
            "requests awaiting replies on TCP client channels")
        self._m_batch = metrics.histogram(
            "transport.mux.batch_frames",
            help="request frames per sendmsg")
        self._m_queue_wait = metrics.histogram(
            "transport.mux.send_queue_wait_seconds",
            help="time requests waited behind another send or a reconnect")
        self._m_reconnect_seconds = metrics.histogram(
            "transport.reconnect_seconds",
            help="time spent re-establishing lost connections")
        self._conn = self._connect()  # eager: bad endpoints fail here

    # -- the socket ----------------------------------------------------------

    def _connect(self) -> _Conn:
        try:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self._timeout)
        except socket.timeout as exc:
            raise TransportTimeout(
                f"connect to {self.endpoint} timed out after "
                f"{self._timeout:g}s") from exc
        except OSError as exc:
            raise TransportDisconnected(
                f"connect to {self.endpoint} failed: {exc}") from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return _Conn(sock, self._timeout)

    def _reconnect(self) -> None:
        """Holding the read role: replace the lost socket."""
        if self._closed:
            raise TransportError("channel is closed")
        started = time.perf_counter()
        try:
            conn = self._connect()
        except TransportError as error:
            self.last_error = str(error)
            raise
        with self._lock:
            self._conn = conn
        self.reconnects.inc()
        self._m_reconnect_seconds.observe(time.perf_counter() - started)
        if self._closed:  # close() raced the connect: it must not leak
            self._drop(conn, TransportError("channel is closed"))

    def _drop(self, conn: _Conn, error: TransportError) -> None:
        """Retire ``conn`` if it is still current; the requests in flight
        on it fail with ``error``.  Shutting down first wakes a reader
        blocked on it."""
        with self._lock:
            if self._conn is not conn:
                return
            self._conn = None
            self.last_error = str(error)
            for slot in [s for s in self._slots.values() if s.sent]:
                del self._slots[slot.key]
                self._finish(slot, error=error)
            self._m_inflight.set(len(self._slots))
        try:
            conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        conn.sock.close()

    def break_connection(self) -> None:
        """Fault-injection hook: sever the socket."""
        conn = self._conn
        if conn is not None:
            self._drop(conn, TransportDisconnected("connection broken"))

    # -- slots ---------------------------------------------------------------

    def _finish(self, slot: _Slot, reply: Optional[bytes] = None,
                error: Optional[BaseException] = None) -> None:
        """Under the lock: complete ``slot`` and wake its owner only."""
        slot.reply, slot.error, slot.finished = reply, error, True
        if slot.waiting:
            slot.cond.notify()

    def submit(self, slot: _Slot) -> None:
        """Register ``slot`` and send its frame."""
        with self._lock:
            if self._closed:
                raise TransportError("channel is closed")
            self._slots[slot.key] = slot
            self._m_inflight.set(len(self._slots))
        self._out.push((slot, time.perf_counter()))

    def resend(self, slot: _Slot) -> None:
        """Re-arm ``slot`` and send its frame again (a retry).  A frame
        still queued for a socket is not queued twice."""
        with self._lock:
            if self._closed:
                raise TransportError("channel is closed")
            queued = not slot.sent and not slot.finished
            slot.finished = slot.sent = False
            slot.error = None
            self._slots[slot.key] = slot
            self._m_inflight.set(len(self._slots))
        if queued:
            self._out.push()
        else:
            self._out.push((slot, time.perf_counter()))

    def cancel(self, slot: _Slot) -> None:
        """Forget a slot whose owner gave up; a late reply becomes an
        orphan and a queued copy of the frame is skipped."""
        with self._lock:
            slot.dead = True
            if self._slots.get(slot.key) is slot:
                del self._slots[slot.key]
            self._m_inflight.set(len(self._slots))

    # -- waiting is reading --------------------------------------------------

    def _pass_role(self) -> None:
        """Under the lock, the read role free: wake one owner still waiting."""
        for other in self._slots.values():
            if other.waiting and not other.finished:
                other.cond.notify()
                return

    def wait(self, slot: _Slot, deadline: float) -> bytes:
        """One attempt: block until ``slot`` finishes, reading the socket
        whenever the read role is free; TransportTimeout at ``deadline``."""
        while True:
            with self._lock:
                while not slot.finished:
                    if not self._reading:
                        self._reading = True
                        conn = self._conn
                        break
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TransportTimeout(
                            f"no reply for seq {slot.key[1]} in time")
                    if slot.cond is None:
                        slot.cond = threading.Condition(self._lock)
                    slot.waiting = True
                    slot.cond.wait(remaining)
                    slot.waiting = False
                else:
                    if not self._reading:
                        self._pass_role()  # it may have been handed to us
                    if slot.error is not None:
                        raise slot.error
                    return slot.reply
            try:
                if conn is None:
                    self._reconnect()
                else:
                    self._read_until(slot, conn, deadline)
            finally:
                with self._lock:
                    self._reading = False
                    self._pass_role()
            if conn is None:
                # no lock and no role held: a listener may issue requests
                self._out.push()  # frames that waited for a socket
                for listener in list(self.listeners):
                    listener()
            elif slot.error is None and slot.finished:
                return slot.reply  # the serial case: no second look

    def _read_until(self, slot: _Slot, conn: _Conn, deadline: float) -> None:
        """Holding the read role: deliver frames until ``slot``'s own
        reply lands or its socket is lost."""
        while not slot.finished:
            try:
                frame = _read_frame(conn, deadline - time.monotonic())
                if frame is None:
                    raise TransportTimeout(
                        f"no reply for seq {slot.key[1]} in time")
                nonce, seq, message = split_reply_frame(frame)
            except TransportTimeout:
                raise
            except TransportError as error:
                self._drop(conn, error)
                return
            except OSError as exc:
                self._drop(conn, TransportDisconnected(
                    f"TCP connection lost: {exc}"))
                return
            with self._lock:
                other = self._slots.pop((nonce, seq), None)
                if other is not None:
                    self._finish(other, reply=message)
                    self._m_inflight.set(len(self._slots))
                    continue
            # a late reply after a give-up, a duplicate after a resend, or
            # the server's (0, 0) unattributable-error marker
            self.orphans.inc()

    def _send_frames(self, batch: list) -> Optional[list]:
        """The send section's socket call: one gathered ``sendmsg``.
        Returns what must stay queued because the socket is down."""
        live = [item for item in batch
                if not item[0].dead and not item[0].finished]
        with self._lock:
            conn = self._conn
            if conn is None:
                return live  # the next waiter to reconnect sends them
            for slot, _queued in live:
                slot.sent = True  # from here a lost socket fails them
        if not live:
            return None
        now = time.perf_counter()
        buffers: List[bytes] = []
        for slot, queued in live:
            self._m_queue_wait.observe(now - queued)
            buffers += slot.buffers
        self._m_batch.observe(len(live))
        try:
            _sendmsg_all(conn.sock, buffers, conn.writable)
        except OSError as exc:
            self._drop(conn, TransportDisconnected(f"TCP send failed: {exc}"))
        return None

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def connected(self) -> bool:
        return self._conn is not None

    @property
    def inflight(self) -> int:
        return len(self._slots)

    def close(self) -> None:
        """Fail every waiter and drop the socket; a reader blocked on it
        wakes with end of stream."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conn = self._conn
            closed = TransportError("channel is closed")
            for slot in self._slots.values():
                self._finish(slot, error=closed)
            self._slots.clear()
            self._m_inflight.set(0)
        if conn is not None:
            self._drop(conn, closed)


class TCPChannel(Channel):
    """A client connection to a TCP server; many requests may be in flight.

    Each channel carries its own client id, session nonce and sequence
    space, so the server's lock attribution and retry dedup treat it as an
    independent client even when many channels share one core (``core=``,
    as :class:`MuxConnectionPool` does; the core's timeout and retry
    policy then govern the socket).  ``request()`` blocks its calling
    thread only: other threads' requests proceed on the same socket and
    out-of-order replies reach their own waiters.  ``submit()`` returns a
    future for explicit pipelining from one thread.

    With a :class:`RetryPolicy`, a timeout or a disconnection re-sends the
    frame under its sequence number after the policy's backoff; without
    one, it surfaces as a typed transport error for that request alone.
    """

    can_push = False

    def __init__(self, host: str, port: int, client_id: str,
                 timeout: float = 10.0, retry: Optional[RetryPolicy] = None,
                 core: Optional[_MuxCore] = None):
        super().__init__()
        self._owns_core = core is None
        if core is None:
            core = _MuxCore(host, port, timeout=timeout, retry=retry)
        self._core = core
        self._client_id = client_id.encode("utf-8")
        self._timeout = timeout
        # random session nonce: keys the server's reply-cache session, so
        # a fresh channel reusing a client id never collides with the
        # previous channel's sequence space
        self._nonce = int.from_bytes(os.urandom(8), "big")
        self._seq_lock = threading.Lock()
        self._next_seq = 0
        self._close_event = threading.Event()
        metrics = get_registry()
        self._retries = OwnerCounters(self, metrics, "transport", {
            "retries": "requests retried after a transient fault",
        }).parts.retries
        self._m_resends = metrics.counter(
            "transport.mux.resends",
            "in-flight frames re-sent after a per-request timeout or reconnect")
        core.listeners.append(self._fire_reconnect_listener)

    def _fire_reconnect_listener(self) -> None:
        if self.reconnect_listener is not None:
            self.reconnect_listener()

    @property
    def reconnects(self) -> int:
        return self._core.reconnects.value

    @property
    def retries(self) -> int:
        return self._retries.value

    def submit(self, data: bytes) -> _Slot:
        """Send a request and return its future without blocking."""
        if not isinstance(data, (bytes, bytearray)):
            raise TransportError("channels carry bytes only; serialize the message first")
        if self._close_event.is_set():
            raise TransportError("channel is closed")
        with self._seq_lock:
            self._next_seq += 1
            seq = self._next_seq
        buffers = request_frame_buffers(self._client_id, self._nonce, seq,
                                        bytes(data))
        slot = _Slot((self._nonce, seq), buffers, self)
        self._core.submit(slot)
        return slot

    def request(self, data: bytes) -> bytes:
        slot = self.submit(data)
        started = time.perf_counter()
        reply = self._wait(slot)
        # frame bytes after the length prefix, both directions
        self._record_request(sum(map(len, slot.buffers)) - _LEN.size,
                             _REPLY_HEADER + len(reply),
                             time.perf_counter() - started)
        return reply

    def _wait(self, slot: _Slot, timeout: Optional[float] = None) -> bytes:
        """The reply to ``slot``, retrying under the core's policy."""
        if timeout is None:
            timeout = self._timeout
        retry = self._core.retry
        failures = 0
        while True:
            try:
                return self._core.wait(slot, time.monotonic() + timeout)
            except TransportError as exc:
                if not is_retryable(exc):
                    self._core.cancel(slot)
                    raise
                failure = exc
            delay = retry.delay_for(failures) if retry else None
            if delay is None:
                self._core.cancel(slot)
                if retry is not None and failures:
                    raise RetryExhausted(
                        f"request to {self._core.endpoint} failed after "
                        f"{failures + 1} attempts: {failure}") from failure
                raise failure
            failures += 1
            self._retries.inc()
            self._m_resends.inc()
            # waiting on the close event (not time.sleep) lets a
            # concurrent close() abort the backoff at once
            if self._close_event.wait(delay):
                self._core.cancel(slot)
                raise TransportError("channel is closed") from failure
            self._core.resend(slot)

    def break_connection(self) -> None:
        """Sever the socket (fault-injection hook); affects every channel
        on this core, exactly like a real connection loss."""
        self._core.break_connection()

    def health(self) -> dict:
        state = super().health()
        core = self._core
        state.update({
            "endpoint": core.endpoint,
            "connected": core.connected,
            "multiplexed": True,
            "owns_core": self._owns_core,
            "inflight": core.inflight,
            "reconnects": core.reconnects.value,
            "retries": self.retries,
            "resends": self.retries,
            "orphan_replies": core.orphans.value,
            "last_error": core.last_error,
            "session_nonce": self._nonce,
            "next_seq": self._next_seq,
        })
        return state

    def close(self) -> None:
        if self._close_event.is_set():
            return
        self._close_event.set()
        self._core.listeners.remove(self._fire_reconnect_listener)
        if self._owns_core:
            self._core.close()


class MuxConnectionPool:
    """One connection per server, shared by every client.

    ``connect(server, client_id)`` matches the
    ``InterWeaveClient(connector=...)`` signature: each call returns a new
    :class:`TCPChannel` (own nonce and sequence space) over the pool's
    single shared core for that server — so a process full of clients,
    their pollers, and a stats CLI all ride one socket per server instead
    of one socket per purpose.  Closing a channel leaves the core up;
    :meth:`close` tears down every core.
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

    def connect(self, server: str, client_id: str) -> TCPChannel:
        core = self._core_for(server)
        return TCPChannel(core.host, core.port, client_id,
                          timeout=self._timeout, core=core)

    def health(self) -> dict:
        with self._lock:
            return {server: {
                "endpoint": core.endpoint,
                "connected": core.connected,
                "inflight": core.inflight,
                "reconnects": core.reconnects.value,
            } for server, core in self._cores.items()}

    def close(self) -> None:
        with self._lock:
            cores = list(self._cores.values())
            self._cores.clear()
        for core in cores:
            core.close()
