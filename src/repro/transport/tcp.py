"""TCP transport: length-prefixed frames over real sockets.

Every message is a 4-byte big-endian length and that many bytes.  A
request leads with the client id, a per-channel session nonce and a
sequence number; a reply echoes ``(nonce, seq)``, so replies match
requests by identity, not arrival order (``docs/PROTOCOL.md`` §6).

This module holds the framing helpers and the server core (Linux only:
``select.epoll``); the client, :class:`~repro.transport.TCPChannel`,
lives in ``repro.transport.mux``.  Whichever thread finished a dispatch
sends the reply (:class:`_SendCombiner`, which the client shares):
replies that pile up behind a send leave in a single ``sendmsg`` while a
lone reply still goes out immediately (``TCP_NODELAY`` stays set).  Push
notifications are not supported over this transport (``can_push =
False``); clients fall back to polling, exactly the degraded mode the
paper's adaptive protocol anticipates.  Malformed frames and dispatcher
failures are answered with an ``ErrorReply`` and a
:class:`~repro.transport.ReplyCache` makes re-sent requests idempotent
(``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import queue
import select
import socket
import struct
import threading
import time
from contextlib import suppress
from functools import partial
from http import HTTPStatus
from typing import Callable, Dict, Optional, Sequence, Tuple
from urllib.parse import unquote

from repro.errors import ServerError, TransportError
from repro.obs.metrics import get_registry
from repro.transport.base import Dispatcher, ReplyCache
from repro.wire.messages import (
    ErrorReply,
    GetStatsReply,
    GetStatsRequest,
    decode_message,
    encode_message,
)

_log = logging.getLogger("repro.transport.tcp")

_LEN = struct.Struct(">I")
_SEQ = struct.Struct(">Q")
_MAX_FRAME = 1 << 30
#: a reply payload leads with the echoed (nonce, seq) pair
_REPLY_HEADER = 2 * _SEQ.size
#: a reply frame's length prefix and header, packed in one call
_REPLY_PREFIX = struct.Struct(">IQQ")
#: cap on frames coalesced into one sendmsg (keeps the iovec and the
#: latency of any single batch bounded; well under IOV_MAX)
_MAX_REPLY_BATCH = 32
#: bytes asked of one ``recv``: a small request, or several, in one call
_RECV_SIZE = 1 << 16
#: one read at a time: the thread handed a socket owns it until it
#: re-arms it (off Linux the server cannot start; the client imports)
_ARM = getattr(select, "EPOLLIN", 0) | getattr(select, "EPOLLONESHOT", 0)
#: core threads started with the transport, and kept while idle
_CORE_THREADS = 2
#: an idle core thread beyond those retires after this long in ``poll``
_CORE_IDLE_SECONDS = 1.0
#: no core thread in ``poll`` and none finishing an event this long: the
#: busy ones are blocked (an fsync, a quorum wait, an upstream forward, a
#: peer that does not read), not taking turns at the interpreter
_UNWATCHED_SECONDS = 0.005
#: largest HTTP request head (request line + headers) the gateway accepts
_GATEWAY_HEAD_LIMIT = 16 * 1024

_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")


def _sendmsg_all(sock: socket.socket, buffers: Sequence[bytes],
                 writable: Optional[Callable[[], None]] = None) -> None:
    """Send every buffer completely, without concatenating them first.

    ``sendmsg`` gathers the buffers into one syscall (and usually one
    TCP segment for small frames); a partial send resumes from the
    offset reached.  On a non-blocking socket, ``writable()`` waits
    whenever the kernel takes nothing more (or raises).  Falls back to
    per-buffer ``sendall`` where ``sendmsg`` is unavailable.
    """
    if not _HAS_SENDMSG:
        for buf in buffers:
            sock.sendall(buf)
        return
    views = buffers
    while True:
        try:
            sent = sock.sendmsg(views)
        except BlockingIOError:
            if writable is None:
                raise
            writable()
            continue
        if sent == sum(map(len, views)):
            return
        # a partial send: resume from the offset reached
        views = [memoryview(b) for b in views if len(b)]
        while sent >= len(views[0]):
            sent -= len(views[0])
            views.pop(0)
        views[0] = views[0][sent:]


class _SendCombiner:
    """Many threads, one socket, no writer thread: a send-combining section.

    :meth:`push` appends under the lock; a thread that finds nobody
    sending becomes the sender and hands ``flush`` ``_MAX_REPLY_BATCH``
    items at a time, outside the lock, until the list is empty; any
    other thread returns at once and the sender takes its items along:
    a lone frame leaves on the thread that produced it, a backlog
    coalesces.  Items ``flush`` returns (socket down) go back to the
    front and the sender stops; a bare ``push()`` resumes.
    """

    def __init__(self, flush: Callable[[list], Optional[list]]):
        self._flush = flush
        self._lock = threading.Lock()
        self._pending: list = []
        self._sending = False
        #: a push arrived since the sender took its batch: a sender about
        #: to stop on a dead socket looks again (the socket may be back)
        self._pushed = False

    def push(self, *items) -> None:
        with self._lock:
            self._pending.extend(items)
            self._pushed = True
            if self._sending:
                return
            self._sending = True
        kept = None
        while True:
            with self._lock:
                if kept:
                    self._pending[:0] = kept
                if not self._pending or (kept and not self._pushed):
                    # under the lock: no push that saw a sender is left behind
                    self._sending = False
                    return
                batch = self._pending[:_MAX_REPLY_BATCH]
                del self._pending[:_MAX_REPLY_BATCH]
                self._pushed = False
            try:
                kept = self._flush(batch)
            except BaseException:
                self._sending = False  # a flush bug must not wedge the section
                raise


def split_reply_frame(frame: bytes) -> Tuple[int, int, bytes]:
    """Split a reply frame into ``(nonce, seq, message)``.

    Raises :class:`TransportError` if the frame is too short to carry
    the 16-byte reply header.
    """
    if len(frame) < _REPLY_HEADER:
        raise TransportError(
            f"reply frame of {len(frame)} bytes is shorter than its "
            f"{_REPLY_HEADER}-byte header")
    (nonce,) = _SEQ.unpack_from(frame, 0)
    (seq,) = _SEQ.unpack_from(frame, _SEQ.size)
    return nonce, seq, bytes(memoryview(frame)[_REPLY_HEADER:])


def request_frame_buffers(client_id: bytes, nonce: int, seq: int,
                          data: bytes) -> Tuple[bytes, bytes, bytes]:
    """Build the three wire buffers of a request frame.

    Returned as separate buffers (length prefix, header, payload) so the
    payload — often a large diff — is never copied into a joined frame;
    send with :func:`_sendmsg_all`.
    """
    header = (_LEN.pack(len(client_id)) + client_id
              + _SEQ.pack(nonce) + _SEQ.pack(seq))
    return _LEN.pack(len(header) + len(data)), header, data


class _DispatchPool:
    """A fixed pool of daemon worker threads with FIFO start order.

    FIFO matters for correctness, not just fairness: the reply cache's
    duplicate-coalescing waits on the original dispatch, and its
    no-deadlock argument requires that a duplicate never *starts* before
    its original has (see ``ReplyCache.execute``).  A plain FIFO queue
    drained by identical workers guarantees exactly that.

    Workers are daemon threads and ``close()`` does not join them: a
    dispatch wedged in a hung handler must not block server shutdown or
    interpreter exit.
    """

    def __init__(self, workers: int):
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._workers = workers
        for index in range(workers):
            threading.Thread(target=self._worker, daemon=True,
                             name=f"repro-dispatch-{index}").start()

    def submit(self, task) -> None:
        self._queue.put(task)

    def _worker(self) -> None:
        while True:
            task = self._queue.get()
            if task is None:
                return
            try:
                task()
            except Exception:  # noqa: BLE001 — a task bug must not kill the worker
                _log.exception("dispatch task failed")

    def close(self) -> None:
        for _ in range(self._workers):
            self._queue.put(None)


class _Connection:
    """One accepted socket, non-blocking.  ``pending`` (bytes read past
    the last whole frame) belongs to whichever thread owns the socket;
    the counters and flags change under the transport's lock."""

    __slots__ = ("sock", "fd", "pending", "out", "inflight", "parked",
                 "closed")

    def __init__(self, sock: socket.socket, flush: Optional[Callable]):
        self.sock = sock
        self.fd = sock.fileno()
        self.pending = bytearray()
        #: no frames, no send section: an HTTP gateway connection
        self.out = None if flush is None else _SendCombiner(partial(flush, self))
        #: frames read and not yet answered on the wire
        self.inflight = 0
        #: left disarmed at the in-flight cap
        self.parked = False
        #: end of stream or lost framing: nothing more is read
        self.closed = False


class TCPServerTransport:
    """Accepts connections and feeds requests to a :class:`Dispatcher`.

    Every socket sits on one ``epoll`` as ``EPOLLIN | EPOLLONESHOT`` and
    each core thread waits in ``poll`` for one event, so the kernel hands
    a ready socket to one thread, which owns it until it re-arms it.  The
    owner reads every whole frame the socket holds, queues all but the
    first on the dispatch pool, re-arms the socket and answers the first
    frame on its own stack.  One rule each:

    - **Duplicates.**  A frame runs on a core thread, which waits on
      nothing queued, or on the FIFO pool, which gets a connection's
      frames in read order and before the socket is re-armed; so a
      re-sent sequence number never starts before its original, and a
      duplicate the :class:`ReplyCache` holds back waits on a running one.
    - **In-flight cap.**  A frame counts against ``max_inflight`` from its
      read until its reply is on the wire; at the cap the socket stays
      disarmed, and the reply that brings it back under reads on.
    - **Replies** leave through the connection's :class:`_SendCombiner`;
      a send that finds no room for ``write_stall_timeout`` seconds drops
      the peer (``transport.server.slow_reader_drops``).  A core thread
      counts as waiting again only after its send, so one blocked on a
      peer that does not read never hides unwatched sockets.
    - **Threads follow blocked dispatches, not connections.**  Two start;
      a watcher adds one whenever none has waited in ``poll``, and none
      has finished an event, for ``_UNWATCHED_SECONDS`` (an fsync, a
      quorum wait or an upstream forward never leaves the sockets
      unwatched; threads that merely share the interpreter add none);
      one whose ``poll`` times out while two others wait exits.
    - **Gateway.**  ``gateway_port`` (``0`` = ephemeral) adds a listener
      for the read-only HTTP/1.1 JSON gateway (``docs/GATEWAY.md``),
      answered on the thread that read each request.
    - **close()** wakes every thread, releases the ports before it
      returns, and drains in-flight dispatches for at most one second; a
      shared :class:`ReplyCache` carries dedup across a restart.
    """

    def __init__(self, dispatcher: Dispatcher, host: str = "127.0.0.1",
                 port: int = 0, reply_cache: Optional[ReplyCache] = None,
                 dispatch_workers: int = 8, max_inflight: int = 64,
                 write_stall_timeout: float = 5.0,
                 gateway_port: Optional[int] = None):
        self._dispatcher = dispatcher
        self.reply_cache = reply_cache if reply_cache is not None else ReplyCache()
        self._max_inflight = max_inflight
        self._stall_ms = write_stall_timeout * 1000.0
        metrics = get_registry()
        self._m_connections = metrics.counter(
            "transport.server.connections", "TCP connections accepted")
        self._m_open = metrics.gauge(
            "transport.server.open_connections", "TCP connections currently open")
        self._m_requests = metrics.counter(
            "transport.server.requests", "frames dispatched by the TCP server")
        self._m_bytes_received = metrics.counter(
            "transport.server.bytes_received", "request frame bytes received")
        self._m_bytes_sent = metrics.counter(
            "transport.server.bytes_sent", "reply frame bytes sent")
        self._m_frame_errors = metrics.counter(
            "transport.server.frame_errors",
            "malformed frames answered with ErrorReply")
        self._m_dispatch_errors = metrics.counter(
            "transport.server.dispatch_errors",
            "dispatcher exceptions answered with ErrorReply")
        self._m_reply_batch = metrics.histogram(
            "transport.server.reply_batch_frames",
            help="reply frames per sendmsg")
        self._m_reply_queue_wait = metrics.histogram(
            "transport.server.reply_queue_wait_seconds",
            help="time finished replies waited for their turn on the socket")
        self._m_slow_drops = metrics.counter(
            "transport.server.slow_reader_drops",
            "connections dropped because the peer stopped reading replies")
        self._m_gateway_requests = metrics.counter(
            "gateway.requests", "HTTP requests answered by the JSON gateway")

        listener = _listen(host, port)
        self.host, self.port = listener.getsockname()
        self.gateway_host = self.gateway_port = None
        self._listeners = {listener.fileno(): (listener, False)}
        if gateway_port is not None:
            try:
                gateway = _listen(host, gateway_port)
            except OSError:
                listener.close()
                raise
            self.gateway_host, self.gateway_port = gateway.getsockname()
            self._listeners[gateway.fileno()] = (gateway, True)

        self._lock = threading.Lock()
        #: close() waits here for the dispatches in flight to drain
        self._drained = threading.Condition(self._lock)
        self._conns: Dict[int, _Connection] = {}
        self._threads: set = set()
        self._names = itertools.count()
        #: core threads in ``poll`` or on their way back to it
        self._idle = 0
        #: set when the last waiting core thread takes an event
        self._unwatched = threading.Event()
        #: events the core threads have finished serving
        self._served = 0
        #: frames read and not yet answered, over every connection
        self._inflight = 0
        self._running = True
        self._epoll = select.epoll()
        # level-triggered and never drained: once written, every poll
        # returns at once, which is how close() wakes every thread
        self._wake_r, self._wake_w = os.pipe()
        self._epoll.register(self._wake_r, select.EPOLLIN)
        for fd in self._listeners:
            self._epoll.register(fd, _ARM)
        self._pool = _DispatchPool(dispatch_workers)
        for _ in range(_CORE_THREADS):
            self._spawn()
        self._watcher = threading.Thread(target=self._watch, daemon=True,
                                         name="repro-core-watch")
        self._watcher.start()

    # -- core threads -----------------------------------------------------------

    def _spawn(self) -> None:
        thread = threading.Thread(target=self._run, daemon=True,
                                  name=f"repro-core-{next(self._names)}")
        with self._lock:  # started under it: close() never joins an unstarted one
            if not self._running:
                return
            self._threads.add(thread)
            self._idle += 1
            thread.start()

    def _run(self) -> None:
        """A core thread: wait for one ready socket, serve it, repeat."""
        while True:
            try:
                events = self._epoll.poll(_CORE_IDLE_SECONDS, 1)
            except (OSError, ValueError):  # the epoll closed under a straggler
                events = None
            with self._lock:
                if (not self._running or events is None
                        or (not events and self._idle > _CORE_THREADS)):
                    self._idle -= 1
                    self._threads.discard(threading.current_thread())
                    return
                if not events:
                    continue
                self._idle -= 1
                if not self._idle and not self._unwatched.is_set():
                    self._unwatched.set()
            try:
                self._serve(events[0][0])  # the reply send included
            except Exception:  # noqa: BLE001 — a bug must not cost the core a thread
                _log.exception("server core event failed")
            with self._lock:
                self._idle += 1
                self._served += 1

    def _watch(self) -> None:
        """Start one more core thread whenever the sockets have gone
        unwatched, with no event finished, for ``_UNWATCHED_SECONDS``."""
        while self._unwatched.wait() and self._running:
            served = self._served
            time.sleep(_UNWATCHED_SECONDS)
            with self._lock:
                stuck = not self._idle and self._served == served
                if self._idle:
                    self._unwatched.clear()
            if stuck:
                self._spawn()

    def _serve(self, fd: int) -> None:
        """Own the ready socket ``fd``: accept, or answer what it holds."""
        conn = self._conns.get(fd)
        if conn is None:
            if fd in self._listeners:
                self._accept(*self._listeners[fd])
        elif conn.out is None:
            self._serve_http(conn)
        else:
            first = self._pump(conn, inline=True)
            if first is not None:
                conn.out.push(self._dispatch(first))

    def _arm(self, fd: int, first: bool = False) -> None:
        try:
            (self._epoll.register if first else self._epoll.modify)(fd, _ARM)
        except (OSError, ValueError):
            pass  # closed under us: there is nothing left to watch

    def _accept(self, listener: socket.socket, gateway: bool) -> None:
        while True:
            try:
                sock, _addr = listener.accept()
            except OSError:  # drained, closed, or out of descriptors
                break
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # on accepted sockets too, or their TIME_WAIT remnants keep a
            # restarted transport from rebinding while old clients linger
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            conn = _Connection(sock, None if gateway else self._send_replies)
            with self._lock:
                if not self._running:
                    sock.close()
                    return
                self._conns[conn.fd] = conn
                self._m_open.set(len(self._conns))
            self._m_connections.inc()
            self._arm(conn.fd, first=True)
        self._arm(listener.fileno())

    # -- the binary protocol ----------------------------------------------------

    def _read(self, conn: _Connection) -> Tuple[list, Optional[bool]]:
        """Owner only: the whole frames ``conn`` holds, at most the
        in-flight room, and how reading stopped — True at the cap, False
        drained, None at end of stream or lost framing."""
        sock, pending = conn.sock, conn.pending
        frames = []
        room = self._max_inflight - conn.inflight
        drained = False
        try:
            while len(frames) < room:
                want = _RECV_SIZE
                if len(pending) >= _LEN.size:
                    (length,) = _LEN.unpack_from(pending)
                    if length > _MAX_FRAME:
                        self._m_frame_errors.inc()
                        return frames, None
                    end = _LEN.size + length
                    if len(pending) >= end:
                        frames.append(pending[_LEN.size:end])
                        del pending[:end]
                        continue
                    want = max(want, end - len(pending))  # a large frame's rest
                if drained:
                    return frames, False
                chunk = sock.recv(want)
                if not chunk:
                    return frames, None
                pending += chunk
                # a short read emptied the socket: parse, then stop
                drained = len(chunk) < want
        except BlockingIOError:
            return frames, False
        except OSError:
            return frames, None
        return frames, True

    def _pump(self, conn: _Connection, inline: bool) -> Optional[bytearray]:
        """Owner only: read what ``conn`` holds, queue the frames on the
        pool (all but the first, returned, when ``inline``), then give
        the socket up: re-armed, parked at the cap, or ended."""
        first = None
        while True:
            frames, at_cap = self._read(conn)
            with self._lock:
                conn.inflight += len(frames)
                self._inflight += len(frames)
                if inline and first is None and frames:
                    first = frames.pop(0)
                # under the lock, ahead of any re-arm or un-park: this
                # connection's frames enter the FIFO pool in read order
                for frame in frames:
                    self._pool.submit(partial(self._answer, conn, frame))
                if at_cap is None:
                    conn.closed = True
                    self._conns.pop(conn.fd, None)
                    self._m_open.set(len(self._conns))
                    if not conn.inflight:
                        conn.sock.close()
                    return first
                if conn.inflight >= self._max_inflight:
                    conn.parked = True
                    return first
                if not at_cap:  # else replies left meanwhile: read on
                    break
        self._arm(conn.fd)
        return first

    def _dispatch(self, frame: bytes) -> Tuple[int, int, bytes, float]:
        """Decode one request frame, dispatch it, return ``(nonce, seq,
        reply, finished)``.

        A malformed header or a dispatcher exception is answered with an
        encoded ErrorReply and the connection survives; a reply to an
        unparseable header carries the reserved ``(0, 0)`` identity.
        """
        try:
            (id_length,) = _LEN.unpack_from(frame, 0)
            header_end = _LEN.size + id_length + 2 * _SEQ.size
            if header_end > len(frame):
                raise TransportError(
                    f"request header claims {id_length} id bytes but the "
                    f"frame holds {len(frame)}")
            client_id = frame[_LEN.size:_LEN.size + id_length].decode("utf-8")
            (nonce,) = _SEQ.unpack_from(frame, _LEN.size + id_length)
            (seq,) = _SEQ.unpack_from(frame, _LEN.size + id_length + _SEQ.size)
            payload = bytes(memoryview(frame)[header_end:])
        except (struct.error, UnicodeDecodeError, TransportError) as exc:
            self._m_frame_errors.inc()
            return (0, 0, encode_message(ErrorReply(
                f"malformed request frame: {exc}")), time.perf_counter())
        self._m_requests.inc()
        self._m_bytes_received.inc(len(frame))
        try:
            reply = self.reply_cache.execute(
                client_id, seq,
                lambda: self._dispatcher.dispatch(client_id, payload),
                nonce=nonce)
        except Exception as exc:  # noqa: BLE001 — any dispatcher bug
            self._m_dispatch_errors.inc()
            reply = encode_message(ErrorReply(f"request failed: {exc}"))
        self._m_bytes_sent.inc(len(reply))
        return nonce, seq, reply, time.perf_counter()

    def _answer(self, conn: _Connection, frame: bytes) -> None:
        """Pool task: dispatch one frame and send its reply."""
        conn.out.push(self._dispatch(frame))

    def _writable(self, sock: socket.socket) -> None:
        poller = select.poll()
        poller.register(sock, select.POLLOUT)
        if not poller.poll(self._stall_ms):
            raise socket.timeout("peer stopped reading")

    def _send_replies(self, conn: _Connection, batch: list) -> None:
        """The send section's socket call: one gathered ``sendmsg``."""
        now = time.perf_counter()
        buffers = []
        for nonce, seq, reply, finished in batch:
            self._m_reply_queue_wait.observe(now - finished)
            buffers += (_REPLY_PREFIX.pack(_REPLY_HEADER + len(reply), nonce, seq),
                        reply)
        self._m_reply_batch.observe(len(batch))
        try:
            _sendmsg_all(conn.sock, buffers, partial(self._writable, conn.sock))
        except (OSError, ValueError) as exc:
            if isinstance(exc, socket.timeout):
                self._m_slow_drops.inc()
            _shutdown(conn.sock)  # the owner reads end of stream and ends it
        finally:
            self._release(conn, len(batch))

    def _release(self, conn: _Connection, count: int) -> None:
        """``count`` replies of ``conn`` left (or failed): un-park it at
        the cap, close it once ended and answered."""
        with self._lock:
            conn.inflight -= count
            self._inflight -= count
            if not self._inflight and not self._running:
                self._drained.notify_all()
            unpark = conn.parked and conn.inflight < self._max_inflight
            conn.parked = conn.parked and not unpark
            ended = conn.closed and not conn.inflight
        if unpark:
            self._pump(conn, inline=False)
        elif ended:
            conn.sock.close()

    # -- the HTTP/1.1 JSON gateway ----------------------------------------------

    def _serve_http(self, conn: _Connection) -> None:
        """Owner only: answer the whole request heads ``conn`` holds, in
        order, then re-arm it or end it."""
        sock, pending = conn.sock, conn.pending
        try:
            chunk = sock.recv(_RECV_SIZE)
        except BlockingIOError:
            chunk = None
        except OSError:
            chunk = b""
        pending += chunk or b""
        alive = chunk != b""  # end of stream: answer what came, then end
        responses = []
        while True:
            end = pending.find(b"\r\n\r\n")
            if 0 <= end <= _GATEWAY_HEAD_LIMIT:
                status, body, keep_alive = self._http_answer(bytes(pending[:end]))
                del pending[:end + 4]
            elif len(pending) > _GATEWAY_HEAD_LIMIT:
                status, body, keep_alive = (
                    431, {"error": "request head too large"}, False)
            else:
                break
            responses.append(_http_response(status, body, keep_alive))
            if not keep_alive:
                alive = False
                break
        if responses:
            try:
                _sendmsg_all(sock, responses, partial(self._writable, sock))
            except (OSError, ValueError):
                alive = False
        if alive:
            self._arm(conn.fd)
            return
        with self._lock:
            self._conns.pop(conn.fd, None)
            self._m_open.set(len(self._conns))
            sock.close()

    def _http_answer(self, head: bytes) -> tuple:
        """One request head in, ``(status, body, keep_alive)`` out.  GET
        only, and no bodies: the gateway is read-only, so nothing ever
        needs to consume an entity body."""
        self._m_gateway_requests.inc()
        try:
            request_line, *lines = head.decode("latin-1").split("\r\n")
            method, target, version = request_line.split(" ", 2)
        except ValueError:
            return 400, {"error": "malformed request line"}, False
        headers = {name.strip().lower(): value.strip() for name, sep, value
                   in (line.partition(":") for line in lines) if sep}
        # a body this gateway will not read means the connection cannot
        # be reused
        has_body = (headers.get("content-length", "0") not in ("", "0")
                    or "chunked" in headers.get("transfer-encoding", "").lower())
        keep_alive = (version.upper() != "HTTP/1.0" and not has_body
                      and headers.get("connection", "").lower() != "close")
        if method.upper() != "GET":
            return 405, {"error": f"method {method} not allowed"}, keep_alive
        if has_body:
            return 400, {"error": "request bodies are not accepted"}, False
        path = target.split("?", 1)[0]
        read_segment = getattr(self._dispatcher, "read_segment_json", None)
        try:
            if path == "/stats":
                # the real GetStats: every role (server, proxy, directory)
                # answers it, so the gateway works wherever it is mounted
                reply = decode_message(self._dispatcher.dispatch(
                    "gateway", encode_message(GetStatsRequest("gateway"))))
                if isinstance(reply, GetStatsReply):
                    return 200, reply.payload, keep_alive
                return 502, {"error": getattr(reply, "message", str(reply))}, \
                    keep_alive
            if not path.startswith("/segments/") or path == "/segments/":
                return 404, {"error": f"no route for {path}"}, keep_alive
            if read_segment is None:  # a relay or a directory
                return 501, {"error": "segment reads need an origin server"}, \
                    keep_alive
            return 200, read_segment(unquote(path[len("/segments/"):])), keep_alive
        except ServerError as exc:
            return 404, {"error": str(exc)}, keep_alive
        except Exception as exc:  # noqa: BLE001 — a handler bug must answer
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, keep_alive

    # -- shutdown ---------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if not self._running:
                return
            self._running = False
            threads = list(self._threads)
            conns = list(self._conns.values())
            self._conns.clear()
        self._m_open.set(0)
        os.write(self._wake_w, b"x")
        self._unwatched.set()
        # no thread ever blocks in accept(), so closing releases the port
        for sock, _gateway in self._listeners.values():
            sock.close()
        # peers see end of stream at once; replies still being sent fail
        for conn in conns:
            _shutdown(conn.sock)
        # a dispatch wedged past the bound must not block shutdown
        deadline = time.monotonic() + 1.0
        for thread in threads + [self._watcher]:
            if thread is not threading.current_thread():  # closed by a dispatch
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._lock:
            self._drained.wait_for(lambda: not self._inflight,
                                   max(0.0, deadline - time.monotonic()))
        for conn in conns:
            conn.sock.close()
        self._pool.close()
        self._epoll.close()
        os.close(self._wake_r)
        os.close(self._wake_w)


def _listen(host: str, port: int) -> socket.socket:
    # SO_REUSEADDR, and a backlog deep enough for a reconnect storm
    sock = socket.create_server((host, port), backlog=512)
    sock.setblocking(False)
    return sock


def _shutdown(sock: socket.socket) -> None:
    with suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)


def _http_response(status: int, body, keep_alive: bool) -> bytes:
    """``body`` is a JSON text already (GetStats) or a value to encode."""
    if not isinstance(body, str):
        body = json.dumps(body, sort_keys=True)
    payload = body.encode("utf-8")
    head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n")
    return head.encode("latin-1") + payload
