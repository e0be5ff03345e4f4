"""TCP transport: length-prefixed frames over real sockets.

The wire protocol is trivially framed: every message (request or reply)
is a 4-byte big-endian length followed by that many payload bytes.  A
request frame carries a header — client id, a random per-channel session
nonce, and a per-channel sequence number — ahead of the message payload
(so the server can attribute lock state and deduplicate retries without
confusing two channels that reuse a client id).  A reply frame echoes
the request's nonce and sequence number in a 16-byte header ahead of the
message, so replies can be matched to requests by sequence number rather
than by arrival order: many requests may be in flight on one socket and
replies may return out of order.  The reserved pair ``(0, 0)`` marks a
reply to a frame whose header could not be parsed and is therefore
unattributable.

This module holds the framing helpers and the threaded server; the
client, :class:`~repro.transport.TCPChannel`, lives in
``repro.transport.mux``.  The server gives each connection two threads
that take turns holding its *read role*: the thread that read a frame
dispatches it and sends the reply on its own stack while its sibling
reads on, and frames arriving meanwhile go to a shared dispatch pool, so
a slow dispatch never blocks faster replies on the same socket.
Whichever thread finished a dispatch sends the reply
(:class:`_SendCombiner`, which the client shares): replies that pile up
behind a send leave in a single ``sendmsg`` while a lone reply still goes
out immediately (``TCP_NODELAY`` stays set).  Push notifications are not
supported over this transport (``can_push = False``); clients fall back
to polling, exactly the degraded mode the paper's adaptive protocol
anticipates.

Fault tolerance (see ``docs/ROBUSTNESS.md``): the server answers
malformed frames and dispatcher failures with an encoded ``ErrorReply``
and keeps the connection alive, and a :class:`~repro.transport.ReplyCache`
makes re-sent requests idempotent: a sequence number the server already
processed is answered from the cache without re-dispatching, and a
duplicate racing its original dispatch waits and shares the reply.
"""

from __future__ import annotations

import logging
import queue
import socket
import struct
import threading
import time
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import TransportError
from repro.obs.metrics import get_registry
from repro.transport.base import Dispatcher, ReplyCache
from repro.wire.messages import ErrorReply, encode_message

_log = logging.getLogger("repro.transport.tcp")

_LEN = struct.Struct(">I")
_SEQ = struct.Struct(">Q")
_MAX_FRAME = 1 << 30
#: a reply payload leads with the echoed (nonce, seq) pair
_REPLY_HEADER = 2 * _SEQ.size
#: cap on frames coalesced into one sendmsg (keeps the iovec and the
#: latency of any single batch bounded; well under IOV_MAX)
_MAX_REPLY_BATCH = 32

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


def _recv_exact(sock: socket.socket, size: int) -> Optional[bytes]:
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> Optional[bytes]:
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > _MAX_FRAME:
        raise TransportError(f"frame of {length} bytes exceeds limit")
    return _recv_exact(sock, length)


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


class RequestFrameCore:
    """Shared request-frame decode/dispatch core for server transports.

    Both the thread-per-connection server below and the asyncio server
    (``repro.transport.aio``) speak the identical wire protocol and
    answer through the same :class:`ReplyCache`; this mixin keeps the
    header parsing, dedup, and error-answering semantics in one place so
    the two backends cannot drift.  Subclasses must set
    ``self._dispatcher`` and ``self.reply_cache`` before calling
    :meth:`_init_frame_metrics`.
    """

    def _init_frame_metrics(self) -> None:
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

    def _handle_frame(self, frame: bytes) -> Tuple[int, int, bytes]:
        """Decode one request frame, dispatch it, return (nonce, seq, reply).

        A malformed header (short client-id prefix, bad UTF-8, missing
        nonce or sequence number) or a dispatcher exception must not kill
        the connection: both are answered with an encoded ErrorReply so
        the client sees a typed failure and the connection survives.  A
        reply to an unparseable header carries the reserved ``(0, 0)``
        identity, since the request's own could not be read.
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
            payload = frame[header_end:]
        except (struct.error, UnicodeDecodeError, TransportError) as exc:
            self._m_frame_errors.inc()
            return 0, 0, encode_message(ErrorReply(f"malformed request frame: {exc}"))
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
        return nonce, seq, reply


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
        self._threads = []
        for index in range(workers):
            thread = threading.Thread(
                target=self._worker, name=f"repro-dispatch-{index}", daemon=True)
            thread.start()
            self._threads.append(thread)

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
        for _ in self._threads:
            self._queue.put(None)


class _Link:
    """One accepted connection: the socket and what its two threads share."""

    def __init__(self, sock: socket.socket, max_inflight: int, flush):
        self.sock = sock
        #: held around ``_recv_frame`` only, never across a dispatch
        self.read_role = threading.Lock()
        self.out = _SendCombiner(flush)
        # bounds dispatches in flight for this connection: a client that
        # floods frames faster than the dispatcher drains them stalls in
        # the kernel send buffer instead of growing the pool's queue
        self.inflight = threading.BoundedSemaphore(max_inflight)
        #: a connection thread is dispatching on its own stack
        self.inline = False
        #: end of stream or lost framing: nothing more is read
        self.closed = False


class TCPServerTransport(RequestFrameCore):
    """Accepts connections and feeds requests to a :class:`Dispatcher`.

    A connection's two threads take turns holding its *read role*: the
    thread that read a frame passes the role on and dispatches and sends
    on its own stack (a serial client is served with no hand-off), and
    frames read meanwhile go to a shared dispatch pool, so requests from
    one connection — a pipelined client has many in flight — dispatch
    concurrently, relying on the Dispatcher thread-safety contract, and
    a slow dispatch never blocks faster replies on the same socket.
    Replies leave through the connection's :class:`_SendCombiner`: those
    that pile up behind a send coalesce into one ``sendmsg``.  Retried
    sequence numbers stay idempotent through the :class:`ReplyCache`,
    which also makes a duplicate racing its original dispatch wait and
    share the reply instead of re-dispatching.

    A shared :class:`ReplyCache` may be passed in so a restarted
    transport keeps deduplicating retries that straddle the restart;
    by default each transport owns a fresh cache.
    """

    def __init__(self, dispatcher: Dispatcher, host: str = "127.0.0.1",
                 port: int = 0, reply_cache: Optional[ReplyCache] = None,
                 dispatch_workers: int = 8, max_inflight: int = 64):
        self._dispatcher = dispatcher
        self.reply_cache = reply_cache if reply_cache is not None else ReplyCache()
        self._max_inflight = max_inflight
        self._init_frame_metrics()
        self._pool = _DispatchPool(dispatch_workers)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        # deep backlog: a reconnect storm after a failover (or the
        # connection-scale bench) arrives faster than threads spawn
        self._listener.listen(512)
        self.host, self.port = self._listener.getsockname()
        self._running = True
        self._threads = []
        self._conn_lock = threading.Lock()
        self._conns = set()
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            with self._conn_lock:
                if not self._running:
                    try:
                        conn.close()
                    except OSError:
                        pass
                    return
                self._conns.add(conn)
                self._m_open.set(len(self._conns))
            self._spawn(f"repro-conn-{conn.fileno()}a", self._serve, conn)

    def _spawn(self, name: str, target, *args) -> threading.Thread:
        thread = threading.Thread(target=target, args=args, name=name,
                                  daemon=True)
        with self._conn_lock:
            self._threads.append(thread)
        thread.start()
        return thread

    def _serve(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # accepted sockets must carry SO_REUSEADDR themselves, or their
        # FIN_WAIT/TIME_WAIT remnants block a restarted transport from
        # rebinding the port while old clients are still attached
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._m_connections.inc()
        link = _Link(conn, self._max_inflight,
                     lambda batch: self._send_replies(conn, batch))
        sibling = self._spawn(f"repro-conn-{conn.fileno()}b",
                              self._take_turns, link)
        try:
            self._take_turns(link)
            sibling.join()  # it may still be answering its last frame
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
                self._m_open.set(len(self._conns))
                # reap this connection's thread records as it closes: a
                # burst-then-idle workload must not pin the peak
                # thread-object list until the next accept
                mine = (sibling, threading.current_thread())
                self._threads = [t for t in self._threads if t not in mine]
            # a reply still in a pool worker's hands is for a client that
            # is gone (or a transport shutting down): its send just fails
            try:
                conn.close()
            except OSError:
                pass

    def _take_turns(self, link: _Link) -> None:
        """Both connection threads: read until a frame is this thread's
        to answer, pass the read role on, answer it, repeat."""
        while True:
            with link.read_role:
                frame = self._read_own_frame(link)
            if frame is None:
                return
            self._answer(link, frame, inline=True)

    def _read_own_frame(self, link: _Link) -> Optional[bytes]:
        """Holding the read role: the next frame to dispatch on the caller's
        stack (frames read while its sibling does so are pooled), or None."""
        try:
            while self._running and not link.closed:
                frame = _recv_frame(link.sock)
                if frame is None:
                    break
                while not link.inflight.acquire(timeout=0.1):
                    if not self._running:
                        return None
                if not link.inline:
                    link.inline = True
                    return frame
                self._pool.submit(lambda f=frame: self._answer(link, f))
        except TransportError:
            self._m_frame_errors.inc()  # oversized frame: framing is lost
        except OSError:
            pass
        link.closed = True
        return None

    def _answer(self, link: _Link, frame: bytes, inline: bool = False) -> None:
        """Dispatch one frame and send its reply, on the calling thread."""
        try:
            nonce, seq, reply = self._handle_frame(frame)
        finally:
            # ahead of the send: a serial client's next frame follows its
            # reply at once, and must find the connection free for it
            if inline:
                link.inline = False
            link.inflight.release()
        link.out.push((nonce, seq, reply, time.perf_counter()))

    def _send_replies(self, conn: socket.socket, batch: list) -> None:
        """The send section's socket call: one gathered ``sendmsg``."""
        now = time.perf_counter()
        buffers = []
        for nonce, seq, reply, finished in batch:
            self._m_reply_queue_wait.observe(now - finished)
            buffers.append(_LEN.pack(_REPLY_HEADER + len(reply)))
            buffers.append(_SEQ.pack(nonce))
            buffers.append(_SEQ.pack(seq))
            buffers.append(reply)
        self._m_reply_batch.observe(len(batch))
        try:
            _sendmsg_all(conn, buffers)
        except OSError:
            try:
                conn.shutdown(socket.SHUT_RDWR)  # the reader ends the link
            except OSError:
                pass

    def close(self) -> None:
        self._running = False
        # shutdown() wakes the thread blocked in accept(); close() alone
        # leaves the in-flight syscall holding the listening socket open,
        # which keeps the port bound after this method returns
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._conn_lock:
            conns = list(self._conns)
            self._conns.clear()
            self._m_open.set(0)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=1.0)
        with self._conn_lock:
            threads, self._threads = self._threads, []
        for thread in threads:
            thread.join(timeout=1.0)
        self._pool.close()
