"""Tests for transports: in-process hub and real TCP sockets."""

import socket
import struct
import threading
import time

import pytest

from tests._support import SERVER_BACKENDS, make_server_transport

from repro.errors import TransportError, TransportTimeout
from repro.transport import (
    AsyncTCPServerTransport,
    Dispatcher,
    InProcHub,
    MultiplexingChannel,
    NetworkModel,
    ReplyCache,
    RetryPolicy,
    TCPChannel,
    TCPServerTransport,
)
from repro.transport import tcp as tcp_module
from repro.util.clock import VirtualClock
from repro.wire.messages import ErrorReply, decode_message


class EchoServer(Dispatcher):
    def __init__(self):
        self.seen = []

    def dispatch(self, client_id, data):
        self.seen.append((client_id, bytes(data)))
        return b"echo:" + data


class TestInProc:
    def test_request_reply(self):
        hub = InProcHub()
        server = EchoServer()
        hub.register_server("s", server)
        channel = hub.connect("s", "c1")
        assert channel.request(b"hello") == b"echo:hello"
        assert server.seen == [("c1", b"hello")]

    def test_byte_accounting(self):
        hub = InProcHub()
        hub.register_server("s", EchoServer())
        channel = hub.connect("s", "c1")
        channel.request(b"12345")
        assert channel.stats.bytes_sent == 5
        assert channel.stats.bytes_received == 10  # "echo:12345"
        assert channel.stats.requests == 1

    def test_rejects_non_bytes(self):
        hub = InProcHub()
        hub.register_server("s", EchoServer())
        channel = hub.connect("s", "c1")
        with pytest.raises(TransportError):
            channel.request("not bytes")

    def test_unknown_server(self):
        hub = InProcHub()
        with pytest.raises(TransportError):
            hub.connect("nope", "c1")

    def test_duplicate_server_rejected(self):
        hub = InProcHub()
        hub.register_server("s", EchoServer())
        with pytest.raises(TransportError):
            hub.register_server("s", EchoServer())

    def test_push_notifications(self):
        hub = InProcHub()
        hub.register_server("s", EchoServer())
        channel = hub.connect("s", "c1")
        received = []
        channel.set_notification_handler(received.append)
        assert hub.push("c1", b"wake up")
        assert received == [b"wake up"]
        assert channel.stats.notifications == 1

    def test_push_to_unknown_client(self):
        hub = InProcHub()
        assert not hub.push("ghost", b"x")

    def test_push_without_handler(self):
        hub = InProcHub()
        hub.register_server("s", EchoServer())
        hub.connect("s", "c1")
        assert not hub.push("c1", b"x")

    def test_closed_channel_rejects(self):
        hub = InProcHub()
        hub.register_server("s", EchoServer())
        channel = hub.connect("s", "c1")
        channel.close()
        with pytest.raises(TransportError):
            channel.request(b"x")
        assert not hub.push("c1", b"x")

    def test_network_model_advances_virtual_clock(self):
        clock = VirtualClock()
        hub = InProcHub(clock=clock, network=NetworkModel(latency=0.01,
                                                          bandwidth=1000))
        hub.register_server("s", EchoServer())
        channel = hub.connect("s", "c1")
        channel.request(b"x" * 100)  # 100 bytes out, 105 back
        # 2 messages of latency + 205 bytes / 1000 B/s
        assert clock.now() == pytest.approx(0.02 + 0.205)


class TestNetworkModel:
    def test_latency_only(self):
        assert NetworkModel(latency=0.5).transfer_time(10**6) == 0.5

    def test_bandwidth(self):
        model = NetworkModel(latency=0.1, bandwidth=100.0)
        assert model.transfer_time(50) == pytest.approx(0.6)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(latency=-1)
        with pytest.raises(ValueError):
            NetworkModel(bandwidth=0)


class TestTCP:
    @pytest.fixture(params=SERVER_BACKENDS)
    def server(self, request):
        dispatcher = EchoServer()
        transport = make_server_transport(request.param, dispatcher)
        yield transport, dispatcher
        transport.close()

    def test_request_reply(self, server):
        transport, dispatcher = server
        channel = TCPChannel("127.0.0.1", transport.port, "tcp-client")
        try:
            assert channel.request(b"ping") == b"echo:ping"
            assert dispatcher.seen == [("tcp-client", b"ping")]
        finally:
            channel.close()

    def test_large_payload(self, server):
        transport, _ = server
        channel = TCPChannel("127.0.0.1", transport.port, "c")
        try:
            payload = bytes(range(256)) * 4096  # 1 MiB
            assert channel.request(payload) == b"echo:" + payload
        finally:
            channel.close()

    def test_multiple_clients(self, server):
        transport, dispatcher = server
        channels = [TCPChannel("127.0.0.1", transport.port, f"c{i}")
                    for i in range(4)]
        try:
            results = {}

            def work(index):
                results[index] = channels[index].request(f"m{index}".encode())

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert results == {i: f"echo:m{i}".encode() for i in range(4)}
        finally:
            for channel in channels:
                channel.close()

    def test_sequential_requests_on_one_connection(self, server):
        transport, _ = server
        channel = TCPChannel("127.0.0.1", transport.port, "c")
        try:
            for i in range(20):
                assert channel.request(f"n{i}".encode()) == f"echo:n{i}".encode()
        finally:
            channel.close()

    def test_cannot_push(self, server):
        transport, _ = server
        channel = TCPChannel("127.0.0.1", transport.port, "c")
        try:
            assert not channel.can_push
            with pytest.raises(NotImplementedError):
                channel.set_notification_handler(lambda data: None)
        finally:
            channel.close()

    @pytest.mark.parametrize("backend", SERVER_BACKENDS)
    def test_slow_reply_raises_typed_timeout(self, backend):
        class StalledServer(Dispatcher):
            def dispatch(self, client_id, data):
                time.sleep(2.0)
                return data

        transport = make_server_transport(backend, StalledServer())
        try:
            channel = TCPChannel("127.0.0.1", transport.port, "c", timeout=0.2)
            try:
                with pytest.raises(TransportTimeout) as info:
                    channel.request(b"ping")
                # the typed subclass still satisfies generic handlers
                assert isinstance(info.value, TransportError)
            finally:
                channel.close()
        finally:
            transport.close()

    def test_connect_refused_raises_transport_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(TransportError):
            TCPChannel("127.0.0.1", port, "c", timeout=0.5)


_LEN = struct.Struct(">I")
_SEQ = struct.Struct(">Q")


def _read_reply(sock):
    """Read one reply frame: ``(nonce, seq, message)``."""
    (length,) = _LEN.unpack(sock.recv(4, socket.MSG_WAITALL))
    reply = sock.recv(length, socket.MSG_WAITALL)
    assert len(reply) >= 16
    return (_SEQ.unpack_from(reply, 0)[0], _SEQ.unpack_from(reply, 8)[0],
            reply[16:])


def _raw_exchange(sock, frame, expect=None):
    """Send one pre-built frame and read back the reply message.

    Replies lead with a 16-byte (nonce, seq) echo header; ``expect``
    asserts its value — ``(0, 0)`` marks an unattributable reply to a
    frame whose header could not be parsed.
    """
    sock.sendall(_LEN.pack(len(frame)) + frame)
    nonce, seq, message = _read_reply(sock)
    if expect is not None:
        assert (nonce, seq) == expect
    return message


class TestTCPFaultPaths:
    """The server must answer bad input with ErrorReply, not die."""

    @pytest.fixture(params=SERVER_BACKENDS)
    def server(self, request):
        dispatcher = EchoServer()
        transport = make_server_transport(request.param, dispatcher)
        yield transport, dispatcher
        transport.close()

    def test_malformed_frame_answered_and_connection_survives(self, server):
        transport, dispatcher = server
        sock = socket.create_connection(("127.0.0.1", transport.port),
                                        timeout=2.0)
        try:
            # header claims a 100-byte client id but the frame is 9 bytes:
            # before the fix this struct/bounds error killed the thread
            reply = decode_message(
                _raw_exchange(sock, _LEN.pack(100) + b"short", expect=(0, 0)))
            assert isinstance(reply, ErrorReply)
            assert "malformed" in reply.message
            # same connection, now a valid frame: the link must still work
            good = _LEN.pack(1) + b"c" + _SEQ.pack(7) + _SEQ.pack(1) + b"ping"
            assert _raw_exchange(sock, good, expect=(7, 1)) == b"echo:ping"
            assert dispatcher.seen == [("c", b"ping")]
        finally:
            sock.close()

    def test_bad_utf8_client_id_answered(self, server):
        transport, dispatcher = server
        sock = socket.create_connection(("127.0.0.1", transport.port),
                                        timeout=2.0)
        try:
            frame = _LEN.pack(2) + b"\xff\xfe" + _SEQ.pack(7) + _SEQ.pack(1) + b"x"
            reply = decode_message(_raw_exchange(sock, frame))
            assert isinstance(reply, ErrorReply)
            assert dispatcher.seen == []
        finally:
            sock.close()

    @pytest.mark.parametrize("backend", SERVER_BACKENDS)
    def test_dispatcher_exception_answered_and_connection_survives(self, backend):
        class Flaky(Dispatcher):
            def __init__(self):
                self.calls = 0

            def dispatch(self, client_id, data):
                self.calls += 1
                if data == b"boom":
                    raise ValueError("dispatcher bug")
                return b"ok:" + data

        dispatcher = Flaky()
        transport = make_server_transport(backend, dispatcher)
        channel = TCPChannel("127.0.0.1", transport.port, "c")
        try:
            reply = decode_message(channel.request(b"boom"))
            assert isinstance(reply, ErrorReply)
            assert "dispatcher bug" in reply.message
            # the connection thread survived the exception
            assert channel.request(b"fine") == b"ok:fine"
            assert dispatcher.calls == 2
        finally:
            channel.close()
            transport.close()

    @pytest.mark.parametrize("backend", SERVER_BACKENDS)
    def test_timed_out_socket_is_never_reused(self, backend):
        """After a timeout the reply is still in flight; reusing the
        socket would hand request N's reply to request N+1."""

        class SlowFirst(Dispatcher):
            def __init__(self):
                self.calls = 0

            def dispatch(self, client_id, data):
                self.calls += 1
                if self.calls == 1:
                    time.sleep(1.0)
                return b"echo:" + data

        transport = make_server_transport(backend, SlowFirst())
        # the timeout must outlast the remainder of the first dispatch:
        # the server serializes one client's requests (reply-cache session
        # lock), so request "b" queues behind the sleeping dispatch of "a"
        channel = TCPChannel("127.0.0.1", transport.port, "c", timeout=0.6)
        try:
            with pytest.raises(TransportTimeout):
                channel.request(b"a")
            assert not channel.health()["connected"]
            # the retry reconnects; the stale "echo:a" died with the socket
            assert channel.request(b"b") == b"echo:b"
        finally:
            channel.close()
            transport.close()

    @pytest.mark.parametrize("backend", SERVER_BACKENDS)
    def test_close_reaps_threads_and_closes_connections(self, backend):
        dispatcher = EchoServer()
        transport = make_server_transport(backend, dispatcher)
        channels = [TCPChannel("127.0.0.1", transport.port, f"c{i}")
                    for i in range(4)]
        try:
            for i, channel in enumerate(channels):
                channel.request(f"m{i}".encode())
            transport.close()
            if backend == "threads":
                assert transport._threads == []
                assert transport._conns == set()
            else:
                assert transport.connection_count() == 0
            # live clients see a typed disconnect, not a hang
            with pytest.raises(TransportError):
                channels[0].request(b"after")
        finally:
            for channel in channels:
                channel.close()

    def test_connection_close_reaps_serve_thread(self):
        """A burst of connections that then close must not pin thread
        records until the next accept (reap-on-close, not on-accept)."""
        transport = TCPServerTransport(EchoServer())
        try:
            channels = [TCPChannel("127.0.0.1", transport.port, f"c{i}")
                        for i in range(8)]
            for i, channel in enumerate(channels):
                channel.request(f"m{i}".encode())
            for channel in channels:
                channel.close()
            deadline = time.time() + 5.0
            while transport._threads:
                assert time.time() < deadline, (
                    f"{len(transport._threads)} serve-thread records "
                    "still pinned after every connection closed")
                time.sleep(0.01)
        finally:
            transport.close()

    @pytest.mark.parametrize("backend", SERVER_BACKENDS)
    @pytest.mark.parametrize("restart_backend", SERVER_BACKENDS)
    def test_port_is_released_synchronously_on_close(self, backend,
                                                     restart_backend):
        dispatcher = EchoServer()
        first = make_server_transport(backend, dispatcher)
        port = first.port
        channel = TCPChannel("127.0.0.1", port, "c")
        channel.request(b"x")
        first.close()
        # a restarted server must be able to rebind at once, even with
        # the old client's half-closed socket still lingering (and the
        # backends must be interchangeable across the restart)
        second = make_server_transport(restart_backend, dispatcher, port=port,
                                       reply_cache=first.reply_cache)
        try:
            channel.break_connection()
            assert channel.request(b"y") == b"echo:y"
        finally:
            channel.close()
            second.close()


# ---------------------------------------------------------------------------
# run to completion: who dispatches, who sends, and what is left behind
# ---------------------------------------------------------------------------

class ThreadRecorder(Dispatcher):
    """Echo that records which thread ran each dispatch; payloads
    starting with ``slow`` are held until ``release`` is set."""

    def __init__(self):
        self.lock = threading.Lock()
        self.threads = {}
        self.counts = {}
        self.release = threading.Event()
        self.entered = threading.Event()

    def dispatch(self, client_id, data):
        data = bytes(data)
        with self.lock:
            self.threads[data] = threading.current_thread().name
            self.counts[data] = self.counts.get(data, 0) + 1
        if data.startswith(b"slow"):
            self.entered.set()
            assert self.release.wait(timeout=10.0)
        return b"echo:" + data


def _frame(seq, payload, nonce=7, client=b"raw"):
    body = (_LEN.pack(len(client)) + client + _SEQ.pack(nonce)
            + _SEQ.pack(seq) + payload)
    return _LEN.pack(len(body)) + body


def _wait_for(predicate, what, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def _threads_named(prefix):
    return [t for t in threading.enumerate() if t.name.startswith(prefix)]


class TestRunToCompletion:
    """The threaded core's request path: the thread that read a frame
    answers it, a busy connection falls back to the pool, replies still
    coalesce, and no failure leaves a thread (or a wedged worker) behind."""

    def test_serial_client_never_leaves_its_connection_threads(self):
        dispatcher = ThreadRecorder()
        transport = TCPServerTransport(dispatcher)
        channel = TCPChannel("127.0.0.1", transport.port, "serial")
        try:
            for i in range(200):
                assert channel.request(b"r%d" % i) == b"echo:r%d" % i
        finally:
            channel.close()
            transport.close()
        names = set(dispatcher.threads.values())
        assert len(dispatcher.threads) == 200
        assert all(name.startswith("repro-conn-") for name in names), names
        # the two threads of the one connection, nothing else
        assert len(names) <= 2

    def test_frames_behind_a_slow_dispatch_go_to_the_pool(self):
        dispatcher = ThreadRecorder()
        transport = TCPServerTransport(dispatcher)
        channel = MultiplexingChannel("127.0.0.1", transport.port,
                                      client_id="m", timeout=5.0)
        try:
            slow = channel.submit(b"slow:a")
            assert dispatcher.entered.wait(timeout=5.0)
            second = channel.submit(b"b")
            third = channel.submit(b"c")
            assert second.result(timeout=5.0) == b"echo:b"
            assert third.result(timeout=5.0) == b"echo:c"
            assert not slow.done()
            dispatcher.release.set()
            assert slow.result(timeout=5.0) == b"echo:slow:a"
        finally:
            dispatcher.release.set()
            channel.close()
            transport.close()
        assert dispatcher.threads[b"slow:a"].startswith("repro-conn-")
        assert dispatcher.threads[b"b"].startswith("repro-dispatch-")
        assert dispatcher.threads[b"c"].startswith("repro-dispatch-")

    def test_max_inflight_still_bounds_frames_read(self):
        dispatcher = ThreadRecorder()
        transport = TCPServerTransport(dispatcher, max_inflight=3)
        sock = socket.create_connection(("127.0.0.1", transport.port),
                                        timeout=5.0)
        try:
            sock.sendall(b"".join(_frame(i + 1, b"slow:%d" % i)
                                  for i in range(6)))
            _wait_for(lambda: len(dispatcher.counts) == 3, "three dispatches")
            time.sleep(0.1)  # a fourth permit would show up by now
            assert len(dispatcher.counts) == 3
            dispatcher.release.set()
            replies = dict(_read_reply(sock)[1:] for _ in range(6))
            assert replies == {i + 1: b"echo:slow:%d" % i for i in range(6)}
        finally:
            dispatcher.release.set()
            sock.close()
            transport.close()

    def test_replies_still_coalesce_under_a_backlog(self, monkeypatch):
        arrived = threading.Barrier(8)

        class Together(Dispatcher):
            def dispatch(self, client_id, data):
                arrived.wait(timeout=5.0)
                return b"echo:" + data

        real_send = tcp_module._sendmsg_all

        def slow_send(sock, buffers):
            time.sleep(0.02)  # a send "on the wire": the rest pile up
            real_send(sock, buffers)

        transport = TCPServerTransport(Together(), dispatch_workers=8)
        channel = MultiplexingChannel("127.0.0.1", transport.port,
                                      client_id="m", timeout=5.0)
        batches = transport._m_reply_batch
        count, total = batches.count, batches.sum
        errors = []

        def worker(index):
            try:
                payload = b"t%d" % index
                assert channel.request(payload) == b"echo:" + payload
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        monkeypatch.setattr(tcp_module, "_sendmsg_all", slow_send)
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
        finally:
            channel.close()
            transport.close()
        assert errors == []
        sends = batches.count - count
        assert batches.sum - total == 8
        assert sends < 8, "eight simultaneous replies took eight sendmsg calls"

    def test_open_close_soak_returns_to_thread_baseline(self):
        transport = TCPServerTransport(EchoServer())
        try:
            baseline = threading.active_count()
            for i in range(200):
                channel = TCPChannel("127.0.0.1", transport.port, f"c{i}")
                assert channel.request(b"x") == b"echo:x"
                channel.close()
            _wait_for(lambda: threading.active_count() <= baseline,
                      "connection threads to exit")
            assert transport._threads == []
            assert transport._conns == set()
        finally:
            transport.close()

    def test_failures_cost_one_connection_and_no_thread(self, monkeypatch):
        dispatcher = ThreadRecorder()
        transport = TCPServerTransport(dispatcher, dispatch_workers=2)
        real_send = tcp_module._sendmsg_all

        def poisoned_send(sock, buffers):
            if any(b"poison" in bytes(b) for b in buffers):
                raise OSError("injected send failure")
            real_send(sock, buffers)

        monkeypatch.setattr(tcp_module, "_sendmsg_all", poisoned_send)
        bystander = TCPChannel("127.0.0.1", transport.port, "bystander")
        try:
            assert bystander.request(b"before") == b"echo:before"
            baseline = threading.active_count()
            # a peer that disconnects while its request is dispatching
            gone = socket.create_connection(("127.0.0.1", transport.port))
            gone.sendall(_frame(1, b"slow:gone"))
            assert dispatcher.entered.wait(timeout=5.0)
            gone.close()
            # a reply whose sendmsg raises, on a pool worker: the inline
            # slot of this connection is taken by the held-open request
            bad = socket.create_connection(("127.0.0.1", transport.port),
                                           timeout=5.0)
            bad.sendall(_frame(1, b"slow:bad") + _frame(2, b"poison"))
            _wait_for(lambda: b"poison" in dispatcher.threads, "the poison")
            assert dispatcher.threads[b"poison"].startswith("repro-dispatch-")
            # the failed send drops that link: its peer sees end of stream
            assert bad.recv(4) == b""
            bad.close()
            dispatcher.release.set()
            _wait_for(lambda: threading.active_count() <= baseline,
                      "the dead connections' threads to exit")
            # nobody else noticed, and both pool workers still serve
            assert bystander.request(b"after") == b"echo:after"
            assert len(_threads_named("repro-dispatch-")) >= 2
            assert all(t.is_alive() for t in _threads_named("repro-dispatch-"))
        finally:
            dispatcher.release.set()
            bystander.close()
            transport.close()

    def test_oversized_frame_is_counted(self):
        transport = TCPServerTransport(EchoServer())
        before = transport._m_frame_errors.value
        sock = socket.create_connection(("127.0.0.1", transport.port),
                                        timeout=5.0)
        try:
            sock.sendall(_LEN.pack((1 << 30) + 1))
            assert sock.recv(4) == b""  # framing is lost: link dropped
            assert transport._m_frame_errors.value == before + 1
        finally:
            sock.close()
            transport.close()

    def test_mux_core_is_one_thread_and_sends_once_after_reconnect(self):
        dispatcher = ThreadRecorder()
        cache = ReplyCache()
        transport = TCPServerTransport(dispatcher, reply_cache=cache)
        port = transport.port
        before = len(_threads_named("repro-mux-"))
        channel = MultiplexingChannel(
            "127.0.0.1", port, client_id="m", timeout=5.0,
            retry=RetryPolicy(max_attempts=50, base_delay=0.02,
                              max_delay=0.05, jitter=0.0))
        try:
            assert len(_threads_named("repro-mux-")) == before + 1
            assert channel.request(b"up") == b"echo:up"
            transport.close()  # the reader sees end of stream
            _wait_for(lambda: not channel.health()["connected"], "the break")
            futures = [channel.submit(b"down%d" % i) for i in range(3)]
            time.sleep(0.1)  # a few failed reconnects with frames queued
            assert not any(future.done() for future in futures)
            hits = cache._m_hits.value
            transport = TCPServerTransport(dispatcher, port=port,
                                           reply_cache=cache)
            for i, future in enumerate(futures):
                assert future.result(timeout=5.0) == b"echo:down%d" % i
            assert [dispatcher.counts[b"down%d" % i] for i in range(3)] \
                == [1, 1, 1]
            assert cache._m_hits.value == hits, "a queued frame went out twice"
            assert channel.health()["orphan_replies"] == 0
        finally:
            channel.close()
            transport.close()

    def test_submit_from_a_reconnect_listener_does_not_deadlock(self):
        cache = ReplyCache()
        transport = TCPServerTransport(EchoServer(), reply_cache=cache)
        port = transport.port
        channel = MultiplexingChannel(
            "127.0.0.1", port, client_id="m", timeout=5.0,
            retry=RetryPolicy(max_attempts=50, base_delay=0.02,
                              max_delay=0.05, jitter=0.0))
        submitted = []
        channel.reconnect_listener = lambda: submitted.append(
            channel.submit(b"from-listener"))
        try:
            assert channel.request(b"a") == b"echo:a"
            transport.close()  # the reader sees end of stream and heals
            transport = TCPServerTransport(EchoServer(), port=port,
                                           reply_cache=cache)
            _wait_for(lambda: submitted, "the reconnect listener")
            assert submitted[0].result(timeout=5.0) == b"echo:from-listener"
            assert channel.request(b"b") == b"echo:b"
        finally:
            channel.close()
            transport.close()
