"""Tests for transports: in-process hub and real TCP sockets."""

import os
import socket
import struct
import sys
import threading
import time

import pytest

from repro.errors import TransportError, TransportTimeout
from repro.transport import (
    Dispatcher,
    InProcHub,
    MuxConnectionPool,
    NetworkModel,
    ReplyCache,
    RetryPolicy,
    TCPChannel,
    TCPServerTransport,
)
from repro.transport import mux as mux_module
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
    @pytest.fixture
    def server(self):
        dispatcher = EchoServer()
        transport = TCPServerTransport(dispatcher)
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

    def test_slow_reply_raises_typed_timeout(self):
        class StalledServer(Dispatcher):
            def dispatch(self, client_id, data):
                time.sleep(2.0)
                return data

        transport = TCPServerTransport(StalledServer())
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

    @pytest.fixture
    def server(self):
        dispatcher = EchoServer()
        transport = TCPServerTransport(dispatcher)
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

    def test_dispatcher_exception_answered_and_connection_survives(self):
        class Flaky(Dispatcher):
            def __init__(self):
                self.calls = 0

            def dispatch(self, client_id, data):
                self.calls += 1
                if data == b"boom":
                    raise ValueError("dispatcher bug")
                return b"ok:" + data

        dispatcher = Flaky()
        transport = TCPServerTransport(dispatcher)
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

    def test_timed_out_reply_is_never_delivered(self):
        """After a timeout the reply is still in flight; the socket is
        kept, and the late reply, matched by sequence number, is counted
        as an orphan instead of answering request N+1."""

        class SlowFirst(Dispatcher):
            def __init__(self):
                self.calls = 0

            def dispatch(self, client_id, data):
                self.calls += 1
                if self.calls == 1:
                    time.sleep(1.0)
                return b"echo:" + data

        transport = TCPServerTransport(SlowFirst())
        channel = TCPChannel("127.0.0.1", transport.port, "c", timeout=0.6)
        try:
            with pytest.raises(TransportTimeout):
                channel.request(b"a")
            assert channel.health()["connected"]
            time.sleep(0.6)  # "echo:a" lands while nobody waits for it
            assert channel.request(b"b") == b"echo:b"
            assert channel.health()["orphan_replies"] == 1
            assert channel.reconnects == 0  # answered on the same socket
        finally:
            channel.close()
            transport.close()

    def test_close_reaps_threads_and_closes_connections(self):
        dispatcher = EchoServer()
        transport = TCPServerTransport(dispatcher)
        channels = [TCPChannel("127.0.0.1", transport.port, f"c{i}")
                    for i in range(4)]
        try:
            for i, channel in enumerate(channels):
                channel.request(f"m{i}".encode())
            transport.close()
            assert transport._threads == set()
            assert transport._conns == {}
            assert transport._m_open.value == 0
            # live clients see a typed disconnect, not a hang
            with pytest.raises(TransportError):
                channels[0].request(b"after")
        finally:
            for channel in channels:
                channel.close()

    def test_connection_close_reaps_serve_thread(self):
        """A burst of connections that then close must leave no record
        and no thread behind (reap-on-close, not on-accept)."""
        transport = TCPServerTransport(EchoServer())
        try:
            channels = [TCPChannel("127.0.0.1", transport.port, f"c{i}")
                        for i in range(8)]
            for i, channel in enumerate(channels):
                channel.request(f"m{i}".encode())
            for channel in channels:
                channel.close()
            _wait_for(lambda: not transport._conns,
                      "connection records to be reaped")
            assert transport._m_open.value == 0
            _wait_for(lambda: len(transport._threads) <= 2,
                      "idle core threads to retire")
        finally:
            transport.close()

    def test_port_is_released_synchronously_on_close(self):
        dispatcher = EchoServer()
        first = TCPServerTransport(dispatcher)
        port = first.port
        channel = TCPChannel("127.0.0.1", port, "c")
        channel.request(b"x")
        first.close()
        # a restarted server must be able to rebind at once, even with
        # the old client's half-closed socket still lingering
        second = TCPServerTransport(dispatcher, port=port,
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
    """The server core's request path: the thread that read a frame
    answers it, frames behind a busy dispatch are answered on other
    threads, replies still coalesce, and no failure leaves a thread (or
    a wedged worker) behind."""

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
        # answered by the core threads that read them: no pool hand-off,
        # and no thread started for a client that never waits on itself
        assert all(name.startswith("repro-core-") for name in names), names
        assert len(names) <= 2

    def test_frames_behind_a_slow_dispatch_run_on_other_threads(self):
        dispatcher = ThreadRecorder()
        transport = TCPServerTransport(dispatcher)
        channel = TCPChannel("127.0.0.1", transport.port, "m",
                             timeout=5.0)
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
        held = dispatcher.threads[b"slow:a"]
        assert held.startswith("repro-core-")
        assert dispatcher.threads[b"b"] != held
        assert dispatcher.threads[b"c"] != held

    def test_max_inflight_still_bounds_frames_read(self):
        dispatcher = ThreadRecorder()
        transport = TCPServerTransport(dispatcher, max_inflight=3)
        sock = socket.create_connection(("127.0.0.1", transport.port),
                                        timeout=5.0)
        try:
            sock.sendall(b"".join(_frame(i + 1, b"slow:%d" % i)
                                  for i in range(6)))
            _wait_for(lambda: len(dispatcher.counts) == 3, "three dispatches")
            time.sleep(0.1)  # a fourth frame would have dispatched by now
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

        def slow_send(sock, buffers, *writable):
            time.sleep(0.02)  # a send "on the wire": the rest pile up
            real_send(sock, buffers, *writable)

        transport = TCPServerTransport(Together(), dispatch_workers=8)
        channel = TCPChannel("127.0.0.1", transport.port, "m",
                             timeout=5.0)
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
                      "extra core threads to retire")
            # the core reads each client's end of stream on its own time
            _wait_for(lambda: not transport._conns,
                      "connection records to be reaped")
        finally:
            transport.close()

    def test_failures_cost_one_connection_and_no_thread(self, monkeypatch):
        dispatcher = ThreadRecorder()
        transport = TCPServerTransport(dispatcher, dispatch_workers=2)
        real_send = tcp_module._sendmsg_all

        def poisoned_send(sock, buffers, *writable):
            if any(b"poison" in bytes(b) for b in buffers):
                raise OSError("injected send failure")
            real_send(sock, buffers, *writable)

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
            # a reply whose sendmsg raises while another request of the
            # same connection is still held open
            bad = socket.create_connection(("127.0.0.1", transport.port),
                                           timeout=5.0)
            bad.sendall(_frame(1, b"slow:bad") + _frame(2, b"poison"))
            _wait_for(lambda: b"poison" in dispatcher.threads, "the poison")
            # the failed send drops that link: its peer sees end of stream
            assert bad.recv(4) == b""
            bad.close()
            dispatcher.release.set()
            _wait_for(lambda: threading.active_count() <= baseline,
                      "the core threads the held dispatches added to retire")
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

    def test_mux_core_has_no_thread_and_sends_once_after_reconnect(self):
        dispatcher = ThreadRecorder()
        cache = ReplyCache()
        transport = TCPServerTransport(dispatcher, reply_cache=cache)
        port = transport.port
        before = _client_threads()
        channel = TCPChannel(
            "127.0.0.1", port, "m", timeout=5.0,
            retry=RetryPolicy(max_attempts=50, base_delay=0.02,
                              max_delay=0.05, jitter=0.0))
        try:
            assert channel.request(b"up") == b"echo:up"
            assert _client_threads() == before
            transport.close()
            channel.break_connection()  # the socket is down...
            futures = [channel.submit(b"down%d" % i) for i in range(3)]
            time.sleep(0.1)  # ...and nobody waits: the frames stay queued
            assert not any(future.done() for future in futures)
            hits = cache._m_hits.value
            transport = TCPServerTransport(dispatcher, port=port,
                                           reply_cache=cache)
            # the first waiter reconnects and the queue goes out once
            for i, future in enumerate(futures):
                assert future.result(timeout=5.0) == b"echo:down%d" % i
            assert [dispatcher.counts[b"down%d" % i] for i in range(3)] \
                == [1, 1, 1]
            assert cache._m_hits.value == hits, "a queued frame went out twice"
            assert channel.health()["orphan_replies"] == 0
            assert channel.reconnects == 1
        finally:
            channel.close()
            transport.close()

    def test_submit_from_a_reconnect_listener_does_not_deadlock(self):
        cache = ReplyCache()
        transport = TCPServerTransport(EchoServer(), reply_cache=cache)
        port = transport.port
        channel = TCPChannel(
            "127.0.0.1", port, "m", timeout=5.0,
            retry=RetryPolicy(max_attempts=50, base_delay=0.02,
                              max_delay=0.05, jitter=0.0))
        from_listener = []

        def listener():
            from_listener.append(channel.submit(b"submitted"))
            from_listener.append(channel.request(b"requested"))

        channel.reconnect_listener = listener
        try:
            assert channel.request(b"a") == b"echo:a"
            transport.close()
            transport = TCPServerTransport(EchoServer(), port=port,
                                           reply_cache=cache)
            # the next request finds the socket gone and reconnects; the
            # listener runs holding no lock and no read role
            assert channel.request(b"b") == b"echo:b"
            assert from_listener[0].result(timeout=5.0) == b"echo:submitted"
            assert from_listener[1] == b"echo:requested"
            assert channel.reconnects == 1
        finally:
            channel.close()
            transport.close()


def _client_threads():
    """Threads other than a server's: its core threads come and go with
    its load, and a closed server's pool workers exit on their own time."""
    return {t for t in threading.enumerate()
            if not t.name.startswith(("repro-core-", "repro-dispatch-"))}


def _client_fds(port):
    """This process's descriptors of sockets connected to ``port``."""
    sockets = set()
    with open("/proc/net/tcp") as table:
        next(table)
        for line in table:
            fields = line.split()
            if int(fields[2].split(":")[1], 16) == port:
                sockets.add(f"socket:[{fields[9]}]")
    fds = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{fd}") in sockets:
                fds.append(fd)
        except OSError:
            pass  # closed while we looked
    return fds


class TestWaiterReads:
    """The TCP client has no thread: the waiter holding the read role
    reads, delivers other waiters' replies, and hands the role on."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """Names of the threads that read a reply frame."""
        seen = []
        real = mux_module._read_frame

        def recording(*args):
            frame = real(*args)
            if frame is not None:
                seen.append(threading.current_thread().name)
            return frame

        monkeypatch.setattr(mux_module, "_read_frame", recording)
        return seen

    def test_serial_requests_read_on_the_requesting_thread(self, reads):
        transport = TCPServerTransport(EchoServer())
        channel = TCPChannel("127.0.0.1", transport.port, "serial")
        try:
            for i in range(200):
                assert channel.request(b"r%d" % i) == b"echo:r%d" % i
        finally:
            channel.close()
            transport.close()
        assert reads == [threading.current_thread().name] * 200

    def test_building_channels_starts_no_thread(self):
        transport = TCPServerTransport(EchoServer())
        pool = MuxConnectionPool({"s": ("127.0.0.1", transport.port)})
        try:
            baseline = _client_threads()
            channels = [TCPChannel("127.0.0.1", transport.port, f"c{i}")
                        for i in range(100)]
            channels.append(pool.connect("s", "pooled"))
            assert channels[0].request(b"x") == b"echo:x"
            assert _client_threads() == baseline
            for channel in channels:
                channel.close()
        finally:
            pool.close()
            transport.close()

    def test_every_reply_reaches_its_own_waiter(self):
        class SometimesSlow(Dispatcher):
            def dispatch(self, client_id, data):
                if data.endswith(b"0"):  # one request in ten
                    time.sleep(0.005)
                return b"echo:" + data

        transport = TCPServerTransport(SometimesSlow())
        channel = TCPChannel("127.0.0.1", transport.port, "m", timeout=10.0)
        errors = []

        def worker(index):
            try:
                for i in range(200):
                    payload = b"t%d-%d" % (index, i)
                    assert channel.request(payload) == b"echo:" + payload
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid hand-off
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            assert errors == []
            health = channel.health()
            assert health["orphan_replies"] == 0
            assert health["inflight"] == 0
        finally:
            sys.setswitchinterval(interval)
            channel.close()
            transport.close()

    def test_holder_times_out_alone_and_hands_the_role_on(self, reads):
        class Held(Dispatcher):
            def dispatch(self, client_id, data):
                time.sleep(2.0 if data == b"never" else 0.4)
                return b"echo:" + data

        transport = TCPServerTransport(Held())
        patient = TCPChannel("127.0.0.1", transport.port, "patient",
                             timeout=5.0)
        hasty = TCPChannel("127.0.0.1", transport.port, "hasty",
                           timeout=0.15, core=patient._core)
        outcome = {}

        def ask(name, channel, payload):
            try:
                outcome[name] = channel.request(payload)
            except TransportError as exc:
                outcome[name] = exc

        first = threading.Thread(target=ask, name="hasty",
                                 args=("hasty", hasty, b"never"))
        second = threading.Thread(target=ask, name="patient",
                                  args=("patient", patient, b"later"))
        try:
            first.start()
            _wait_for(lambda: patient._core._reading, "the hasty reader")
            second.start()
            first.join(timeout=5.0)
            second.join(timeout=5.0)
            assert isinstance(outcome["hasty"], TransportTimeout)
            assert outcome["patient"] == b"echo:later"
            # the role passed to the patient waiter, which read its own reply
            assert reads == ["patient"]
        finally:
            patient.close()
            transport.close()

    def test_a_trickled_frame_is_never_cut(self):
        transport = TCPServerTransport(EchoServer())
        relay = _TrickleRelay(transport.port, delay=0.002)
        # the deadline bounds the wait for a frame to start; this reply
        # takes ~0.1 s to trickle in, twice the deadline
        channel = TCPChannel("127.0.0.1", relay.port, "c", timeout=0.05)
        try:
            payload = b"x" * 30
            assert channel.request(payload) == b"echo:" + payload
            assert channel.request(b"again") == b"echo:again"
            assert channel.health()["orphan_replies"] == 0
            assert channel.reconnects == 0
        finally:
            channel.close()
            relay.close()
            transport.close()

    def test_close_fails_the_reader_and_every_waiter(self):
        dispatcher = ThreadRecorder()
        transport = TCPServerTransport(dispatcher)
        channel = TCPChannel("127.0.0.1", transport.port, "m", timeout=10.0)
        errors = []

        def ask(index):
            try:
                channel.request(b"slow:%d" % index)
            except TransportError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
        try:
            for thread in threads:
                thread.start()
            _wait_for(lambda: len(dispatcher.counts) == 4, "four dispatches")
            assert channel._core._reading  # one reads, three wait
            started = time.monotonic()
            channel.close()
            for thread in threads:
                thread.join(timeout=1.0)
                assert not thread.is_alive()
            assert time.monotonic() - started < 1.0
            assert len(errors) == 4
        finally:
            dispatcher.release.set()
            channel.close()
            transport.close()

    def test_one_pool_channel_times_out_and_the_other_completes(self):
        dispatcher = ThreadRecorder()
        transport = TCPServerTransport(dispatcher)
        pool = MuxConnectionPool({"s": ("127.0.0.1", transport.port)},
                                 timeout=0.3)
        stuck, fine = pool.connect("s", "stuck"), pool.connect("s", "fine")
        outcome = {}

        def stuck_request():
            try:
                stuck.request(b"slow:stuck")
            except TransportError as exc:
                outcome["stuck"] = exc

        thread = threading.Thread(target=stuck_request)
        try:
            thread.start()
            assert dispatcher.entered.wait(timeout=5.0)
            assert fine.request(b"fine") == b"echo:fine"
            thread.join(timeout=5.0)
            assert isinstance(outcome["stuck"], TransportTimeout)
            assert fine.request(b"still") == b"echo:still"
        finally:
            dispatcher.release.set()
            pool.close()
            transport.close()

    def test_byte_accounting_is_one_rule(self):
        """Frame bytes after the length prefix, in both directions, on an
        own-core channel and a pooled one alike: 29 out and 25 back for
        this exchange, as the serial channel always counted."""
        transport = TCPServerTransport(EchoServer())
        pool = MuxConnectionPool({"s": ("127.0.0.1", transport.port)})
        channels = [TCPChannel("127.0.0.1", transport.port, "bytes"),
                    pool.connect("s", "bytes")]
        try:
            for channel in channels:
                assert channel.request(b"ping") == b"echo:ping"
                assert (channel.stats.bytes_sent,
                        channel.stats.bytes_received) == (29, 25)
        finally:
            for channel in channels:
                channel.close()
            pool.close()
            transport.close()

    def test_break_and_close_leave_no_descriptor_behind(self):
        transport = TCPServerTransport(EchoServer())
        try:
            idle = TCPChannel("127.0.0.1", transport.port, "idle")
            idle.break_connection()  # nobody is reading: the next request
            assert idle.request(b"x") == b"echo:x"  # reconnects, once
            assert idle.reconnects == 1
            idle.close()
            for i in range(50):
                channel = TCPChannel("127.0.0.1", transport.port, f"c{i}")
                channel.break_connection()
                channel.close()
            assert _client_fds(transport.port) == []
        finally:
            transport.close()


class _TrickleRelay:
    """Forwards requests as they come and replies one byte at a time."""

    def __init__(self, upstream_port, delay):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._upstream_port = upstream_port
        self._delay = delay
        self._socks = [self._listener]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        try:
            client, _ = self._listener.accept()
        except OSError:
            return
        upstream = socket.create_connection(("127.0.0.1", self._upstream_port))
        self._socks += [client, upstream]
        threading.Thread(target=self._pump, args=(client, upstream, 0),
                         daemon=True).start()
        self._pump(upstream, client, self._delay)

    @staticmethod
    def _pump(source, sink, delay):
        try:
            while True:
                data = source.recv(65536)
                if not data:
                    return
                if not delay:
                    sink.sendall(data)
                    continue
                for i in range(len(data)):
                    time.sleep(delay)
                    sink.sendall(data[i:i + 1])
        except OSError:
            return

    def close(self):
        for sock in self._socks:
            try:
                sock.close()
            except OSError:
                pass
