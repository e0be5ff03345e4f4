"""The server core: one epoll for every socket, threads that follow
concurrency rather than connections.

The request path (who dispatches, who sends) is pinned by
``test_transport.py::TestRunToCompletion``; this file covers what the
core holds at scale — connection churn, idle fleets, floods against the
in-flight cap, slow dispatches, slow readers, shutdown — and the HTTP/1.1
JSON gateway on its second listener.
"""

import json
import os
import socket
import threading
import time
import urllib.request

import pytest

from repro import InterWeaveClient, InterWeaveServer
from repro.arch import X86_64
from repro.client import ClientOptions
from repro.errors import TransportError
from repro.transport import Dispatcher, TCPChannel, TCPServerTransport
from repro.transport.tcp import _CORE_THREADS, request_frame_buffers
from repro.types import INT, ArrayDescriptor, StringDescriptor

from tests.test_transport import _frame, _read_reply


class EchoServer(Dispatcher):
    def dispatch(self, client_id, data):
        return b"echo:" + data


class Held(Dispatcher):
    """Echo; payloads starting with ``slow`` wait for ``release``.
    Records the threads that entered a held dispatch."""

    def __init__(self):
        self.release = threading.Event()
        self.lock = threading.Lock()
        self.held = []

    def dispatch(self, client_id, data):
        if data.startswith(b"slow"):
            with self.lock:
                self.held.append(threading.current_thread())
            self.release.wait(timeout=10.0)
        return b"echo:" + data


def _fd_count():
    return len(os.listdir("/proc/self/fd"))


def _wait_until(predicate, timeout=10.0, message="condition never held"):
    deadline = time.time() + timeout
    while not predicate():
        assert time.time() < deadline, message
        time.sleep(0.02)


def _connect(port, count):
    return [socket.create_connection(("127.0.0.1", port), timeout=5.0)
            for _ in range(count)]


# ---------------------------------------------------------------------------
# connections cost no thread
# ---------------------------------------------------------------------------

class TestConnectionScale:
    def test_2k_open_close_soak_returns_to_baseline(self):
        """2000 connections opened and closed must leave no fd, thread
        or connection-record residue — reap-on-close, not reap-on-accept."""
        transport = TCPServerTransport(EchoServer())
        try:
            # settle, then take baselines with the server idle
            probe = TCPChannel("127.0.0.1", transport.port, "probe")
            probe.request(b"warm")
            probe.close()
            _wait_until(lambda: transport._m_open.value == 0)
            fd_base = _fd_count()
            thread_base = threading.active_count()

            for batch in range(20):  # 20 x 100 = 2000 connections
                socks = _connect(transport.port, 100)
                # every other batch talks before closing, so the soak
                # covers both used and idle (accept-then-drop) churn
                if batch % 2 == 0:
                    for i, sock in enumerate(socks):
                        sock.sendall(b"".join(request_frame_buffers(
                            b"churn", 7, i + 1, b"ping")))
                    for sock in socks:
                        sock.recv(4)  # first reply bytes = server answered
                for sock in socks:
                    sock.close()

            _wait_until(lambda: transport._m_open.value == 0,
                        message="connection records leaked after churn")
            assert not transport._conns
            _wait_until(lambda: _fd_count() <= fd_base,
                        message=f"fds leaked: {_fd_count()} > {fd_base}")
            _wait_until(lambda: threading.active_count() <= thread_base,
                        message="core threads outlived the churn")
        finally:
            transport.close()

    def test_1000_idle_connections_start_no_thread(self):
        transport = TCPServerTransport(EchoServer())
        channel = TCPChannel("127.0.0.1", transport.port, "first")
        socks = []
        try:
            assert channel.request(b"x") == b"echo:x"
            baseline = threading.active_count()
            socks = _connect(transport.port, 1000)
            _wait_until(lambda: transport._m_open.value == 1001,
                        message="the fleet was never accepted")
            _wait_until(lambda: threading.active_count() <= baseline,
                        message=f"{threading.active_count()} threads for "
                                f"idle connections (baseline {baseline})")
            assert channel.request(b"y") == b"echo:y"
        finally:
            for sock in socks:
                sock.close()
            channel.close()
            transport.close()


# ---------------------------------------------------------------------------
# the in-flight cap and slow dispatches
# ---------------------------------------------------------------------------

class TestInflightAndGrowth:
    def test_flood_never_exceeds_max_inflight(self):
        """A client that writes 500 frames at once never has more than
        ``max_inflight`` dispatches running, and every frame is answered."""
        lock = threading.Lock()
        running = [0, 0]  # now, peak

        class Counting(Dispatcher):
            def dispatch(self, client_id, data):
                with lock:
                    running[0] += 1
                    running[1] = max(running[1], running[0])
                time.sleep(0.0005)
                with lock:
                    running[0] -= 1
                return b"echo:" + data

        transport = TCPServerTransport(Counting(), max_inflight=4)
        sock = socket.create_connection(("127.0.0.1", transport.port),
                                        timeout=10.0)
        try:
            sock.sendall(b"".join(_frame(i + 1, b"f%d" % i)
                                  for i in range(500)))
            replies = dict(_read_reply(sock)[1:] for _ in range(500))
            assert replies == {i + 1: b"echo:f%d" % i for i in range(500)}
            assert 1 <= running[1] <= 4, running
        finally:
            sock.close()
            transport.close()

    def test_slow_dispatches_grow_the_core(self):
        """16 dispatches held open on 16 connections leave a 17th
        connection's echo as fast as on an idle server."""
        dispatcher = Held()
        transport = TCPServerTransport(dispatcher)
        channels = [TCPChannel("127.0.0.1", transport.port, f"c{i}",
                               timeout=10.0) for i in range(17)]
        try:
            held = [channel.submit(b"slow%d" % i)
                    for i, channel in enumerate(channels[:16])]
            _wait_until(lambda: len(dispatcher.held) == 16,
                        message="the held dispatches never started")
            started = time.perf_counter()
            assert channels[16].request(b"fast") == b"echo:fast"
            assert time.perf_counter() - started < 0.1
            dispatcher.release.set()
            for i, future in enumerate(held):
                assert future.result(timeout=5.0) == b"echo:slow%d" % i
            # the threads the held dispatches added retire once idle
            _wait_until(lambda: len(transport._threads) <= 2,
                        message="extra core threads never retired")
        finally:
            dispatcher.release.set()
            for channel in channels:
                channel.close()
            transport.close()


# ---------------------------------------------------------------------------
# slow readers cannot block the core
# ---------------------------------------------------------------------------

class TestSlowReader:
    def test_stalled_downstream_is_dropped_not_the_server(self):
        """A client that sends requests but never reads replies fills its
        socket and its in-flight window; the server must drop that one
        connection (write-stall bound) while serving everyone else."""
        transport = TCPServerTransport(
            EchoServer(), max_inflight=16, write_stall_timeout=0.3)
        stalled = socket.create_connection(("127.0.0.1", transport.port),
                                           timeout=5.0)
        healthy = TCPChannel("127.0.0.1", transport.port, "healthy")
        try:
            # big replies fill the kernel socket buffers fast, then the
            # in-flight window, then the write stall fires
            payload = b"x" * (256 * 1024)
            seq = 0
            dropped = False
            deadline = time.time() + 15.0
            stalled.settimeout(0.5)
            while time.time() < deadline and not dropped:
                try:
                    for _ in range(8):
                        seq += 1
                        stalled.sendall(b"".join(request_frame_buffers(
                            b"stall", 9, seq, payload)))
                except (BrokenPipeError, ConnectionResetError,
                        socket.timeout, OSError):
                    dropped = True
            # ...and while the stalled link was being wedged, a healthy
            # client of the same core stays responsive
            started = time.perf_counter()
            assert healthy.request(b"hi") == b"echo:hi"
            assert time.perf_counter() - started < 2.0
            assert dropped, "server never dropped the stalled connection"
            _wait_until(
                lambda: transport._m_slow_drops.value >= 1,
                message="slow-reader drop was not counted")
            _wait_until(lambda: transport._m_open.value == 1,
                        message="dropped connection record lingered")
            assert healthy.request(b"still") == b"echo:still"
        finally:
            stalled.close()
            healthy.close()
            transport.close()

    def test_threads_blocked_on_stalled_readers_leave_no_socket_unwatched(self):
        """More stalled readers than core threads, each holding a core
        thread in a reply send (default 5 s stall bound): a thread that
        waits for writability is not waiting in ``poll``, so the core
        grows and a healthy client is still accepted and answered."""
        transport = TCPServerTransport(EchoServer())
        stalled = []
        for _ in range(_CORE_THREADS + 1):
            sock = socket.socket()
            # a tiny window: the echo of a big request never fits
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect(("127.0.0.1", transport.port))
            stalled.append(sock)
        healthy = TCPChannel("127.0.0.1", transport.port, "healthy",
                             timeout=10.0)
        # the registry is process-wide: count from here
        drops, sent = transport._m_slow_drops.value, transport._m_bytes_sent.value
        try:
            payload = b"x" * (8 << 20)
            for index, sock in enumerate(stalled):
                sock.sendall(b"".join(request_frame_buffers(
                    b"stall%d" % index, 9, 1, payload)))
            # every stalled reader's echo is being sent, and blocked
            _wait_until(lambda: transport._m_bytes_sent.value - sent
                        >= len(stalled) * len(payload),
                        message="the stalled readers' replies never started")
            time.sleep(0.2)
            started = time.perf_counter()
            assert healthy.request(b"hi") == b"echo:hi"
            assert time.perf_counter() - started < 1.0
            assert transport._m_slow_drops.value == drops  # still stalled
        finally:
            for sock in stalled:
                sock.close()
            healthy.close()
            transport.close()


# ---------------------------------------------------------------------------
# the HTTP/1.1 JSON gateway
# ---------------------------------------------------------------------------

def _http_get(port, path, timeout=5.0):
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class TestGateway:
    @pytest.fixture
    def server(self):
        dispatcher = InterWeaveServer("s")
        transport = TCPServerTransport(dispatcher, gateway_port=0)
        yield transport, dispatcher
        transport.close()

    def _publish(self, transport):
        client = InterWeaveClient(
            "pub", X86_64,
            lambda name, client_id: TCPChannel("127.0.0.1", transport.port,
                                               client_id),
            options=ClientOptions(enable_notifications=False))
        try:
            seg = client.open_segment("s/gw")
            client.wl_acquire(seg)
            values = client.malloc(seg, ArrayDescriptor(INT, 3), name="ints")
            for i in range(3):
                values.element_accessor(i).set(10 * (i + 1))
            client.malloc(seg, StringDescriptor(32), name="label").set("hi")
            client.wl_release(seg)
        finally:
            client.close()

    def test_get_segment_returns_decoded_contents_and_version(self, server):
        transport, _dispatcher = server
        self._publish(transport)
        status, body = _http_get(transport.gateway_port, "/segments/s/gw")
        assert status == 200
        doc = json.loads(body)
        assert doc["segment"] == "s/gw"
        assert doc["version"] == 1
        blocks = {block["name"]: block for block in doc["blocks"]}
        assert blocks["ints"]["values"] == [10, 20, 30]
        assert blocks["label"]["values"] == ["hi"]

    def test_get_unknown_segment_is_404(self, server):
        transport, _dispatcher = server
        status, body = _http_get(transport.gateway_port, "/segments/s/nope")
        assert status == 404
        assert "error" in json.loads(body)

    def test_get_stats_mirrors_getstats(self, server):
        transport, dispatcher = server
        self._publish(transport)
        status, body = _http_get(transport.gateway_port, "/stats")
        assert status == 200
        doc = json.loads(body)
        assert doc["server"]["name"] == "s"
        assert (dispatcher.stats_snapshot()["server"]["segments"]
                == doc["server"]["segments"])

    def test_unknown_path_is_404_and_post_is_405(self, server):
        transport, _dispatcher = server
        assert _http_get(transport.gateway_port, "/nope")[0] == 404
        request = urllib.request.Request(
            f"http://127.0.0.1:{transport.gateway_port}/stats",
            data=b"{}", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5.0)
        assert excinfo.value.code == 405

    def test_segments_route_is_501_without_segment_access(self):
        """Relays and directories answer /stats but have no segment
        table; the gateway says so instead of crashing."""
        transport = TCPServerTransport(EchoServer(), gateway_port=0)
        try:
            status, body = _http_get(transport.gateway_port, "/segments/x")
            assert status == 501
        finally:
            transport.close()

    def test_keep_alive_serves_sequential_requests_on_one_socket(self, server):
        transport, _dispatcher = server
        sock = socket.create_connection(
            ("127.0.0.1", transport.gateway_port), timeout=5.0)
        try:
            for _ in range(3):
                sock.sendall(b"GET /stats HTTP/1.1\r\n"
                             b"Host: x\r\n\r\n")
                head = b""
                while b"\r\n\r\n" not in head:
                    head += sock.recv(1)
                headers = head.decode("latin-1").lower()
                assert " 200 " in headers.splitlines()[0]
                length = int(headers.split("content-length:")[1]
                             .split("\r\n")[0])
                body = b""
                while len(body) < length:
                    body += sock.recv(length - len(body))
                json.loads(body)
        finally:
            sock.close()

    def test_repro_server_serves_the_gateway_without_an_io_flag(self):
        from repro.tools.server_main import build_parser, serve

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--io", "threads"])
        args = build_parser().parse_args(
            ["--name", "gw", "--port", "0", "--gateway-port", "0"])
        ready, stop = threading.Event(), threading.Event()
        thread = threading.Thread(target=serve, args=(args, ready, stop),
                                  daemon=True)
        thread.start()
        try:
            assert ready.wait(5)
            status, body = _http_get(ready.ready_gateway_port, "/stats")
            assert status == 200
            assert json.loads(body)["server"]["name"] == "gw"
        finally:
            stop.set()
            thread.join(timeout=5)


# ---------------------------------------------------------------------------
# out of descriptors
# ---------------------------------------------------------------------------

_EXHAUSTION_PROBE = """
import json, logging, os, resource, socket, time
from repro.transport import Dispatcher, TCPServerTransport, tcp
from tests.test_transport import _frame, _read_reply

FREED_BY = {freed_by!r}
if FREED_BY == "close":  # the pause alone would outlast the test
    tcp._ACCEPT_PAUSE_SECONDS = 30.0

class Echo(Dispatcher):
    def dispatch(self, client_id, data):
        return b"echo:" + data

warnings = []
handler = logging.Handler()
handler.emit = warnings.append
logging.getLogger("repro.transport.tcp").addHandler(handler)
transport = TCPServerTransport(Echo())
spare = socket.create_connection(("127.0.0.1", transport.port), timeout=10)
spare.sendall(_frame(1, b"spare"))
_read_reply(spare)
_soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE,
                   (len(os.listdir("/proc/self/fd")) + 16, hard))
hogs = []
try:
    while True:
        hogs.append(os.open(os.devnull, os.O_RDONLY))
except OSError:
    pass
os.close(hogs.pop())
# the kernel completes the handshake; the core has no descriptor for it
first = socket.create_connection(("127.0.0.1", transport.port), timeout=10)
time.sleep(0.2)
started = time.process_time()
time.sleep(1.0)
cpu = time.process_time() - started
first.sendall(_frame(2, b"one"))
freed = time.monotonic()
if FREED_BY == "close":
    spare.close()  # the core's end of it closes too
else:
    for fd in hogs:
        os.close(fd)
replies = [_read_reply(first)[2]]
waited = time.monotonic() - freed
if FREED_BY == "close":
    for fd in hogs:
        os.close(fd)
second = socket.create_connection(("127.0.0.1", transport.port), timeout=10)
second.sendall(_frame(3, b"two"))
replies.append(_read_reply(second)[2])
print(json.dumps({{"cpu": cpu, "warnings": len(warnings), "waited": waited,
                   "replies": [reply.decode() for reply in replies]}}))
"""


class TestOutOfDescriptors:
    @pytest.mark.parametrize("freed_by", ["pause", "close"])
    def test_accept_backs_off_and_serves_once_descriptors_free(self, freed_by):
        """A backlog the core has no descriptor to accept must not keep a
        core thread spinning; the listener serves again once the pause
        runs out, or at once when one of its connections closes."""
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        result = subprocess.run(
            [sys.executable, "-c", _EXHAUSTION_PROBE.format(freed_by=freed_by)],
            cwd=root,
            env=dict(os.environ,
                     PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root])),
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        outcome = json.loads(result.stdout)
        assert outcome["cpu"] < 0.2, outcome
        assert outcome["replies"] == ["echo:one", "echo:two"]
        assert outcome["warnings"] == 1, outcome
        if freed_by == "close":
            assert outcome["waited"] < 1.0, outcome


# ---------------------------------------------------------------------------
# close()
# ---------------------------------------------------------------------------

class TestCloseContract:
    def test_close_drains_inflight_dispatches(self):
        """close() must not return while a request handler is still
        running (within its one-second bound)."""
        dispatcher = Held()
        transport = TCPServerTransport(dispatcher)
        channel = TCPChannel("127.0.0.1", transport.port, "c", timeout=0.3)
        try:
            with pytest.raises(TransportError):
                channel.request(b"slow")  # times out; dispatch keeps going
            _wait_until(lambda: dispatcher.held)
            closer = threading.Thread(target=transport.close)
            closer.start()
            time.sleep(0.2)
            assert closer.is_alive(), "close() returned mid-dispatch"
            dispatcher.release.set()
            closer.join(timeout=10.0)
            assert not closer.is_alive()
        finally:
            dispatcher.release.set()
            channel.close()
            transport.close()

    def test_close_with_idle_fleet_and_a_wedged_dispatch(self):
        """500 idle connections and one dispatch that never returns:
        close() is bounded, frees the port at once, and every core thread
        but the wedged one is gone when it returns."""
        dispatcher = Held()
        transport = TCPServerTransport(dispatcher)
        port = transport.port
        socks = _connect(port, 500)
        channel = TCPChannel("127.0.0.1", port, "c", timeout=10.0)
        restarted = None
        try:
            wedged = channel.submit(b"slow")
            _wait_until(lambda: dispatcher.held)
            _wait_until(lambda: transport._m_open.value == 501)
            started = time.perf_counter()
            transport.close()
            assert time.perf_counter() - started < 2.0
            restarted = TCPServerTransport(EchoServer(), port=port)
            assert [t for t in transport._threads if t.is_alive()] \
                == dispatcher.held
            dispatcher.release.set()
            _wait_until(lambda: not transport._threads,
                        message="the wedged core thread never exited")
            with pytest.raises(TransportError):
                wedged.result(timeout=5.0)
        finally:
            dispatcher.release.set()
            for sock in socks:
                sock.close()
            channel.close()
            if restarted is not None:
                restarted.close()
            transport.close()
