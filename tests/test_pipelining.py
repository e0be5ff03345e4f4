"""Pipelining and multiplexing: out-of-order replies, per-request
failures, retry dedup through the reply cache, and the full client stack
over one shared socket.

These tests drive the real TCP transport; fault determinism comes from
explicit ``break_connection()`` calls and deterministic
:class:`FaultPlan` schedules rather than timing luck.
"""

import threading
import time

import pytest

from repro import (
    ClientOptions,
    InterWeaveClient,
    InterWeaveServer,
)
from repro.arch import SPARC_V9, X86_32
from repro.errors import (
    RetryExhausted,
    ServerError,
    TransportError,
    TransportTimeout,
)
from repro.transport import (
    FaultInjectingChannel,
    FaultPlan,
    MuxConnectionPool,
    RetryPolicy,
    TCPChannel,
    TCPServerTransport,
)
from repro.transport.base import Dispatcher, ReplyCache
from repro.types import INT


class EchoServer(Dispatcher):
    def dispatch(self, client_id, data):
        return b"echo:" + data


class SlowFastServer(Dispatcher):
    """Payloads starting with b'slow' stall; everything else is instant."""

    def __init__(self, delay=0.3):
        self.delay = delay
        self.release = threading.Event()
        self.release.set()

    def dispatch(self, client_id, data):
        if data.startswith(b"slow"):
            self.release.wait(timeout=5.0)
            time.sleep(self.delay)
        return b"echo:" + data


class CountingServer(Dispatcher):
    """Counts dispatches per payload — the dedup oracle."""

    def __init__(self, delay=0.0):
        self.delay = delay
        self.lock = threading.Lock()
        self.counts = {}

    def dispatch(self, client_id, data):
        with self.lock:
            self.counts[bytes(data)] = self.counts.get(bytes(data), 0) + 1
        if self.delay:
            time.sleep(self.delay)
        return b"echo:" + data


@pytest.fixture
def echo_transport():
    transport = TCPServerTransport(EchoServer())
    yield transport
    transport.close()


def _mux(transport, client_id="m", timeout=2.0, retry=None):
    return TCPChannel("127.0.0.1", transport.port, client_id,
                      timeout=timeout, retry=retry)


# ---------------------------------------------------------------------------
# out-of-order delivery
# ---------------------------------------------------------------------------

class TestOutOfOrderDelivery:
    def test_fast_reply_overtakes_slow_request(self):
        dispatcher = SlowFastServer(delay=0.1)
        dispatcher.release.clear()  # hold the slow dispatch open
        transport = TCPServerTransport(dispatcher)
        channel = _mux(transport)
        try:
            slow = channel.submit(b"slow:a")
            fast = channel.submit(b"fast:b")
            # the later request's reply arrives first and must reach the
            # later waiter, not the head of any queue
            assert fast.result(timeout=2.0) == b"echo:fast:b"
            assert not slow.done()
            dispatcher.release.set()
            assert slow.result(timeout=2.0) == b"echo:slow:a"
        finally:
            channel.close()
            transport.close()

    def test_interleaved_threads_get_their_own_replies(self, echo_transport):
        channel = _mux(echo_transport, timeout=5.0)
        errors = []

        def worker(index):
            try:
                for i in range(20):
                    payload = b"t%d-%d" % (index, i)
                    assert channel.request(payload) == b"echo:" + payload
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        try:
            for thread in threads:
                thread.start()
        finally:
            for thread in threads:
                thread.join()
        assert errors == []
        assert channel.health()["inflight"] == 0
        channel.close()

    def test_fault_injected_delays_keep_matching(self, echo_transport):
        # jittered delivery via the fault injector: replies arrive in a
        # scrambled order, every future must still carry its own payload
        channel = _mux(echo_transport, timeout=5.0)
        wrapped = FaultInjectingChannel(
            channel, FaultPlan(seed=2003, delay_probability=0.5, delay=0.01))
        futures = [(i, wrapped.submit(b"p%d" % i)) for i in range(50)]
        try:
            for index, future in futures:
                assert future.result(timeout=5.0) == b"echo:p%d" % index
        finally:
            wrapped.close()


# ---------------------------------------------------------------------------
# per-request failure isolation
# ---------------------------------------------------------------------------

class TestFailureIsolation:
    def test_timed_out_request_fails_alone(self):
        dispatcher = SlowFastServer(delay=0.0)
        dispatcher.release.clear()
        transport = TCPServerTransport(dispatcher)
        channel = _mux(transport, timeout=0.3)
        try:
            results = {}

            def ask(payload):
                try:
                    results[payload] = channel.request(payload)
                except TransportError as exc:
                    results[payload] = exc

            threads = [threading.Thread(target=ask, args=(p,))
                       for p in (b"slow:x", b"fast:1", b"fast:2")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # the stalled request times out; its neighbours on the same
            # socket are answered, and the socket survives for new work
            assert isinstance(results[b"slow:x"], TransportTimeout)
            assert results[b"fast:1"] == b"echo:fast:1"
            assert results[b"fast:2"] == b"echo:fast:2"
            assert channel.health()["connected"]
            dispatcher.release.set()
            assert channel.request(b"fast:3") == b"echo:fast:3"
        finally:
            dispatcher.release.set()
            channel.close()
            transport.close()

    def test_dropped_reply_fails_only_its_own_channel(self, echo_transport):
        # two virtual channels on ONE core: the fault injector drops the
        # faulty channel's replies; the clean channel must not notice
        pool = MuxConnectionPool({"s": ("127.0.0.1", echo_transport.port)},
                                 timeout=2.0)
        clean = pool.connect("s", "clean")
        faulty = FaultInjectingChannel(
            pool.connect("s", "faulty"), FaultPlan(seed=1, drop_reply=1.0))
        try:
            with pytest.raises(TransportTimeout):
                faulty.request(b"doomed")
            assert clean.request(b"fine") == b"echo:fine"
        finally:
            faulty.close()
            clean.close()
            pool.close()

    def test_orphan_reply_is_counted_not_delivered(self):
        dispatcher = SlowFastServer(delay=0.0)
        dispatcher.release.clear()
        transport = TCPServerTransport(dispatcher)
        channel = _mux(transport, timeout=0.2)
        try:
            with pytest.raises(TransportTimeout):
                channel.request(b"slow:orphan")  # waiter gives up
            dispatcher.release.set()  # now the reply lands with no waiter
            time.sleep(0.2)
            # nothing reads an idle socket: the next request's read meets
            # the late reply first, counts it and does not deliver it
            assert channel.request(b"fast:after") == b"echo:fast:after"
            assert channel.health()["orphan_replies"] == 1
        finally:
            dispatcher.release.set()
            channel.close()
            transport.close()


# ---------------------------------------------------------------------------
# pipelined retries, reconnects, and reply-cache dedup
# ---------------------------------------------------------------------------

class TestPipelinedRetryDedup:
    def test_reconnect_resends_window_and_dedups(self):
        dispatcher = CountingServer(delay=0.25)
        transport = TCPServerTransport(dispatcher)
        channel = _mux(transport, timeout=5.0,
                       retry=RetryPolicy(max_attempts=8, base_delay=0.05,
                                         max_delay=0.3, seed=2003))
        try:
            results = {}

            def ask(payload):
                results[payload] = channel.request(payload)

            payloads = [b"r%d" % i for i in range(8)]
            threads = [threading.Thread(target=ask, args=(p,)) for p in payloads]
            for thread in threads:
                thread.start()
            time.sleep(0.1)  # the window is in flight, dispatches running
            channel.break_connection()
            for thread in threads:
                thread.join()
            for payload in payloads:
                assert results[payload] == b"echo:" + payload
            # every re-sent frame hit the reply cache's pending/replay
            # path: nothing dispatched twice
            assert dispatcher.counts == {p: 1 for p in payloads}
            assert channel.health()["reconnects"] >= 1
        finally:
            channel.close()
            transport.close()

    def test_server_restart_mid_window_dedups_through_shared_cache(self):
        dispatcher = CountingServer(delay=0.15)
        transports = [TCPServerTransport(dispatcher)]
        port = transports[0].port
        channel = _mux(transports[0], timeout=5.0,
                       retry=RetryPolicy(max_attempts=10, base_delay=0.05,
                                         max_delay=0.3, seed=7))
        try:
            results = {}

            def ask(payload):
                results[payload] = channel.request(payload)

            payloads = [b"w%d" % i for i in range(6)]
            threads = [threading.Thread(target=ask, args=(p,)) for p in payloads]
            for thread in threads:
                thread.start()
            time.sleep(0.08)  # mid-window, dispatches in progress
            old = transports[-1]
            old.close()
            transports.append(TCPServerTransport(
                dispatcher, port=port, reply_cache=old.reply_cache))
            for thread in threads:
                thread.join()
            for payload in payloads:
                assert results[payload] == b"echo:" + payload
            # the restarted transport inherited the reply cache, so
            # re-sent frames replayed instead of re-dispatching
            assert dispatcher.counts == {p: 1 for p in payloads}
        finally:
            channel.close()
            transports[-1].close()

    def test_retry_exhaustion_when_server_stays_down(self):
        transport = TCPServerTransport(EchoServer())
        channel = _mux(transport, timeout=1.0,
                       retry=RetryPolicy(max_attempts=3, base_delay=0.02,
                                         max_delay=0.05, seed=1))
        transport.close()
        try:
            with pytest.raises((RetryExhausted, TransportError)):
                channel.request(b"void")
        finally:
            channel.close()

    def test_duplicate_racing_original_shares_one_dispatch(self):
        # unit-level: a retry that lands while its original dispatch is
        # still running must wait for it and replay, not dispatch again
        cache = ReplyCache()
        started = threading.Event()
        release = threading.Event()
        calls = []

        def dispatch():
            calls.append(1)
            started.set()
            release.wait(timeout=5.0)
            return b"reply"

        outcome = {}

        def original():
            outcome["original"] = cache.execute("c", 1, dispatch)

        def duplicate():
            started.wait(timeout=5.0)
            outcome["duplicate"] = cache.execute("c", 1, dispatch)

        threads = [threading.Thread(target=original),
                   threading.Thread(target=duplicate)]
        for thread in threads:
            thread.start()
        started.wait(timeout=5.0)
        time.sleep(0.05)  # let the duplicate reach the pending-event wait
        release.set()
        for thread in threads:
            thread.join()
        assert outcome == {"original": b"reply", "duplicate": b"reply"}
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# the full client stack over one multiplexed connection
# ---------------------------------------------------------------------------

class TestClientOverSharedConnection:
    def test_two_clients_share_one_socket_and_stay_coherent(self):
        server = InterWeaveServer("s")
        transport = TCPServerTransport(server)
        pool = MuxConnectionPool({"s": ("127.0.0.1", transport.port)},
                                 timeout=5.0,
                                 retry=RetryPolicy(max_attempts=4, seed=3))
        writer = InterWeaveClient(
            "w", X86_32, pool.connect,
            options=ClientOptions(enable_notifications=False))
        reader = InterWeaveClient(
            "r", SPARC_V9, pool.connect,
            options=ClientOptions(enable_notifications=False))
        try:
            seg = writer.open_segment("s/counter")
            writer.wl_acquire(seg)
            writer.malloc(seg, INT, name="hits").set(0)
            writer.wl_release(seg)
            for round_number in range(1, 11):
                writer.wl_acquire(seg)
                counter = writer.accessor_for(seg, "hits")
                counter.set(counter.get() + 1)
                writer.wl_release(seg)
                replica = reader.open_segment("s/counter")
                reader.rl_acquire(replica)
                assert reader.accessor_for(replica, "hits").get() == round_number
                reader.rl_release(replica)
            # both clients (and their pollers) rode one core per server
            assert len(pool.health()) == 1
            assert pool.health()["s"]["connected"]
        finally:
            writer.close()
            reader.close()
            pool.close()
            transport.close()

    def test_lease_expiry_holds_over_multiplexed_channel(self):
        # a dead virtual channel's write lease must lapse and be
        # reclaimed exactly as with the serial transport
        server = InterWeaveServer("s", lease_duration=0.4)
        transport = TCPServerTransport(server)
        pool = MuxConnectionPool({"s": ("127.0.0.1", transport.port)},
                                 timeout=5.0)
        dead = InterWeaveClient(
            "dead", X86_32, pool.connect,
            options=ClientOptions(enable_notifications=False))
        writer = InterWeaveClient(
            "writer", X86_32, pool.connect,
            options=ClientOptions(enable_notifications=False,
                                  lock_retry_interval=0.05))
        try:
            seg_dead = dead.open_segment("s/x")
            dead.wl_acquire(seg_dead)  # ...and the client "dies" here
            seg = writer.open_segment("s/x")
            writer.wl_acquire(seg)  # blocks until the lease lapses
            writer.malloc(seg, INT, name="v").set(42)
            writer.wl_release(seg)
            assert server.stats.lease_expiries == 1
            with pytest.raises(ServerError):
                dead.wl_release(seg_dead)  # zombie release is fenced off
        finally:
            writer.close()
            # the dead client still holds a (fenced) lock entry; close
            # channels directly rather than through client.close()
            pool.close()
            transport.close()
