"""Which replies the server retains for retries.

A re-sent state-changing request (write acquire and release, open,
delete, subscribe, migration, directory update, replication) is answered
from the reply cache and never runs twice.  A re-sent read-only request
(read acquire and release, fetch, stats) simply runs again: it carries
the client's version, so the re-run's reply is coherent whichever copy
the client ends up applying (docs/PROTOCOL.md §6).  These tests pin the
rule at the frame level, over the per-request timeout path, in the
coherence of the readers it affects, and in what a reader's session
costs the server; the last group races duplicates against the cache's
lazily built wake-up.
"""

import threading
import time

import pytest

from repro import InterWeaveClient, InterWeaveServer
from repro.arch import SPARC_V9, X86_64
from repro.client import ClientOptions
from repro.coherence import diff, full
from repro.errors import ServerError
from repro.transport import (Dispatcher, ReplyCache, RetryPolicy, TCPChannel,
                             TCPServerTransport)
from repro.transport.tcp import request_frame_buffers
from repro.types import INT, ArrayDescriptor
from repro.wire.messages import (
    LOCK_READ,
    LOCK_WRITE,
    REPL_DIFF,
    DeleteSegmentRequest,
    DirectoryUpdateRequest,
    FetchRequest,
    GetStatsRequest,
    LockAcquireReply,
    LockAcquireRequest,
    LockReleaseRequest,
    MigrateOutRequest,
    OpenSegmentRequest,
    ReplicateAppendRequest,
    SubscribeRequest,
    _is_read_only,
    decode_message,
    encode_message,
)


class Counting(Dispatcher):
    """Answers every payload with the number of times it has run; the
    first run of ``slow`` stalls for ``delay`` seconds, then sets
    ``stalled``."""

    def __init__(self, slow=None, delay=0.0):
        self.slow, self.delay = slow, delay
        self.lock = threading.Lock()
        self.counts = {}
        self.stalled = threading.Event()

    def dispatch(self, client_id, data):
        with self.lock:
            runs = self.counts[bytes(data)] = self.counts.get(bytes(data), 0) + 1
        if runs == 1 and bytes(data) == self.slow:
            time.sleep(self.delay)
            self.stalled.set()
        return encode_message(LockAcquireReply(granted=True, version=runs))


def _retained_bytes(cache):
    return sum(len(reply) for session in cache._sessions.values()
               for reply in session.replies.values())


def _dedup_hits(cache):
    return cache._m_hits.value


READ_ONLY = [
    LockAcquireRequest("s/x", LOCK_READ, "c", 3),
    LockAcquireRequest("s/été", LOCK_READ, "c", 0),
    LockReleaseRequest("s/x", LOCK_READ, "c"),
    FetchRequest("s/x", "c", 2),
    FetchRequest("s/x", "c", 0, meta_only=True),
    GetStatsRequest("c"),
]
STATE_CHANGING = [
    LockAcquireRequest("s/x", LOCK_WRITE, "c", 3),
    LockAcquireRequest("s/été", LOCK_WRITE, "c", 0),
    LockReleaseRequest("s/x", LOCK_WRITE, "c"),
    OpenSegmentRequest("s/x"),
    DeleteSegmentRequest("s/x", "c"),
    SubscribeRequest("s/x", "c", True),
    DirectoryUpdateRequest(0, "o1"),
    MigrateOutRequest("s/x"),
    ReplicateAppendRequest(REPL_DIFF, "s/x", 1, 2),
]


def _payloads(messages):
    return [pytest.param(encode_message(m), id=type(m).__name__) for m in messages]


# ---------------------------------------------------------------------------
# (a) the rule, frame by frame through the transport's dispatch
# ---------------------------------------------------------------------------

class TestRetentionRule:
    @pytest.fixture
    def transport(self):
        transport = TCPServerTransport(Counting())
        yield transport
        transport.close()

    def _twice(self, transport, payload):
        frame = b"".join(request_frame_buffers(b"c", 7, 1, payload)[1:])
        return [transport._dispatch(frame)[2] for _ in range(2)]

    @pytest.mark.parametrize("payload", _payloads(READ_ONLY))
    def test_read_only_request_reruns_and_retains_nothing(self, transport,
                                                          payload):
        hits = _dedup_hits(transport.reply_cache)
        first, second = self._twice(transport, payload)
        assert transport._dispatcher.counts == {payload: 2}
        assert decode_message(second).version == 2
        assert _retained_bytes(transport.reply_cache) == 0
        assert _dedup_hits(transport.reply_cache) == hits

    @pytest.mark.parametrize("payload", _payloads(STATE_CHANGING) + [
        pytest.param(b"echo", id="not-a-message"),
        pytest.param(b"\x02\x00\x00", id="truncated-lock-request")])
    def test_state_changing_request_runs_once_and_replays(self, transport,
                                                          payload):
        hits = _dedup_hits(transport.reply_cache)
        first, second = self._twice(transport, payload)
        assert transport._dispatcher.counts == {payload: 1}
        assert second == first
        assert _dedup_hits(transport.reply_cache) == hits + 1

    def test_schema_declares_exactly_the_read_only_requests(self):
        assert all(_is_read_only(encode_message(m)) for m in READ_ONLY)
        assert not any(_is_read_only(encode_message(m)) for m in STATE_CHANGING)
        assert not _is_read_only(b"")


# ---------------------------------------------------------------------------
# (b) the per-request timeout path: a resend on the same connection
# ---------------------------------------------------------------------------

class TestTimeoutResend:
    def _resend_after_timeout(self, payload):
        """Request ``payload``, whose first run outlasts the per-request
        timeout, then read the late original off the socket."""
        dispatcher = Counting(slow=payload, delay=0.8)
        transport = TCPServerTransport(dispatcher)
        channel = TCPChannel(
            "127.0.0.1", transport.port, "c", timeout=0.3,
            retry=RetryPolicy(max_attempts=10, base_delay=0.01,
                              max_delay=0.02, jitter=0.0))
        try:
            reply = decode_message(channel.request(payload))
            assert dispatcher.stalled.wait(timeout=10.0)
            time.sleep(0.1)  # the original's reply lands...
            channel.request(b"ping")  # ...and the next request reads it
            return reply, dispatcher.counts[payload], channel.health()
        finally:
            channel.close()
            transport.close()

    def test_read_acquire_resend_reruns_and_the_original_is_an_orphan(self):
        payload = encode_message(LockAcquireRequest("s/x", LOCK_READ, "c", 1))
        reply, runs, health = self._resend_after_timeout(payload)
        assert runs == health["retries"] + 1 >= 2
        assert reply.version >= 2  # a re-run's copy, not the stalled one
        # the stalled original's reply (and any slower re-run's) is late
        assert health["orphan_replies"] == health["retries"]

    def test_write_release_resend_still_dispatches_once(self):
        payload = encode_message(LockReleaseRequest("s/x", LOCK_WRITE, "c"))
        reply, runs, health = self._resend_after_timeout(payload)
        assert health["retries"] >= 1
        assert runs == 1
        assert reply.version == 1  # the original's reply, replayed


# ---------------------------------------------------------------------------
# (c) coherence after a lost read reply
# ---------------------------------------------------------------------------

N = 100


class LosesOneReadReply(TCPChannel):
    """Loses the reply to the next read acquire once armed with
    ``(between, keep_original)``: the request runs, ``between()`` runs,
    and the same frame is sent again under its sequence number, as a
    retry after a lost reply is.  The caller gets the retry's reply, or
    with ``keep_original`` the original's (it won the race, and the
    retry's became the orphan)."""

    armed = None

    def request(self, data):
        message = decode_message(data)
        if self.armed is None or not (isinstance(message, LockAcquireRequest)
                                      and message.mode == LOCK_READ):
            return super().request(data)
        between, keep_original = self.armed
        self.armed = None
        slot = self.submit(data)
        original = slot.result()
        between()
        self._core.resend(slot)
        retry = slot.result()
        return original if keep_original else retry


class _World:
    def __init__(self):
        self.server = InterWeaveServer("s")
        self.transport = TCPServerTransport(self.server)
        self.channels = {}
        self.clients = []
        self.writer = self._client("w", X86_64)
        self.seg = self.writer.open_segment("s/lost")
        self.writer.wl_acquire(self.seg)
        self.values = self.writer.malloc(self.seg, ArrayDescriptor(INT, N),
                                         name="a")
        self.values.write_values(list(range(N)))
        self.writer.wl_release(self.seg)
        self.round = 0

    def _client(self, client_id, arch):
        def connect(_server, cid):
            channel = LosesOneReadReply("127.0.0.1", self.transport.port,
                                        cid, timeout=5.0)
            self.channels[cid] = channel
            return channel

        client = InterWeaveClient(
            client_id, arch, connect,
            options=ClientOptions(enable_notifications=False))
        self.clients.append(client)
        return client

    def reader(self, client_id, policy):
        client = self._client(client_id, SPARC_V9)
        seg = client.open_segment("s/lost")
        client.set_coherence(seg, policy)
        self.read(client, seg)
        return client, seg

    def write(self, count):
        """Rewrite the first ``count`` elements; returns the new version."""
        self.round += 1
        self.writer.wl_acquire(self.seg)
        self.values.write_values([1000 * self.round + i for i in range(count)])
        self.writer.wl_release(self.seg)
        return self.seg.version

    @staticmethod
    def read(client, seg):
        client.rl_acquire(seg)
        try:
            return list(client.accessor_for(seg, "a").read_values())
        finally:
            client.rl_release(seg)

    def latest(self):
        return list(self.values.read_values())

    def close(self):
        for client in self.clients:
            client.close()
        self.transport.close()


@pytest.mark.parametrize("keep_original", [False, True],
                         ids=["retry-applied", "original-applied"])
@pytest.mark.parametrize("policy,bound", [(full(), 0), (diff(50), 50)],
                         ids=["full", "diff50"])
def test_reader_stays_within_its_bound_after_a_lost_read_reply(
        policy, bound, keep_original):
    world = _World()
    try:
        client, seg = world.reader("r", policy)
        v = world.write(N)  # every element: both readers must update
        world.channels["r"].armed = (lambda: world.write(N), keep_original)
        seen = world.read(client, seg)
        if keep_original:
            assert seg.version == v
        else:
            # the retry re-ran after the write: it carries v + 1
            assert seg.version == v + 1
            assert seen == world.latest()
        world.write(N // 10)  # inside the Diff bound, a new version for Full
        seen = world.read(client, seg)
        stale = sum(a != b for a, b in zip(seen, world.latest()))
        assert stale * 100 <= bound * N, (seg.version, world.seg.version)
    finally:
        world.close()


# ---------------------------------------------------------------------------
# (d) what a reader's session costs the server
# ---------------------------------------------------------------------------

def test_read_acquires_of_large_updates_retain_no_reply_bytes():
    server = InterWeaveServer("s")
    transport = TCPServerTransport(server)
    writer = InterWeaveClient(
        "w", X86_64, lambda _server, cid: TCPChannel(
            "127.0.0.1", transport.port, cid, timeout=10.0),
        options=ClientOptions(enable_notifications=False))
    channel = TCPChannel("127.0.0.1", transport.port, "r", timeout=10.0)
    try:
        seg = writer.open_segment("s/big")
        writer.wl_acquire(seg)
        writer.malloc(seg, ArrayDescriptor(INT, 64 * 1024), name="a") \
            .write_values(list(range(64 * 1024)))
        writer.wl_release(seg)
        # a reader with nothing cached: every acquire carries the segment
        request = encode_message(LockAcquireRequest("s/big", LOCK_READ, "r", 0))
        sizes = {len(channel.request(request)) for _ in range(300)}
        assert min(sizes) >= 256 * 1024
        assert _retained_bytes(transport.reply_cache) < 64 * 1024
    finally:
        channel.close()
        writer.close()
        transport.close()


# ---------------------------------------------------------------------------
# duplicates racing their original through the lazily built wake-up
# ---------------------------------------------------------------------------

def _race(cache, seq, dispatch, duplicates, release, started):
    """One original and ``duplicates`` copies of ``seq``; ``release``
    fires after a varying number of the copies have started."""
    results = []

    def run():
        try:
            results.append(cache.execute("c", seq, dispatch))
        except ServerError as exc:
            results.append(exc)

    original = threading.Thread(target=run, daemon=True)
    original.start()
    assert started.wait(timeout=5.0)
    copies = [threading.Thread(target=run, daemon=True)
              for _ in range(duplicates)]
    for index, thread in enumerate(copies):
        if index == seq % (duplicates + 1):
            release.set()
        thread.start()
    release.set()
    for thread in [original] + copies:
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "a duplicate missed its wake-up"
    return results


def test_every_racing_duplicate_wakes_and_shares_one_dispatch():
    cache = ReplyCache()
    for seq in range(1, 41):
        started, release, calls = threading.Event(), threading.Event(), []

        def dispatch(seq=seq, started=started, release=release, calls=calls):
            calls.append(1)
            started.set()
            release.wait(timeout=5.0)
            return b"r%d" % seq

        results = _race(cache, seq, dispatch, 4, release, started)
        assert results == [b"r%d" % seq] * 5
        assert len(calls) == 1
    session = next(iter(cache._sessions.values()))
    assert not session.pending


def test_duplicates_of_a_failed_original_wake_and_dispatch_again():
    cache = ReplyCache()
    for seq in range(1, 21):
        started, release, calls = threading.Event(), threading.Event(), []

        def dispatch(seq=seq, started=started, release=release, calls=calls):
            calls.append(1)
            started.set()
            release.wait(timeout=5.0)
            if len(calls) == 1:
                raise ServerError("transient")
            return b"r%d" % seq

        results = _race(cache, seq, dispatch, 3, release, started)
        assert sum(isinstance(r, ServerError) for r in results) == 1
        assert results.count(b"r%d" % seq) == 3
        assert len(calls) == 2
    session = next(iter(cache._sessions.values()))
    assert not session.pending
