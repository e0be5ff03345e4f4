"""Only the builder of a diff encodes it; every other hop moves its bytes.

A write release is decoded once at the server, applied, and handed on to
the diff cache, the WAL and the replication stream as the writer's bytes
with the new version stamped into them (``wire.diff.stamped_wire``).  A
cache hit is spliced into the reply as it is (the ``opt_diff`` kind
accepts encoded bytes), and a relay caches what the origin sent it.

The differential tests pin the byte identity this rests on: a stamped
span equals re-encoding the diff with its versions set, and a reply that
carries a diff's bytes equals the one that carries the decoded diff.
``REPRO_DIFFERENTIAL_EXAMPLES`` raises their Hypothesis budget (CI runs
them with 1000 examples).  The census counts, per tier, who calls the
diff codec in a steady write/read cycle over TCP.
"""

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import InProcHub, InterWeaveClient, InterWeaveServer
from repro.arch import ALPHA, MIPS32, SPARC_V9, X86_32
from repro.client import ClientOptions
from repro.obs.metrics import MetricsRegistry
from repro.proxy import CachingProxy
from repro.replication import ReplicationSender
from repro.transport import MuxConnectionPool, TCPChannel, TCPServerTransport
from repro.transport.base import Dispatcher
from repro.types import INT, ArrayDescriptor, encode_descriptor
from repro.wire import SegmentDiff, decode_segment_diff, encode_segment_diff
from repro.wire import diff as diff_module
from repro.wire import messages
from repro.wire.diff import stamped_wire
from repro.wire.messages import (LOCK_WRITE, FetchReply, LockAcquireReply,
                                 LockReleaseRequest, decode_message,
                                 encode_message)
from tests import test_wire_diff as wire_cases
from tests._support import descriptors_with_pointers, fill_random

EXAMPLES = int(os.environ.get("REPRO_DIFFERENTIAL_EXAMPLES", "100"))
ARCHS = [X86_32, SPARC_V9, ALPHA, MIPS32]

segment_diffs = st.builds(
    SegmentDiff,
    segment=st.text(min_size=1, max_size=20),
    from_version=st.integers(0, 2**31),
    to_version=st.integers(0, 2**31),
    block_diffs=st.lists(wire_cases.block_diffs, max_size=5),
    new_types=st.lists(
        st.tuples(st.integers(1, 100), st.just(encode_descriptor(INT))),
        max_size=3))


def reencoded(diff: SegmentDiff, version: int) -> bytes:
    """What the server did before stamping: set the versions, encode."""
    for block_diff in diff.block_diffs:
        block_diff.version = version
    diff.to_version = version
    return encode_segment_diff(diff)


class _CaptureReleases(Dispatcher):
    """Wraps a server; keeps the bytes of every write release it sees."""

    def __init__(self, inner):
        self.inner = inner
        self.releases = []

    def dispatch(self, client_id: str, data: bytes) -> bytes:
        request = decode_message(data)
        if isinstance(request, LockReleaseRequest) and \
                request.mode == LOCK_WRITE and request.diff is not None:
            self.releases.append(data)
        return self.inner.dispatch(client_id, data)


class TestStampDifferential:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(diff=segment_diffs, version=st.integers(0, 2**32 - 1))
    def test_stamped_span_equals_reencode(self, diff, version):
        decoded = decode_segment_diff(encode_segment_diff(diff))
        assert stamped_wire(decoded, version) == reencoded(decoded, version)

    @settings(max_examples=EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(arch=st.sampled_from(ARCHS),
           types=st.lists(descriptors_with_pointers(max_leaves=6),
                          min_size=1, max_size=4),
           seed=st.integers(0, 2**16),
           version=st.integers(0, 2**32 - 1))
    def test_writer_releases_stamp_like_reencode(self, arch, types, seed,
                                                 version):
        """Real releases on four writer architectures — new blocks, named
        or not, of new types; rewrites; frees: the server caches the
        stamped bytes, equal to re-encoding at the new version, and any
        other version stamps like a re-encode too."""
        rng = np.random.default_rng(seed)
        server = InterWeaveServer("h", metrics=MetricsRegistry())
        capture = _CaptureReleases(server)
        hub = InProcHub()
        hub.register_server("h", capture)
        writer = InterWeaveClient(
            "w", arch, hub.connect,
            options=ClientOptions(enable_notifications=False))
        seg = writer.open_segment("h/s")
        live = []
        for section, descriptor in enumerate(types):
            writer.wl_acquire(seg)
            name = f"b{section}" if rng.random() < 0.5 else None
            block = writer.malloc(seg, descriptor, name=name)
            fill_random(block, descriptor, rng)
            if live:
                old, old_descriptor = live[int(rng.integers(len(live)))]
                fill_random(old, old_descriptor, rng)
            if len(live) > 1 and rng.random() < 0.5:
                writer.free(seg, live.pop(0)[0])
            live.append((block, descriptor))
            writer.wl_release(seg)
        assert len(capture.releases) == len(types)
        for data in capture.releases:
            diff = decode_message(data).diff
            step = diff.from_version + 1
            cached = server.diff_cache.peek("h/s", diff.from_version, step)
            assert stamped_wire(diff, version) == reencoded(diff, version)
            assert cached == reencoded(diff, step)

    def test_materialize_copies_the_span(self):
        diff = SegmentDiff("s", 1, 2)
        buffer = bytearray(encode_segment_diff(diff))
        decoded = decode_segment_diff(buffer)
        buffer[:] = bytes(len(buffer))  # recycle the receive buffer
        assert isinstance(decoded.wire, bytes)
        assert stamped_wire(decoded, 3) == reencoded(decoded, 3)


class TestSpliceDifferential:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(diff=segment_diffs, version=st.integers(0, 2**32 - 1))
    def test_reply_with_bytes_equals_reply_with_diff(self, diff, version):
        encoded = encode_segment_diff(diff)
        decoded = decode_segment_diff(encoded)
        for carried in (encoded, memoryview(encoded), decoded.wire):
            assert encode_message(LockAcquireReply(
                True, version, 0.0, carried)) == encode_message(
                LockAcquireReply(True, version, 0.0, decoded))
            assert encode_message(FetchReply(version, carried)) == \
                encode_message(FetchReply(version, decoded))
        assert decode_message(encode_message(
            FetchReply(version, encoded))).diff == decoded


# ---------------------------------------------------------------------------
# the encode census
# ---------------------------------------------------------------------------

class _Census:
    """Spies on the diff codec's two entry points; each call is charged
    to the tier whose frame is nearest on the calling stack."""

    def __init__(self, monkeypatch):
        self.tiers = {}
        self.calls = []
        self.lock = threading.Lock()
        for module in (diff_module, messages):
            for name, kind in (("encode_segment_diff_into", "encode"),
                               ("decode_segment_diff_from", "decode")):
                monkeypatch.setattr(module, name,
                                    self._spy(getattr(module, name), kind))

    def _spy(self, original, kind):
        def spy(*args, **kwargs):
            frame = sys._getframe(1)
            tier = "other"
            while frame is not None:
                owner = frame.f_locals.get("self")
                if id(owner) in self.tiers:
                    tier = self.tiers[id(owner)]
                    break
                frame = frame.f_back
            with self.lock:
                self.calls.append((kind, tier))
            return original(*args, **kwargs)
        return spy

    def count(self):
        with self.lock:
            calls, self.calls = self.calls, []
        counts = {}
        for call in calls:
            counts[call] = counts.get(call, 0) + 1
        return counts


def _cycles(writer, reader, count, start):
    seg = writer.open_segment("h/data")
    seg_r = reader.open_segment("h/data")
    for step in range(start, start + count):
        writer.wl_acquire(seg)
        if step == 0:
            writer.malloc(seg, ArrayDescriptor(INT, 256), name="a")
        writer.accessor_for(seg, "a").write_values(
            [step * 1000 + i for i in range(256)])
        writer.wl_release(seg)
        reader.rl_acquire(seg_r)
        assert reader.accessor_for(seg_r, "a")[7] == step * 1000 + 7
        reader.rl_release(seg_r)


@pytest.mark.parametrize("relay", [False, True],
                         ids=["origin", "relay-origin-backup"])
def test_encode_census(monkeypatch, relay):
    """K steady write + Full read cycles over TCP: nothing but the writer
    encodes a diff; the origin and the backup decode each release once;
    the relay decodes only the write release it routes."""
    census = _Census(monkeypatch)
    closers = []
    try:
        origin = InterWeaveServer("h", metrics=MetricsRegistry(),
                                  quorum_ack=relay, quorum_timeout=5.0)
        census.tiers[id(origin)] = "origin"
        origin_transport = TCPServerTransport(origin)
        closers.append(origin_transport.close)
        port = origin_transport.port
        if relay:
            backup = InterWeaveServer("backup", role="backup",
                                      metrics=MetricsRegistry())
            census.tiers[id(backup)] = "backup"
            backup_transport = TCPServerTransport(backup)
            closers.append(backup_transport.close)
            sender = ReplicationSender(
                origin, TCPChannel("127.0.0.1", backup_transport.port,
                                   "!repl", timeout=10.0),
                metrics=MetricsRegistry())
            closers.append(sender.close)
            origin.attach_replicator(sender)
            pool = MuxConnectionPool({"h": ("127.0.0.1", port)},
                                     timeout=10.0)
            closers.append(pool.close)
            proxy = CachingProxy("h", connector=pool.connect,
                                 metrics=MetricsRegistry())
            census.tiers[id(proxy)] = "relay"
            closers.append(proxy.close)
            proxy_transport = TCPServerTransport(proxy)
            closers.append(proxy_transport.close)
            port = proxy_transport.port

        def connector(server_name, client_id):
            return TCPChannel("127.0.0.1", port, client_id, timeout=10.0)

        writer, reader = (InterWeaveClient(
            name, X86_32, connector,
            options=ClientOptions(enable_notifications=False))
            for name in ("w", "r"))
        closers.extend((writer.close, reader.close))
        census.tiers[id(writer)] = "writer"
        census.tiers[id(reader)] = "reader"
        _cycles(writer, reader, 2, 0)  # creation, first copies, catch-up
        census.count()
        cycles = 4
        _cycles(writer, reader, cycles, 2)
        expected = {("encode", "writer"): cycles,
                    ("decode", "origin"): cycles,
                    ("decode", "reader"): cycles}
        if relay:
            expected[("decode", "backup")] = cycles
            expected[("decode", "relay")] = cycles
        assert census.count() == expected
    finally:
        for close in reversed(closers):
            close()
