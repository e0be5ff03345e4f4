"""Tests for primary-backup replication, promotion, and client failover."""

import sys
import threading
import time

import pytest

from repro import (
    ClusterCoordinator,
    DirectoryResolver,
    InProcHub,
    InterWeaveClient,
    InterWeaveServer,
    ReplicationSender,
    SegmentDirectory,
    VirtualClock,
)
from repro.arch import X86_32
from repro.errors import ServerError, TransportError
from repro.obs.metrics import MetricsRegistry
from repro.transport.base import Dispatcher
from repro.types import INT, ArrayDescriptor
from repro.wire import decode_segment_diff
from repro.wire.diff import stamped_wire
from repro.wire.messages import (
    LOCK_WRITE,
    REPL_DIFF,
    ErrorReply,
    LockAcquireReply,
    LockAcquireRequest,
    ReplicateAck,
    ReplicateAppendRequest,
    decode_message,
    encode_message,
)


class FailableDispatcher(Dispatcher):
    """Wraps a server; once ``dead``, every request fails like a cut TCP
    connection would."""

    def __init__(self, inner):
        self.inner = inner
        self.dead = False

    def dispatch(self, client_id: str, data: bytes) -> bytes:
        if self.dead:
            raise TransportError("connection refused (server killed)")
        return self.inner.dispatch(client_id, data)


class GatedDispatcher(Dispatcher):
    """Wraps a server; with the gate closed every request blocks until it
    reopens — a reachable-but-slow backup link.  ``arrivals`` counts the
    requests that entered the link."""

    def __init__(self, inner):
        self.inner = inner
        self.gate = threading.Event()
        self.gate.set()
        self.arrivals = 0

    def dispatch(self, client_id: str, data: bytes) -> bytes:
        self.arrivals += 1
        self.gate.wait(30.0)
        return self.inner.dispatch(client_id, data)


class RefuseOneDiff(Dispatcher):
    """Wraps a server; once ``armed``, answers the next diff record with
    an error reply, as a backup whose apply failed would."""

    def __init__(self, inner):
        self.inner = inner
        self.armed = False
        self.refused = False

    def dispatch(self, client_id: str, data: bytes) -> bytes:
        request = decode_message(data)
        if (self.armed and isinstance(request, ReplicateAppendRequest)
                and request.kind == REPL_DIFF):
            self.armed = False
            self.refused = True
            return encode_message(ErrorReply(message="apply failed"))
        return self.inner.dispatch(client_id, data)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


def build_pair(clock, lease_duration=30.0):
    """A replicating primary/backup pair sharing one in-process hub."""
    hub = InProcHub(clock=clock)
    primary = InterWeaveServer("primary", sink=hub, clock=clock,
                               lease_duration=lease_duration,
                               metrics=MetricsRegistry())
    backup = InterWeaveServer("backup", sink=hub, clock=clock,
                              lease_duration=lease_duration,
                              role="backup", metrics=MetricsRegistry())
    hub.register_server("primary", primary)
    hub.register_server("backup", backup)
    sender = ReplicationSender(primary, hub.connect("backup", "!repl"),
                               metrics=MetricsRegistry())
    primary.attach_replicator(sender)
    return hub, primary, backup, sender


def seed_segment(hub, clock):
    """A writer ``w`` and segment ``primary/data`` at version 1."""
    client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
    seg = client.open_segment("primary/data")
    client.wl_acquire(seg)
    array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
    array.write_values(list(range(8)))
    client.wl_release(seg)
    return client, seg, array


def write_round(client, seg, array, base):
    client.wl_acquire(seg)
    array.write_values([base + i for i in range(8)])
    client.wl_release(seg)


class TestStream:
    def test_backup_converges_with_primary(self):
        clock = VirtualClock()
        hub, primary, backup, sender = build_pair(clock)
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("primary/data")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values(list(range(8)))
        client.wl_release(seg)
        for base in (100, 200):
            write_round(client, seg, array, base)
        assert sender.flush()
        p_state = primary.segments["primary/data"].state
        b_state = backup.segments["primary/data"].state
        assert b_state.version == p_state.version == 3
        assert b_state.read_block_wire(1) == p_state.read_block_wire(1)
        sender.close()

    def test_backup_rejects_client_traffic_until_promoted(self):
        clock = VirtualClock()
        hub, primary, backup, sender = build_pair(clock)
        channel = hub.connect("backup", "intruder")
        reply = decode_message(channel.request(encode_message(
            LockAcquireRequest(segment="primary/data", mode=LOCK_WRITE,
                               client_id="intruder", client_version=0))))
        assert isinstance(reply, ErrorReply)
        assert "backup" in reply.message
        backup.promote()
        assert backup.role == "primary"
        sender.close()

    def test_catchup_heals_late_attach(self):
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        primary = InterWeaveServer("primary", sink=hub, clock=clock,
                                   metrics=MetricsRegistry())
        backup = InterWeaveServer("backup", clock=clock, role="backup",
                                  metrics=MetricsRegistry())
        hub.register_server("primary", primary)
        hub.register_server("backup", backup)
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("primary/data")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values(list(range(8)))
        client.wl_release(seg)
        write_round(client, seg, array, 100)  # versions the backup never saw

        sender = ReplicationSender(primary, hub.connect("backup", "!repl"),
                                   metrics=MetricsRegistry())
        primary.attach_replicator(sender)
        write_round(client, seg, array, 200)
        assert sender.flush()
        b_state = backup.segments["primary/data"].state
        assert b_state.version == 3
        assert (b_state.read_block_wire(1)
                == primary.segments["primary/data"].state.read_block_wire(1))
        assert backup._m_replica_catchups.value == 1
        sender.close()

    def test_replication_is_idempotent_under_duplicate_delivery(self):
        clock = VirtualClock()
        hub, primary, backup, sender = build_pair(clock)
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("primary/data")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values(list(range(8)))
        client.wl_release(seg)
        assert sender.flush()
        # replay the whole diff cache as if the sender retried everything
        for from_v, to_v, encoded in primary.diff_cache.entries_for(
                "primary/data"):
            from repro.wire.messages import REPL_DIFF, ReplicateAppendRequest

            reply = decode_message(backup.dispatch("!repl", encode_message(
                ReplicateAppendRequest(kind=REPL_DIFF, segment="primary/data",
                                       from_version=from_v, to_version=to_v,
                                       payload=encoded))))
            assert reply.ok  # duplicate acks cleanly, applies nothing
        assert backup.segments["primary/data"].state.version == 1
        sender.close()


class TestFailover:
    def test_promoted_backup_honors_outstanding_lease(self):
        clock = VirtualClock()
        hub, primary, backup, sender = build_pair(clock, lease_duration=10.0)
        client = InterWeaveClient("writerA", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("primary/data")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values(list(range(8)))
        client.wl_release(seg)
        client.wl_acquire(seg)  # writerA holds the lease at the crash
        assert sender.flush()
        backup.promote()

        probe = hub.connect("backup", "writerB")
        request = encode_message(LockAcquireRequest(
            segment="primary/data", mode=LOCK_WRITE, client_id="writerB",
            client_version=0))
        denied = decode_message(probe.request(request))
        assert isinstance(denied, LockAcquireReply) and not denied.granted

        clock.advance(11.0)  # writerA's lease lapses at the backup too
        granted = decode_message(probe.request(request))
        assert isinstance(granted, LockAcquireReply) and granted.granted
        assert backup.stats.lease_expiries == 1
        sender.close()

    def test_coordinator_promotion_and_client_reresolve(self):
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        primary = InterWeaveServer("primary", sink=hub, clock=clock,
                                   metrics=MetricsRegistry())
        backup = InterWeaveServer("backup", sink=hub, clock=clock,
                                  role="backup", metrics=MetricsRegistry())
        failable = FailableDispatcher(primary)
        hub.register_server("primary", failable)
        hub.register_server("backup", backup)
        directory = SegmentDirectory("directory", origins=["primary"])
        hub.register_server("directory", directory)
        coordinator = ClusterCoordinator(directory, hub.connect, clock=clock)
        sender = ReplicationSender(primary, hub.connect("backup", "!repl"),
                                   metrics=MetricsRegistry())
        primary.attach_replicator(sender)

        client = InterWeaveClient("c", X86_32, hub.connect, clock=clock,
                                  resolver=DirectoryResolver(hub.connect))
        seg = client.open_segment("data")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values(list(range(8)))
        client.wl_release(seg)
        write_round(client, seg, array, 100)
        assert sender.flush()

        failable.dead = True  # kill -9 the primary
        coordinator.promote_backup("primary", "backup")
        assert backup.role == "primary"
        assert directory.lookup("data")[0] == "backup"

        # the client's next operation hits the dead server, re-resolves,
        # and lands at the promoted backup transparently
        write_round(client, seg, array, 200)
        assert client.stats.failovers_followed >= 1
        b_state = backup.segments["data"].state
        assert b_state.version == 3
        reader = InterWeaveClient("r", X86_32, hub.connect, clock=clock,
                                  resolver=DirectoryResolver(hub.connect))
        seg_r = reader.open_segment("data", create=False)
        reader.rl_acquire(seg_r)
        values = list(reader.accessor_for(seg_r, "a").read_values())
        reader.rl_release(seg_r)
        assert values == [200 + i for i in range(8)]
        sender.close()
        coordinator.close()

    def test_static_resolver_failover_is_a_noop(self):
        """With no directory there is nowhere to fail over to: the
        transport error propagates exactly as before this feature."""
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        server = InterWeaveServer("host", sink=hub, clock=clock,
                                  metrics=MetricsRegistry())
        failable = FailableDispatcher(server)
        hub.register_server("host", failable)
        client = InterWeaveClient("c", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("host/data")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 4), name="a")
        array.write_values([1, 2, 3, 4])
        client.wl_release(seg)
        failable.dead = True
        with pytest.raises(TransportError):
            client.wl_acquire(seg)
        assert client.stats.failovers_followed == 0


class TestSelfHealingStream:
    def test_stalled_backup_converges_past_a_tiny_diff_cache(self):
        """While the link stalls, the primary's small diff cache loses the
        versions the backup lacks; once it reopens the backup converges
        through exactly one catchup, the stream resumes from the cache,
        and the writer's lease is mirrored."""
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        primary = InterWeaveServer("primary", sink=hub, clock=clock,
                                   diff_cache_bytes=2048,
                                   metrics=MetricsRegistry())
        backup = InterWeaveServer("backup", clock=clock, role="backup",
                                  metrics=MetricsRegistry())
        gated = GatedDispatcher(backup)
        hub.register_server("primary", primary)
        hub.register_server("backup", gated)
        sender = ReplicationSender(primary, hub.connect("backup", "!repl"),
                                   metrics=MetricsRegistry())
        primary.attach_replicator(sender)
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("primary/data")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 256), name="a")
        array.write_values(list(range(256)))
        client.wl_release(seg)
        assert sender.flush()
        catchups = backup._m_replica_catchups.value

        gated.gate.clear()
        arrivals = gated.arrivals
        for base in range(1, 9):  # each diff is about 1 KiB
            client.wl_acquire(seg)
            array.write_values([1000 * base + i for i in range(256)])
            client.wl_release(seg)
            if base == 1:
                # the sender is stuck shipping this round, not a catchup
                assert wait_until(lambda: gated.arrivals > arrivals)
        assert primary.replication_record("primary/data", 2) is None
        gated.gate.set()
        assert sender.flush(timeout=10.0)
        assert backup._m_replica_catchups.value == catchups + 1
        p_state = primary.segments["primary/data"].state
        assert backup.segments["primary/data"].state.version == p_state.version

        # the stream resumes from the cache: no further catchup
        appends = backup._m_replica_appends.value
        write_round(client, seg, array, 5000)
        client.wl_acquire(seg)  # the writer holds the lease at the crash
        assert sender.flush()
        assert backup._m_replica_catchups.value == catchups + 1
        # the diff, and the lease once or twice (grant, release, grant)
        assert 2 <= backup._m_replica_appends.value - appends <= 3
        b_state = backup.segments["primary/data"].state
        assert b_state.version == p_state.version
        assert b_state.read_block_wire(1) == p_state.read_block_wire(1)
        backup.promote()
        probe = hub.connect("backup", "writerB")
        denied = decode_message(probe.request(encode_message(
            LockAcquireRequest(segment="primary/data", mode=LOCK_WRITE,
                               client_id="writerB", client_version=0))))
        assert isinstance(denied, LockAcquireReply) and not denied.granted
        sender.close()

    def test_catchup_reasserts_live_lease(self):
        """A catchup installs fresh segment state at the backup, wiping
        the mirrored lease — the sender must re-assert it, or a promoted
        backup would hand the lock to a second writer mid-write."""
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        primary = InterWeaveServer("primary", sink=hub, clock=clock,
                                   lease_duration=50.0,
                                   metrics=MetricsRegistry())
        backup = InterWeaveServer("backup", sink=hub, clock=clock,
                                  lease_duration=50.0, role="backup",
                                  metrics=MetricsRegistry())
        hub.register_server("primary", primary)
        hub.register_server("backup", backup)
        client, seg, array = seed_segment(hub, clock)

        # attach the sender only now: the backup has a gap, so the next
        # record nacks and triggers a catchup
        metrics = MetricsRegistry()
        sender = ReplicationSender(primary, hub.connect("backup", "!repl"),
                                   metrics=metrics)
        primary.attach_replicator(sender)
        client.wl_acquire(seg)  # writer holds the lease across the crash
        assert sender.flush()
        assert backup._m_replica_catchups.value == 1

        backup.promote()
        probe = hub.connect("backup", "writerB")
        denied = decode_message(probe.request(encode_message(
            LockAcquireRequest(segment="primary/data", mode=LOCK_WRITE,
                               client_id="writerB", client_version=0))))
        assert isinstance(denied, LockAcquireReply) and not denied.granted
        sender.close()

    def test_probe_heals_quiet_segment_after_channel_recovery(self):
        """A diff lost to a transport error on a quiet segment used to
        leave the backup divergent until the next client write; the
        sender retries it from the cursor on the next flush."""
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        primary = InterWeaveServer("primary", sink=hub, clock=clock,
                                   metrics=MetricsRegistry())
        backup = InterWeaveServer("backup", clock=clock, role="backup",
                                  metrics=MetricsRegistry())
        failable = FailableDispatcher(backup)
        hub.register_server("primary", primary)
        hub.register_server("backup", failable)
        sender = ReplicationSender(primary, hub.connect("backup", "!repl"),
                                   metrics=MetricsRegistry())
        primary.attach_replicator(sender)
        client, seg, array = seed_segment(hub, clock)
        assert sender.flush()

        failable.dead = True
        write_round(client, seg, array, 100)  # the last write ever
        assert not sender.flush(timeout=0.5)
        assert (backup.segments["primary/data"].state.version
                < primary.segments["primary/data"].state.version)

        failable.dead = False
        assert sender.flush()
        b_state = backup.segments["primary/data"].state
        p_state = primary.segments["primary/data"].state
        assert b_state.version == p_state.version
        assert b_state.read_block_wire(1) == p_state.read_block_wire(1)
        sender.close()

    def test_success_on_one_segment_wakes_probe_for_another(self):
        """Convergence of a quiet segment must not wait for a reconnect
        event either: any successful ship proves the channel works."""
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        primary = InterWeaveServer("primary", sink=hub, clock=clock,
                                   metrics=MetricsRegistry())
        backup = InterWeaveServer("backup", clock=clock, role="backup",
                                  metrics=MetricsRegistry())
        failable = FailableDispatcher(backup)
        hub.register_server("primary", primary)
        hub.register_server("backup", failable)
        sender = ReplicationSender(primary, hub.connect("backup", "!repl"),
                                   metrics=MetricsRegistry())
        primary.attach_replicator(sender)
        client, seg, array = seed_segment(hub, clock)
        other = client.open_segment("primary/other")
        client.wl_acquire(other)
        brr = client.malloc(other, ArrayDescriptor(INT, 4), name="b")
        brr.write_values([1, 2, 3, 4])
        client.wl_release(other)
        assert sender.flush()

        failable.dead = True
        write_round(client, seg, array, 100)  # quiet segment gets a gap
        assert not sender.flush(timeout=0.5)
        failable.dead = False
        # a write on a *different* segment runs a pass that heals both
        client.wl_acquire(other)
        brr.write_values([5, 6, 7, 8])
        client.wl_release(other)
        assert sender.flush()
        assert (backup.segments["primary/data"].state.version
                == primary.segments["primary/data"].state.version)
        sender.close()


    def test_error_reply_heals_through_a_catchup(self):
        """A backup that answers a diff with an error holds an unknown
        state: the sender catches it up instead of re-sending the diff."""
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        primary = InterWeaveServer("primary", sink=hub, clock=clock,
                                   metrics=MetricsRegistry())
        backup = InterWeaveServer("backup", clock=clock, role="backup",
                                  metrics=MetricsRegistry())
        refusing = RefuseOneDiff(backup)
        hub.register_server("primary", primary)
        hub.register_server("backup", refusing)
        metrics = MetricsRegistry()
        sender = ReplicationSender(primary, hub.connect("backup", "!repl"),
                                   metrics=metrics)
        primary.attach_replicator(sender)
        client, seg, array = seed_segment(hub, clock)
        assert sender.flush()
        refusing.armed = True
        write_round(client, seg, array, 100)  # its diff draws the error
        assert wait_until(lambda: refusing.refused)
        assert wait_until(sender.flush)  # the pass after the error heals
        assert metrics.counter("replication.errors").value == 1
        p_state = primary.segments["primary/data"].state
        b_state = backup.segments["primary/data"].state
        assert b_state.version == p_state.version
        assert b_state.read_block_wire(1) == p_state.read_block_wire(1)
        assert backup._m_replica_catchups.value == 2
        sender.close()


class TestPromotionUnderBacklog:
    def test_promotion_drains_backlog_before_rebinding(self):
        """Records queued at promote time must reach the backup before
        the directory rebinds, or the promoted copy misses acked writes."""
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        primary = InterWeaveServer("primary", sink=hub, clock=clock,
                                   metrics=MetricsRegistry())
        backup = InterWeaveServer("backup", sink=hub, clock=clock,
                                  role="backup", metrics=MetricsRegistry())
        failable = FailableDispatcher(primary)
        gated = GatedDispatcher(backup)
        hub.register_server("primary", failable)
        hub.register_server("backup", gated)
        directory = SegmentDirectory("directory", origins=["primary"])
        hub.register_server("directory", directory)
        coordinator = ClusterCoordinator(directory, hub.connect, clock=clock)
        sender = ReplicationSender(primary, hub.connect("backup", "!repl"),
                                   metrics=MetricsRegistry())
        primary.attach_replicator(sender)

        client = InterWeaveClient("c", X86_32, hub.connect, clock=clock,
                                  resolver=DirectoryResolver(hub.connect))
        seg = client.open_segment("data")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values(list(range(8)))
        client.wl_release(seg)

        gated.gate.clear()  # the backup link stalls...
        for base in (100, 200, 300):
            write_round(client, seg, array, base)  # ...but writes are acked
        acked = primary.segments["data"].state.version
        assert backup.segments.get("data") is None or \
            backup.segments["data"].state.version < acked

        # the link recovers mid-promotion; the coordinator's drain ships
        # the whole backlog before REPL_PROMOTE and the rebind
        opener = threading.Timer(0.2, gated.gate.set)
        opener.start()
        try:
            coordinator.promote_backup("primary", "backup", sender=sender,
                                       drain_timeout=20.0)
        finally:
            opener.cancel()
            gated.gate.set()
        assert backup.role == "primary"
        assert backup.segments["data"].state.version == acked
        assert directory.lookup("data")[0] == "backup"

        failable.dead = True
        reader = InterWeaveClient("r", X86_32, hub.connect, clock=clock,
                                  resolver=DirectoryResolver(hub.connect))
        seg_r = reader.open_segment("data", create=False)
        reader.rl_acquire(seg_r)
        values = list(reader.accessor_for(seg_r, "a").read_values())
        reader.rl_release(seg_r)
        assert values == [300 + i for i in range(8)]
        sender.close()
        coordinator.close()

    def test_abandon_stops_the_stream(self):
        """Three releases behind a stalled link: ``abandon()`` reports the
        three versions the backup never acknowledged, and no request
        reaches the backup after it."""
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        primary = InterWeaveServer("primary", sink=hub, clock=clock,
                                   metrics=MetricsRegistry())
        backup = InterWeaveServer("backup", clock=clock, role="backup",
                                  metrics=MetricsRegistry())
        gated = GatedDispatcher(backup)
        hub.register_server("primary", primary)
        hub.register_server("backup", gated)
        metrics = MetricsRegistry()
        sender = ReplicationSender(primary, hub.connect("backup", "!repl"),
                                   metrics=metrics)
        primary.attach_replicator(sender)
        client, seg, array = seed_segment(hub, clock)
        assert sender.flush()
        shipped = backup.segments["primary/data"].state.version
        assert shipped == 1

        gated.gate.clear()
        for base in (100, 200, 300):
            write_round(client, seg, array, base)
        assert not sender.flush(timeout=0.2)
        before = gated.arrivals  # one request is stuck in the stalled link
        assert sender.abandon() == 3
        assert metrics.counter("replication.abandoned").value == 3
        gated.gate.set()
        write_round(client, seg, array, 400)
        assert not sender.flush(timeout=0.2)
        sender.close()
        assert gated.arrivals == before
        # at most the request that was already in the link applied
        assert backup.segments["primary/data"].state.version <= shipped + 1


class TestQuorumAck:
    def build(self, clock, **server_kw):
        hub = InProcHub(clock=clock)
        primary = InterWeaveServer("primary", sink=hub, clock=clock,
                                   metrics=MetricsRegistry(), **server_kw)
        backup = InterWeaveServer("backup", clock=clock, role="backup",
                                  metrics=MetricsRegistry())
        failable = FailableDispatcher(backup)
        hub.register_server("primary", primary)
        hub.register_server("backup", failable)
        sender = ReplicationSender(primary, hub.connect("backup", "!repl"),
                                   metrics=MetricsRegistry())
        primary.attach_replicator(sender)
        return hub, primary, backup, failable, sender

    def test_release_waits_for_backup_ack(self):
        clock = VirtualClock()
        hub, primary, backup, failable, sender = self.build(
            clock, quorum_ack=True, quorum_timeout=5.0)
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("primary/data")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values(list(range(8)))
        client.wl_release(seg)
        # no flush: the release reply itself guaranteed the backup copy
        assert (backup.segments["primary/data"].state.version
                == primary.segments["primary/data"].state.version == 1)
        assert primary._m_quorum_acks.value == 1
        assert primary._m_quorum_degrades.value == 0
        sender.close()

    def test_release_degrades_to_async_when_backup_is_dead(self):
        clock = VirtualClock()
        hub, primary, backup, failable, sender = self.build(
            clock, quorum_ack=True, quorum_timeout=0.05)
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("primary/data")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values(list(range(8)))
        client.wl_release(seg)
        failable.dead = True
        write_round(client, seg, array, 100)  # must not hang or fail
        assert primary.segments["primary/data"].state.version == 2
        assert primary._m_quorum_degrades.value >= 1
        sender.close()

    def test_write_section_makes_at_most_two_requests(self):
        """Steady state: a quorum write section ships its diff and at
        most one lease record; nothing else crosses the link."""
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        primary = InterWeaveServer("primary", sink=hub, clock=clock,
                                   quorum_ack=True, quorum_timeout=5.0,
                                   metrics=MetricsRegistry())
        backup = InterWeaveServer("backup", clock=clock, role="backup",
                                  metrics=MetricsRegistry())
        gated = GatedDispatcher(backup)
        hub.register_server("primary", primary)
        hub.register_server("backup", gated)
        sender = ReplicationSender(primary, hub.connect("backup", "!repl"),
                                   metrics=MetricsRegistry())
        primary.attach_replicator(sender)
        client, seg, array = seed_segment(hub, clock)
        assert sender.flush()
        before = gated.arrivals
        for base in range(1, 21):
            write_round(client, seg, array, 100 * base)
        assert sender.flush()
        assert gated.arrivals - before <= 2 * 20
        assert backup._m_replica_catchups.value == 1
        assert primary._m_quorum_acks.value == 21
        assert primary._m_quorum_degrades.value == 0
        sender.close()

    def test_concurrent_quorum_writers_all_acked(self):
        """Four writers on four segments (more threads than cores) under a
        short switch interval: every release is quorum-acked and every
        segment converges; a lost cursor update or wake-up degrades or
        strands one."""
        clock = VirtualClock()
        hub, primary, backup, failable, sender = self.build(
            clock, quorum_ack=True, quorum_timeout=5.0)
        names = [f"primary/s{index}" for index in range(4)]
        errors = []

        def writer(name):
            try:
                client = InterWeaveClient(name[-2:], X86_32, hub.connect,
                                          clock=clock)
                seg = client.open_segment(name)
                client.wl_acquire(seg)
                array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
                array.write_values(list(range(8)))
                client.wl_release(seg)
                for round_ in range(1, 25):
                    write_round(client, seg, array, 100 * round_)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(name,))
                       for name in names]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert primary._m_quorum_acks.value == 4 * 25
        assert primary._m_quorum_degrades.value == 0
        assert sender.flush()
        for name in names:
            p_state = primary.segments[name].state
            b_state = backup.segments[name].state
            assert b_state.version == p_state.version == 25
            assert b_state.read_block_wire(1) == p_state.read_block_wire(1)
        sender.close()

    def test_sender_reads_count_no_cache_traffic(self):
        """The sender reads diffs out of the primary's cache without
        moving its hit/miss tallies, which measure reader traffic."""
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        primary = InterWeaveServer("primary", sink=hub, clock=clock,
                                   metrics=MetricsRegistry())
        backup = InterWeaveServer("backup", clock=clock, role="backup",
                                  metrics=MetricsRegistry())
        gated = GatedDispatcher(backup)
        hub.register_server("primary", primary)
        hub.register_server("backup", gated)
        sender = ReplicationSender(primary, hub.connect("backup", "!repl"),
                                   metrics=MetricsRegistry())
        primary.attach_replicator(sender)
        client, seg, array = seed_segment(hub, clock)
        assert sender.flush()
        gated.gate.clear()
        for base in (100, 200, 300, 400):
            write_round(client, seg, array, base)
        tallies = (primary.diff_cache.hits, primary.diff_cache.misses)
        appends = backup._m_replica_appends.value
        gated.gate.set()
        assert sender.flush()
        assert backup._m_replica_appends.value - appends >= 4
        assert backup.segments["primary/data"].state.version == 5
        assert (primary.diff_cache.hits, primary.diff_cache.misses) == tallies
        sender.close()

    def test_first_release_with_a_stalled_backup_degrades(self):
        """The backup's cursor is still unknown when a segment's first
        release waits for it; an unknown cursor acknowledges nothing,
        so the wait runs out and the release degrades to async."""
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        primary = InterWeaveServer("primary", sink=hub, clock=clock,
                                   metrics=MetricsRegistry(),
                                   quorum_ack=True, quorum_timeout=0.1)
        backup = InterWeaveServer("backup", clock=clock, role="backup",
                                  metrics=MetricsRegistry())
        gated = GatedDispatcher(backup)
        gated.gate.clear()
        hub.register_server("primary", primary)
        hub.register_server("backup", gated)
        sender = ReplicationSender(primary, hub.connect("backup", "!repl"),
                                   metrics=MetricsRegistry())
        primary.attach_replicator(sender)
        try:
            started = time.monotonic()
            client, seg, array = seed_segment(hub, clock)
            assert time.monotonic() - started >= 0.1
            assert primary.segments["primary/data"].state.version == 1
            assert primary._m_quorum_degrades.value == 1
            assert primary._m_quorum_acks.value == 0
        finally:
            gated.gate.set()
            sender.close()

    def test_quorum_timeout_must_be_positive(self):
        with pytest.raises(ServerError):
            InterWeaveServer("s", quorum_timeout=0.0,
                             metrics=MetricsRegistry())


class TestMislabelledAppend:
    """A diff record is applied, cached and logged under the versions it
    names, and a promoted backup serves cached entries to readers as they
    are, so a label that is not one step, or that the payload's own
    versions contradict, is refused and changes nothing."""

    def build(self, tmp_path):
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        primary = InterWeaveServer("primary", sink=hub, clock=clock,
                                   metrics=MetricsRegistry())
        backup = InterWeaveServer("backup", clock=clock, role="backup",
                                  wal_dir=str(tmp_path),
                                  metrics=MetricsRegistry())
        hub.register_server("primary", primary)
        hub.register_server("backup", backup)
        sender = ReplicationSender(primary, hub.connect("backup", "!repl"),
                                   metrics=MetricsRegistry())
        primary.attach_replicator(sender)
        client, seg, array = seed_segment(hub, clock)
        assert sender.flush()
        sender.close()  # the next record is ours to label
        write_round(client, seg, array, 100)
        payload = primary.diff_cache.peek("primary/data", 1, 2)
        assert payload is not None
        return backup, payload

    def append(self, backup, from_version, to_version, payload):
        reply = decode_message(backup.dispatch("!repl", encode_message(
            ReplicateAppendRequest(kind=REPL_DIFF, segment="primary/data",
                                   from_version=from_version,
                                   to_version=to_version, payload=payload))))
        assert isinstance(reply, ReplicateAck)
        return reply

    def footprint(self, backup, tmp_path):
        state = backup.segments["primary/data"].state
        return (state.version, state.read_block_values(1),
                dict(backup.diff_cache._entries),
                [path.read_bytes() for path in sorted(tmp_path.iterdir())])

    @pytest.mark.parametrize("mislabel", ["not_one_step", "payload_versions"])
    def test_mislabelled_append_is_nacked_and_changes_nothing(
            self, tmp_path, mislabel):
        backup, payload = self.build(tmp_path)
        before = self.footprint(backup, tmp_path)
        # the payload says 1 -> 3: a label that matches it spans two
        # versions, and a one-step label contradicts it
        other = stamped_wire(decode_segment_diff(payload), 3)
        reply = self.append(backup, 1, 3 if mislabel == "not_one_step" else 2,
                            other)
        assert (reply.ok, reply.version) == (False, 1)
        assert self.footprint(backup, tmp_path) == before
        # the same bytes under their own versions still apply
        assert self.append(backup, 1, 2, payload).ok
        assert backup.segments["primary/data"].state.version == 2
        assert backup.diff_cache.peek("primary/data", 1, 2) == payload


class TestChainedReplication:
    def build_chain(self, clock):
        hub = InProcHub(clock=clock)
        primary = InterWeaveServer("primary", sink=hub, clock=clock,
                                   metrics=MetricsRegistry())
        b1 = InterWeaveServer("b1", sink=hub, clock=clock, role="backup",
                              metrics=MetricsRegistry())
        b2 = InterWeaveServer("b2", clock=clock, role="backup",
                              metrics=MetricsRegistry())
        hub.register_server("primary", primary)
        hub.register_server("b1", b1)
        hub.register_server("b2", b2)
        sender1 = ReplicationSender(primary, hub.connect("b1", "!repl1"),
                                    metrics=MetricsRegistry())
        primary.attach_replicator(sender1)
        sender2 = ReplicationSender(b1, hub.connect("b2", "!repl2"),
                                    metrics=MetricsRegistry())
        b1.attach_replicator(sender2)
        return hub, primary, b1, b2, sender1, sender2

    def test_diffs_and_leases_propagate_down_the_chain(self):
        clock = VirtualClock()
        hub, primary, b1, b2, sender1, sender2 = self.build_chain(clock)
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("primary/data")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values(list(range(8)))
        client.wl_release(seg)
        write_round(client, seg, array, 100)
        client.wl_acquire(seg)  # lease held; must be mirrored twice over
        assert sender1.flush() and sender2.flush()
        p = primary.segments["primary/data"].state
        assert b1.segments["primary/data"].state.version == p.version
        assert b2.segments["primary/data"].state.version == p.version
        assert (b2.segments["primary/data"].state.read_block_wire(1)
                == p.read_block_wire(1))
        # the tail of the chain honors the writer's lease after promotion
        b2.promote()
        probe = hub.connect("b2", "writerB")
        denied = decode_message(probe.request(encode_message(
            LockAcquireRequest(segment="primary/data", mode=LOCK_WRITE,
                               client_id="writerB", client_version=0))))
        assert isinstance(denied, LockAcquireReply) and not denied.granted
        sender2.close()
        sender1.close()

    def test_catchup_propagates_down_the_chain(self):
        """A catchup installed at a chained backup opens a gap at *its*
        downstream that no future nack may surface (quiet segment); the
        backup schedules a probe so the whole chain converges."""
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        primary = InterWeaveServer("primary", sink=hub, clock=clock,
                                   metrics=MetricsRegistry())
        b1 = InterWeaveServer("b1", sink=hub, clock=clock, role="backup",
                              metrics=MetricsRegistry())
        b2 = InterWeaveServer("b2", clock=clock, role="backup",
                              metrics=MetricsRegistry())
        hub.register_server("primary", primary)
        hub.register_server("b1", b1)
        hub.register_server("b2", b2)
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("primary/data")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values(list(range(8)))
        client.wl_release(seg)
        write_round(client, seg, array, 100)

        # both links attach late: b1 heals via nack->catchup, and that
        # catchup must cascade to b2 without any new client write
        sender2 = ReplicationSender(b1, hub.connect("b2", "!repl2"),
                                    metrics=MetricsRegistry())
        b1.attach_replicator(sender2)
        sender1 = ReplicationSender(primary, hub.connect("b1", "!repl1"),
                                    metrics=MetricsRegistry())
        primary.attach_replicator(sender1)
        write_round(client, seg, array, 200)
        assert sender1.flush() and sender2.flush(timeout=10.0)
        p = primary.segments["primary/data"].state
        assert b2.segments["primary/data"].state.version == p.version
        assert (b2.segments["primary/data"].state.read_block_wire(1)
                == p.read_block_wire(1))
        sender2.close()
        sender1.close()

    def test_promotion_climbs_the_chain(self):
        clock = VirtualClock()
        hub, primary, b1, b2, sender1, sender2 = self.build_chain(clock)
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("primary/data")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values(list(range(8)))
        client.wl_release(seg)
        assert sender1.flush() and sender2.flush()

        b1.promote()  # the primary machine is gone; b1 takes over
        # route the new writer at b1 explicitly: segment names are
        # unchanged, only the serving origin moved
        from repro import StaticResolver
        resolver = StaticResolver()
        resolver.on_redirect("primary/data", "b1", 1)
        writer2 = InterWeaveClient("w2", X86_32, hub.connect, clock=clock,
                                   resolver=resolver)
        seg2 = writer2.open_segment("primary/data", create=False)
        writer2.wl_acquire(seg2)
        arr2 = writer2.accessor_for(seg2, "a")
        arr2.write_values([500 + i for i in range(8)])
        writer2.wl_release(seg2)
        # b1 keeps feeding its own downstream: b2 is a valid next backup
        assert sender2.flush()
        assert (b2.segments["primary/data"].state.version
                == b1.segments["primary/data"].state.version == 2)
        b2.promote()
        assert (b2.segments["primary/data"].state.read_block_wire(1)
                == b1.segments["primary/data"].state.read_block_wire(1))
        sender2.close()
        sender1.close()


class CrashingWAL:
    """A real :class:`WriteAheadLog` whose ``append`` raises once armed —
    a primary dying between handing the replicator a record and making
    it durable itself (the record reaches the backup, never the disk,
    and the client never sees an ack)."""

    def __init__(self, inner):
        self.inner = inner
        self.armed = False

    def append(self, *args, **kwargs):
        if self.armed:
            raise RuntimeError("crash")
        return self.inner.append(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestReplicateThenLog:
    """The release hands the record to the replicator before its own WAL
    append; what that order could break is closed by the duplicate rule."""

    def test_other_bytes_for_an_applied_version_are_nacked(self):
        clock = VirtualClock()
        hub, primary, backup, sender = build_pair(clock)
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("primary/data")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values(list(range(8)))
        client.wl_release(seg)
        write_round(client, seg, array, 100)
        assert sender.flush()
        b_state = backup.segments["primary/data"].state
        assert b_state.version == 2
        from_v, to_v, encoded = primary.diff_cache.entries_for(
            "primary/data")[-1]
        assert (from_v, to_v) == (1, 2)
        tallies = (backup.diff_cache.hits, backup.diff_cache.misses)
        appends = backup._m_replica_appends.value

        def redeliver(payload):
            return decode_message(backup.dispatch("!repl", encode_message(
                ReplicateAppendRequest(kind=REPL_DIFF, segment="primary/data",
                                       from_version=from_v, to_version=to_v,
                                       payload=payload))))

        # the record that was applied: acked, nothing re-applied
        again = redeliver(encoded)
        assert again.ok and again.version == 2
        assert backup.segments["primary/data"].state is b_state
        assert backup._m_replica_appends.value == appends
        # the same version with other bytes: not provably ours
        other = encoded[:-1] + bytes([encoded[-1] ^ 1])
        refused = redeliver(other)
        assert not refused.ok and refused.version == 2
        # neither lookup touched the tallies the ledger reads
        assert (backup.diff_cache.hits, backup.diff_cache.misses) == tallies
        sender.close()

    def test_crash_after_send_before_fsync_heals_on_the_next_write(
            self, tmp_path):
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        backup = InterWeaveServer("backup", clock=clock, role="backup",
                                  metrics=MetricsRegistry())
        primary = InterWeaveServer("primary", sink=hub, clock=clock,
                                   wal_dir=str(tmp_path), quorum_ack=True,
                                   metrics=MetricsRegistry())
        switch = FailableDispatcher(primary)  # its server is swapped below
        hub.register_server("primary", switch)
        hub.register_server("backup", backup)
        sender = ReplicationSender(primary, hub.connect("backup", "!repl"),
                                   metrics=MetricsRegistry())
        primary.attach_replicator(sender)
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("primary/data")
        client.wl_acquire(seg)
        kept = client.malloc(seg, ArrayDescriptor(INT, 8), name="kept")
        kept.write_values(list(range(8)))
        array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values([100 + i for i in range(8)])
        client.wl_release(seg)
        write_round(client, seg, array, 200)  # acknowledged: version 2

        primary.wal = CrashingWAL(primary.wal)
        primary.wal.armed = True
        client.wl_acquire(seg)
        array.write_values([900 + i for i in range(8)])
        with pytest.raises(ServerError, match="crash"):
            client.wl_release(seg)  # version 3 is never acknowledged
        assert sender.flush()
        assert backup.segments["primary/data"].state.version == 3
        catchups = backup._m_replica_catchups.value
        sender.close()
        primary.close()

        # the primary restarts from its disk: one version behind its backup
        restarted = InterWeaveServer("primary", sink=hub, clock=clock,
                                     wal_dir=str(tmp_path), quorum_ack=True,
                                     metrics=MetricsRegistry())
        restarted.recover_segments()
        assert restarted.segments["primary/data"].state.version == 2
        switch.inner = restarted
        sender2 = ReplicationSender(restarted, hub.connect("backup", "!repl2"),
                                    metrics=MetricsRegistry())
        restarted.attach_replicator(sender2)
        writer = InterWeaveClient("w2", X86_32, hub.connect, clock=clock)
        seg2 = writer.open_segment("primary/data", create=False)
        writer.wl_acquire(seg2)
        writer.accessor_for(seg2, "a").write_values(
            [500 + i for i in range(8)])
        writer.wl_release(seg2)  # a second version 3, other bytes

        # the backup refused to call it a duplicate and was reinstalled,
        # inside the quorum wait: the ack still means "the backup has it"
        assert backup._m_replica_catchups.value == catchups + 1
        assert restarted._m_quorum_acks.value == 1
        assert restarted._m_quorum_degrades.value == 0
        assert sender2.flush()
        p_state = restarted.segments["primary/data"].state
        b_state = backup.segments["primary/data"].state
        assert b_state.version == p_state.version == 3
        for serial in (1, 2):
            assert (b_state.read_block_wire(serial)
                    == p_state.read_block_wire(serial))
        # nothing acknowledged was lost on the way
        assert list(writer.accessor_for(seg2, "kept").read_values()) \
            == list(range(8))
        assert list(writer.accessor_for(seg2, "a").read_values()) \
            == [500 + i for i in range(8)]
        sender2.close()
        restarted.close()

    def test_chained_catchup_never_guesses_the_downstream_cursor(
            self, tmp_path):
        """A primary restarts one version behind its chain and commits
        two more versions before it reconnects.  The first backup
        installs a catchup *past* its downstream's cursor; the
        downstream's copy of the lost version has other bytes, so the
        next diff must not be applied on it: the downstream catches up
        too."""
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        b1 = InterWeaveServer("b1", sink=hub, clock=clock, role="backup",
                              metrics=MetricsRegistry())
        b2 = InterWeaveServer("b2", clock=clock, role="backup",
                              metrics=MetricsRegistry())
        primary = InterWeaveServer("primary", sink=hub, clock=clock,
                                   wal_dir=str(tmp_path),
                                   metrics=MetricsRegistry())
        switch = FailableDispatcher(primary)  # its server is swapped below
        hub.register_server("primary", switch)
        hub.register_server("b1", b1)
        hub.register_server("b2", b2)
        sender2 = ReplicationSender(b1, hub.connect("b2", "!repl2"),
                                    metrics=MetricsRegistry())
        b1.attach_replicator(sender2)
        sender1 = ReplicationSender(primary, hub.connect("b1", "!repl1"),
                                    metrics=MetricsRegistry())
        primary.attach_replicator(sender1)
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("primary/data")
        client.wl_acquire(seg)
        kept = client.malloc(seg, ArrayDescriptor(INT, 8), name="kept")
        kept.write_values(list(range(8)))
        array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values([100 + i for i in range(8)])
        client.wl_release(seg)
        write_round(client, seg, array, 200)  # version 2, durable

        primary.wal = CrashingWAL(primary.wal)
        primary.wal.armed = True
        client.wl_acquire(seg)
        array.write_values([900 + i for i in range(8)])
        with pytest.raises(ServerError, match="crash"):
            client.wl_release(seg)  # version 3 reaches the chain only
        assert sender1.flush() and sender2.flush()
        assert b2.segments["primary/data"].state.version == 3
        sender1.close()
        primary.close()

        restarted = InterWeaveServer("primary", sink=hub, clock=clock,
                                     wal_dir=str(tmp_path),
                                     metrics=MetricsRegistry())
        restarted.recover_segments()
        switch.inner = restarted
        writer = InterWeaveClient("w2", X86_32, hub.connect, clock=clock)
        seg2 = writer.open_segment("primary/data", create=False)
        writer.wl_acquire(seg2)
        writer.accessor_for(seg2, "a").write_values(
            [500 + i for i in range(8)])
        writer.wl_release(seg2)  # another version 3
        writer.wl_acquire(seg2)
        writer.accessor_for(seg2, "kept").write_values(
            [50 + i for i in range(8)])
        writer.wl_release(seg2)  # version 4, which leaves "a" alone
        sender1 = ReplicationSender(restarted, hub.connect("b1", "!repl3"),
                                    metrics=MetricsRegistry())
        restarted.attach_replicator(sender1)
        writer.wl_acquire(seg2)
        assert sender1.flush() and sender2.flush()
        p_state = restarted.segments["primary/data"].state
        for replica in (b1, b2):
            state = replica.segments["primary/data"].state
            assert state.version == p_state.version == 4
            for serial in (1, 2):
                assert (state.read_block_wire(serial)
                        == p_state.read_block_wire(serial))
        sender2.close()
        sender1.close()
        restarted.close()

    def test_chain_keeps_version_order_under_interleaved_writes(self):
        clock = VirtualClock()
        hub, primary, b1, b2, sender1, sender2 = \
            TestChainedReplication().build_chain(clock)
        names = ("primary/left", "primary/right")
        errors = []

        def writer(index):
            try:
                client = InterWeaveClient(f"w{index}", X86_32, hub.connect,
                                          clock=clock)
                seg = client.open_segment(names[index])
                client.wl_acquire(seg)
                array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
                array.write_values(list(range(8)))
                client.wl_release(seg)
                for round_ in range(99):
                    write_round(client, seg, array, 1000 * index + round_ + 1)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        assert errors == []
        assert sender1.flush() and sender2.flush()
        for name in names:
            p = primary.segments[name].state
            assert p.version == 100
            for replica in (b1, b2):
                state = replica.segments[name].state
                assert state.version == 100
                assert state.read_block_wire(1) == p.read_block_wire(1)
        # one catchup each creates a segment the replica has never seen;
        # a record out of order would have cost another
        assert b1._m_replica_catchups.value == 2
        assert b2._m_replica_catchups.value <= 4
        sender2.close()
        sender1.close()
