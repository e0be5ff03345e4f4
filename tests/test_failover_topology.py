"""End-to-end failover with a caching relay in the request path.

Topology: clients → ``CachingProxy`` (registered ``"h"``) → primary
origin (``"h-primary"``) with an attached replicating backup
(``"h-backup"``), plus a segment directory and coordinator.  The primary
is killed mid-run and the backup promoted; the relay must re-resolve
through the directory, re-attach its upstream channels, re-subscribe for
pushes, and keep serving — downstream clients never see the machine
loss.
"""

import time

import pytest

from repro import (
    ClusterCoordinator,
    DirectoryResolver,
    InProcHub,
    InterWeaveClient,
    InterWeaveServer,
    MetricsRegistry,
    ReplicationSender,
    SegmentDirectory,
    VirtualClock,
)
from repro.arch import X86_32
from repro.errors import ServerError, TransportError
from repro.proxy import CachingProxy
from repro.types import INT, ArrayDescriptor

from tests.test_replication import FailableDispatcher


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


class FailoverWorld:
    """The full topology on one in-process hub."""

    def __init__(self, max_staleness=0.0, resolver=True):
        self.clock = VirtualClock()
        self.hub = InProcHub(clock=self.clock)
        self.primary = InterWeaveServer("h-primary", sink=self.hub,
                                        clock=self.clock,
                                        metrics=MetricsRegistry())
        self.backup = InterWeaveServer("h-backup", sink=self.hub,
                                       clock=self.clock, role="backup",
                                       metrics=MetricsRegistry())
        self.failable = FailableDispatcher(self.primary)
        self.hub.register_server("h-primary", self.failable)
        self.hub.register_server("h-backup", self.backup)
        self.directory = SegmentDirectory("directory", origins=["h-primary"])
        self.hub.register_server("directory", self.directory)
        self.coordinator = ClusterCoordinator(self.directory, self.hub.connect,
                                              clock=self.clock)
        self.sender = ReplicationSender(
            self.primary, self.hub.connect("h-backup", "!repl"),
            metrics=MetricsRegistry())
        self.primary.attach_replicator(self.sender)
        self.proxy = CachingProxy(
            "h", connector=self.hub.connect, origin="h-primary",
            sink=self.hub, clock=self.clock, metrics=MetricsRegistry(),
            max_staleness=max_staleness,
            resolver=DirectoryResolver(self.hub.connect) if resolver
            else None)
        self.hub.register_server("h", self.proxy)

    def client(self, name):
        return InterWeaveClient(name, X86_32, self.hub.connect,
                                clock=self.clock)

    def backup_client(self, name):
        """A client wired straight at the backup, bypassing the relay."""
        return InterWeaveClient(
            name, X86_32,
            lambda server, cid: self.hub.connect("h-backup", cid),
            clock=self.clock)

    def kill_primary_and_promote(self):
        self.failable.dead = True
        self.coordinator.promote_backup("h-primary", "h-backup",
                                        sender=self.sender)

    def close(self):
        self.sender.close()
        self.proxy.close()
        self.coordinator.close()


def write_round(client, seg, array, base):
    client.wl_acquire(seg)
    array.write_values([base + i for i in range(8)])
    client.wl_release(seg)


def read_values(client, seg, name="a"):
    client.rl_acquire(seg)
    values = list(client.accessor_for(seg, name).read_values())
    client.rl_release(seg)
    return values


class TestReleaseRetryKeepsDiff:
    def test_retried_release_ships_the_collected_diff(self):
        """A release that dies in flight must not consume the write
        session: the retry re-collects the same dirty pages and ships a
        real diff — not an empty payload that silently drops the
        section (one lost version per crashed release)."""
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        server = InterWeaveServer("s", sink=hub, clock=clock,
                                  metrics=MetricsRegistry())
        failable = FailableDispatcher(server)
        hub.register_server("s", failable)
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("s/data")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 4), name="a")
        array.write_values([1, 2, 3, 4])
        client.wl_release(seg)

        client.wl_acquire(seg)
        array.write_values([5, 6, 7, 8])
        failable.dead = True
        try:
            client.wl_release(seg)
            raised = False
        except (ServerError, TransportError):
            raised = True
        assert raised
        failable.dead = False
        client.wl_release(seg)          # retry: same session, same diff
        assert server.segments["s/data"].state.version == 2

        reader = InterWeaveClient("r", X86_32, hub.connect, clock=clock)
        seg_r = reader.open_segment("s/data", create=False)
        reader.rl_acquire(seg_r)
        assert list(reader.accessor_for(seg_r, "a").read_values()) == \
            [5, 6, 7, 8]
        reader.rl_release(seg_r)


    def test_failed_release_keeps_the_twins_of_a_multi_page_section(self):
        """The twins live in per-subsegment buffers that the end of the
        write session drops; a release whose RPC failed must not get
        that far, so the retry collects byte-for-byte the same diff."""
        from repro.wire import encode_segment_diff

        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        server = InterWeaveServer("s", sink=hub, clock=clock,
                                  metrics=MetricsRegistry())
        failable = FailableDispatcher(server)
        hub.register_server("s", failable)
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("s/data")
        words = 5000  # five pages
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, words), name="a")
        array.write_values([0] * words)
        client.wl_release(seg)

        client.wl_acquire(seg)
        values = [k if k % 7 == 0 else 0 for k in range(words)]
        array.write_values(values)  # one range fault over all five pages
        (sub,) = seg.heap.subsegments
        twinned = list(sub.twinned_runs())
        collected = encode_segment_diff(client._collect(seg)[0])
        failable.dead = True
        with pytest.raises((ServerError, TransportError)):
            client.wl_release(seg)
        failable.dead = False
        assert list(sub.twinned_runs()) == twinned != []
        assert encode_segment_diff(client._collect(seg)[0]) == collected
        client.wl_release(seg)
        assert sub.twins is None
        assert server.segments["s/data"].state.version == 2
        reader = InterWeaveClient("r", X86_32, hub.connect, clock=clock)
        assert read_values(reader, reader.open_segment("s/data", create=False)) \
            == values


class TestRelayFailover:
    def test_relay_reattaches_and_serves_through_promoted_backup(self):
        world = FailoverWorld()
        writer = world.client("w")
        seg = writer.open_segment("h/data")
        writer.wl_acquire(seg)
        array = writer.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values(list(range(8)))
        writer.wl_release(seg)
        reader = world.client("r")
        seg_r = reader.open_segment("h/data", create=False)
        assert read_values(reader, seg_r) == list(range(8))
        write_round(writer, seg, array, 100)
        assert read_values(reader, seg_r) == [100 + i for i in range(8)]
        assert world.sender.flush()

        world.kill_primary_and_promote()
        assert world.backup.role == "primary"

        # the writer's next operation rides the same downstream client
        # session; the relay hits the dead origin, re-resolves through
        # the directory, and retries at the promoted backup
        write_round(writer, seg, array, 200)
        assert world.proxy.stats.failovers_followed >= 1
        assert world.backup.segments["h/data"].state.version == 3

        # the reader sees the post-failover version immediately: the
        # relay invalidated its freshness at the rebind, so nothing
        # stale survives the switch
        assert read_values(reader, seg_r) == [200 + i for i in range(8)]

        # exact version accounting across the hop: every acked write is
        # a distinct version at the promoted backup — nothing lost,
        # nothing replayed by the retry/dedup machinery
        assert world.backup.segments["h/data"].state.version == 3

        # the relay re-subscribes upstream on its next refresh (the
        # rebind reset ``upstream_subscribed``); step past the staleness
        # window and read once to drive that refresh, then a write that
        # bypasses the relay (straight at the promoted backup) still
        # reaches the reader through push fan-out
        entry = world.proxy._lookup("h/data")
        world.clock.advance(0.01)
        assert read_values(reader, seg_r) == [200 + i for i in range(8)]
        assert wait_until(lambda: entry.upstream_subscribed)
        direct = world.backup_client("d")
        seg_d = direct.open_segment("h/data", create=False)
        direct.wl_acquire(seg_d)
        direct.accessor_for(seg_d, "a").write_values(
            [300 + i for i in range(8)])
        direct.wl_release(seg_d)
        assert read_values(reader, seg_r) == [300 + i for i in range(8)]
        assert world.backup.segments["h/data"].state.version == 4
        world.close()

    def test_relay_refresh_path_fails_over_too(self):
        """The relay's own refresh traffic (not just forwarded client
        requests) must re-resolve: a reader-only workload crosses the
        failover without a single downstream error."""
        world = FailoverWorld(max_staleness=0.5)
        writer = world.client("w")
        seg = writer.open_segment("h/data")
        writer.wl_acquire(seg)
        array = writer.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values(list(range(8)))
        writer.wl_release(seg)
        reader = world.client("r")
        seg_r = reader.open_segment("h/data", create=False)
        assert read_values(reader, seg_r) == list(range(8))
        assert world.sender.flush()

        world.kill_primary_and_promote()
        # push the relay past its staleness window so the next read
        # needs an upstream refresh — which hits the dead origin
        world.clock.advance(1.0)
        assert read_values(reader, seg_r) == list(range(8))
        assert world.proxy.stats.failovers_followed >= 1
        world.close()

    def test_without_resolver_the_error_still_surfaces(self):
        """No directory, no failover: the old behavior is preserved —
        upstream loss becomes a typed downstream error, never a hang or
        a stale success."""
        world = FailoverWorld(resolver=False)
        writer = world.client("w")
        seg = writer.open_segment("h/data")
        writer.wl_acquire(seg)
        array = writer.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values(list(range(8)))
        writer.wl_release(seg)
        assert world.sender.flush()
        world.kill_primary_and_promote()
        try:
            write_round(writer, seg, array, 100)
            raised = None
        except (ServerError, TransportError) as exc:
            raised = exc
        assert raised is not None
        assert world.proxy.stats.failovers_followed == 0
        world.close()

    def test_failover_rebind_closes_dead_channels_first(self):
        """Hub transports register channels by client id: if the relay
        closed the dead origin's channels *after* opening replacements,
        the close would deregister the replacements and every later
        upstream push would vanish.  The re-subscribe + direct-write
        assertions above only hold because teardown comes first; this
        pins the channel-table state explicitly."""
        world = FailoverWorld()
        writer = world.client("w")
        seg = writer.open_segment("h/data")
        writer.wl_acquire(seg)
        array = writer.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values(list(range(8)))
        writer.wl_release(seg)
        assert world.sender.flush()
        world.kill_primary_and_promote()
        write_round(writer, seg, array, 100)
        # a refresh makes the relay open its *own* channel to the
        # promoted backup (forwarded writes only touch the per-client
        # channels)
        reader = world.client("r")
        seg_r = reader.open_segment("h/data", create=False)
        world.clock.advance(0.01)
        assert read_values(reader, seg_r) == [100 + i for i in range(8)]

        with world.proxy._channel_lock:
            own_origins = set(world.proxy._own_channels)
            up_origins = {origin for origin, _cid
                          in world.proxy._up_channels}
        assert "h-primary" not in own_origins
        assert "h-primary" not in up_origins
        # the hub's registration for the relay's own id must be the live
        # channel to the promoted backup, not a closed husk
        own = world.proxy._own_channels.get("h-backup")
        assert own is not None
        assert world.hub._channels.get(world.proxy._own_id) is own
        world.close()
