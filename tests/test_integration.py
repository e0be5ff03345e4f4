"""End-to-end integration tests: clients + server + transport + coherence."""

import pytest

from repro import (
    ClientOptions,
    InProcHub,
    InterWeaveClient,
    InterWeaveServer,
    VirtualClock,
    delta,
    diff,
    full,
    temporal,
)
from repro.arch import ALPHA, MIPS32, SPARC_V9, X86_32
from repro.errors import LockError, MIPError, ProtectionError, ServerError
from repro.types import (
    DOUBLE,
    INT,
    ArrayDescriptor,
    Field,
    PointerDescriptor,
    RecordDescriptor,
    StringDescriptor,
)

from tests._support import linked_node_type


@pytest.fixture
def world():
    clock = VirtualClock()
    hub = InProcHub(clock=clock)
    server = InterWeaveServer("host", sink=hub, clock=clock)
    hub.register_server("host", server)
    return clock, hub, server


def make_client(hub, clock, name, arch=X86_32, **options):
    return InterWeaveClient(name, arch, hub.connect, clock=clock,
                            options=ClientOptions(**options) if options else None)


class TestBasicSharing:
    def test_write_then_read_same_arch(self, world):
        clock, hub, server = world
        writer = make_client(hub, clock, "w")
        reader = make_client(hub, clock, "r")
        seg_w = writer.open_segment("host/data")
        writer.wl_acquire(seg_w)
        array = writer.malloc(seg_w, ArrayDescriptor(INT, 100), name="vec")
        array.write_values(list(range(100)))
        writer.wl_release(seg_w)

        seg_r = reader.open_segment("host/data")
        reader.rl_acquire(seg_r)
        vec = reader.accessor_for(seg_r, "vec")
        assert list(vec.read_values()) == list(range(100))
        reader.rl_release(seg_r)

    @pytest.mark.parametrize("writer_arch,reader_arch", [
        (X86_32, SPARC_V9), (SPARC_V9, X86_32), (ALPHA, MIPS32)])
    def test_heterogeneous_record_sharing(self, world, writer_arch, reader_arch):
        clock, hub, server = world
        record = RecordDescriptor("sample", [
            Field("count", INT), Field("mean", DOUBLE),
            Field("label", StringDescriptor(32))])
        writer = make_client(hub, clock, "w", writer_arch)
        reader = make_client(hub, clock, "r", reader_arch)
        seg = writer.open_segment("host/rec")
        writer.wl_acquire(seg)
        rec = writer.malloc(seg, record, name="s")
        rec.count = 42
        rec.mean = 3.5
        rec.label = "across machines"
        writer.wl_release(seg)

        seg_r = reader.open_segment("host/rec")
        reader.rl_acquire(seg_r)
        rec_r = reader.accessor_for(seg_r, "s")
        assert rec_r.count == 42
        assert rec_r.mean == 3.5
        assert rec_r.label == "across machines"
        reader.rl_release(seg_r)

    def test_incremental_diff_cheaper_than_full(self, world):
        clock, hub, server = world
        writer = make_client(hub, clock, "w")
        reader = make_client(hub, clock, "r")
        seg = writer.open_segment("host/big")
        writer.wl_acquire(seg)
        array = writer.malloc(seg, ArrayDescriptor(INT, 100_000), name="a")
        array.write_values([0] * 100_000)
        writer.wl_release(seg)

        seg_r = reader.open_segment("host/big")
        reader.rl_acquire(seg_r)
        reader.rl_release(seg_r)
        full_bytes = reader._channels["host"].stats.bytes_received

        writer.wl_acquire(seg)
        array[7] = 99  # tiny change
        writer.wl_release(seg)

        reader.rl_acquire(seg_r)
        assert reader.accessor_for(seg_r, "a")[7] == 99
        reader.rl_release(seg_r)
        incremental = reader._channels["host"].stats.bytes_received - full_bytes
        assert incremental < full_bytes / 1000

    def test_paper_figure1_linked_list(self, world):
        """The shared linked list of Figure 1, via the C-style API."""
        from repro.client.api import (
            IW_malloc, IW_mip_to_ptr, IW_open_segment, IW_rl_acquire,
            IW_rl_release, IW_set_process, IW_wl_acquire, IW_wl_release)
        clock, hub, server = world
        node_t = linked_node_type(name="iwnode")
        client = make_client(hub, clock, "c", SPARC_V9)
        IW_set_process(client)
        handle = IW_open_segment("host/list")

        def list_init():
            IW_wl_acquire(handle)
            head = IW_malloc(handle, node_t, name="head")
            head.key = 0
            head.next = None
            IW_wl_release(handle)

        def list_insert(key):
            IW_wl_acquire(handle)
            head = IW_mip_to_ptr("host/list#head")
            p = IW_malloc(handle, node_t)
            p.key = key
            p.next = head.next
            head.next = p
            IW_wl_release(handle)

        def list_search(key):
            IW_rl_acquire(handle)
            p = IW_mip_to_ptr("host/list#head").next
            while p is not None:
                if p.key == key:
                    IW_rl_release(handle)
                    return p
                p = p.next
            IW_rl_release(handle)
            return None

        list_init()
        for key in (5, 3, 8):
            list_insert(key)
        assert list_search(3) is not None
        assert list_search(99) is None

        # and a second process, on a different architecture, sees the list
        other = make_client(hub, clock, "c2", X86_32)
        IW_set_process(other)
        handle2 = IW_open_segment("host/list")
        IW_rl_acquire(handle2)
        keys = []
        p = IW_mip_to_ptr("host/list#head").next
        while p is not None:
            keys.append(p.key)
            p = p.next
        IW_rl_release(handle2)
        assert keys == [8, 3, 5]
        IW_set_process(None) if False else None


class TestPointerSwizzling:
    def test_cross_segment_pointer(self, world):
        clock, hub, server = world
        writer = make_client(hub, clock, "w", ALPHA)
        seg_a = writer.open_segment("host/a")
        seg_b = writer.open_segment("host/b")
        writer.wl_acquire(seg_b)
        target = writer.malloc(seg_b, INT, name="answer")
        target.set(42)
        writer.wl_release(seg_b)
        writer.wl_acquire(seg_a)
        pointer = writer.malloc(seg_a, PointerDescriptor(INT, "int"), name="p")
        pointer.set(target)
        writer.wl_release(seg_a)

        reader = make_client(hub, clock, "r", MIPS32)
        seg = reader.open_segment("host/a")
        reader.rl_acquire(seg)
        p = reader.accessor_for(seg, "p")
        remote = p.get()  # dereferencing pulls segment b's metadata
        seg_b_r = reader.segments["host/b"]
        reader.rl_acquire(seg_b_r)  # lock before touching data
        assert remote.get() == 42
        reader.rl_release(seg_b_r)
        reader.rl_release(seg)

    def test_interior_pointer(self, world):
        clock, hub, server = world
        writer = make_client(hub, clock, "w")
        seg = writer.open_segment("host/arr")
        writer.wl_acquire(seg)
        array = writer.malloc(seg, ArrayDescriptor(INT, 10), name="a")
        array.write_values(list(range(10)))
        mip = writer.ptr_to_mip(array.element_accessor(7))
        writer.wl_release(seg)
        assert mip == "host/arr#1#7"

        reader = make_client(hub, clock, "r")
        element = reader.mip_to_ptr(mip)
        seg_r = reader.segments["host/arr"]
        reader.rl_acquire(seg_r)
        assert element.get() == 7
        reader.rl_release(seg_r)

    def test_mip_roundtrip(self, world):
        clock, hub, server = world
        client = make_client(hub, clock, "c")
        seg = client.open_segment("host/x")
        client.wl_acquire(seg)
        block = client.malloc(seg, DOUBLE, name="pi")
        block.set(3.14159)
        mip = client.ptr_to_mip(block)
        assert client.mip_to_ptr(mip).get() == pytest.approx(3.14159)
        client.wl_release(seg)

    def test_unshared_address_rejected(self, world):
        clock, hub, server = world
        client = make_client(hub, clock, "c")
        with pytest.raises(MIPError):
            client.ptr_to_mip(0xDEAD)


class TestLockDiscipline:
    def test_malloc_requires_write_lock(self, world):
        clock, hub, server = world
        client = make_client(hub, clock, "c")
        seg = client.open_segment("host/s")
        with pytest.raises(LockError):
            client.malloc(seg, INT)
        client.rl_acquire(seg)
        with pytest.raises(LockError):
            client.malloc(seg, INT)
        client.rl_release(seg)

    def test_write_without_lock_faults(self, world):
        clock, hub, server = world
        client = make_client(hub, clock, "c")
        seg = client.open_segment("host/s")
        client.wl_acquire(seg)
        block = client.malloc(seg, INT, name="x")
        block.set(1)
        client.wl_release(seg)
        # pages are still protected from the write session; a store
        # outside any write lock must be refused
        client.memory.protect_range(block.address, 4)
        with pytest.raises(ProtectionError):
            block.set(2)

    def test_store_straddling_into_an_unlocked_segment_lands_nothing(self, world):
        """Two segments' subsegments can be neighbours in the address
        space.  A store running off the end of the write-locked one into
        the other (whose pages nobody may write) is refused whole: the
        locked segment's bytes stay as they were too."""
        clock, hub, server = world
        client = make_client(hub, clock, "c")
        seg_a = client.open_segment("host/a")
        seg_b = client.open_segment("host/b")
        for seg in (seg_a, seg_b):
            client.wl_acquire(seg)
            client.malloc(seg, ArrayDescriptor(INT, 64), name="x")
            client.wl_release(seg)
        (sub_a,), (sub_b,) = seg_a.heap.subsegments, seg_b.heap.subsegments
        assert sub_b.base == sub_a.end
        client.memory.protect_range(sub_b.base, sub_b.size)  # not b's to write
        client.wl_acquire(seg_a)
        before = client.memory.load(sub_a.base, sub_a.size + sub_b.size)
        with pytest.raises(ProtectionError):
            client.memory.store(sub_a.end - 8, b"\xff" * 16)
        assert client.memory.load(sub_a.base, sub_a.size + sub_b.size) == before
        assert sub_b.twins is None  # b was never twinned
        client.memory.store(sub_a.end - 8, b"\xff" * 8)  # a alone is fine
        client.wl_release(seg_a)

    def test_double_lock_rejected(self, world):
        clock, hub, server = world
        client = make_client(hub, clock, "c")
        seg = client.open_segment("host/s")
        client.rl_acquire(seg)
        with pytest.raises(LockError):
            client.rl_acquire(seg)
        with pytest.raises(LockError):
            client.wl_acquire(seg)
        client.rl_release(seg)

    def test_release_without_lock_rejected(self, world):
        clock, hub, server = world
        client = make_client(hub, clock, "c")
        seg = client.open_segment("host/s")
        with pytest.raises(LockError):
            client.rl_release(seg)
        with pytest.raises(LockError):
            client.wl_release(seg)

    def test_writer_exclusion(self, world):
        clock, hub, server = world
        a = make_client(hub, clock, "a")
        b = make_client(hub, clock, "b")
        b.options.lock_max_retries = 3
        seg_a = a.open_segment("host/s")
        seg_b = b.open_segment("host/s")
        a.wl_acquire(seg_a)
        with pytest.raises(LockError):
            b.wl_acquire(seg_b)
        a.wl_release(seg_a)
        b.wl_acquire(seg_b)  # now available
        b.wl_release(seg_b)

    def test_open_missing_segment_without_create(self, world):
        clock, hub, server = world
        client = make_client(hub, clock, "c")
        with pytest.raises(ServerError):
            client.open_segment("host/missing", create=False)


class TestFree:
    def test_freed_block_propagates(self, world):
        clock, hub, server = world
        a = make_client(hub, clock, "a")
        b = make_client(hub, clock, "b")
        seg_a = a.open_segment("host/s")
        a.wl_acquire(seg_a)
        keep = a.malloc(seg_a, INT, name="keep")
        keep.set(1)
        dead = a.malloc(seg_a, INT, name="dead")
        dead.set(2)
        a.wl_release(seg_a)

        seg_b = b.open_segment("host/s")
        b.rl_acquire(seg_b)
        assert b.accessor_for(seg_b, "dead").get() == 2
        b.rl_release(seg_b)

        a.wl_acquire(seg_a)
        a.free(seg_a, a.accessor_for(seg_a, "dead"))
        a.wl_release(seg_a)

        b.rl_acquire(seg_b)
        with pytest.raises(Exception):
            b.accessor_for(seg_b, "dead")
        assert b.accessor_for(seg_b, "keep").get() == 1
        b.rl_release(seg_b)

    def test_free_of_same_session_block_never_reaches_server(self, world):
        clock, hub, server = world
        a = make_client(hub, clock, "a")
        seg = a.open_segment("host/s")
        a.wl_acquire(seg)
        temp = a.malloc(seg, INT, name="temp")
        a.free(seg, temp)
        a.wl_release(seg)
        assert not server.segments["host/s"].state.blocks


class TestCoherenceModels:
    def bump(self, writer, seg, array, value):
        writer.wl_acquire(seg)
        array[0] = value
        writer.wl_release(seg)

    @pytest.fixture
    def shared_array(self, world):
        clock, hub, server = world
        writer = make_client(hub, clock, "w")
        seg = writer.open_segment("host/c")
        writer.wl_acquire(seg)
        array = writer.malloc(seg, ArrayDescriptor(INT, 1000), name="a")
        array.write_values([0] * 1000)
        writer.wl_release(seg)
        return clock, hub, server, writer, seg, array

    def test_full_coherence_sees_every_version(self, shared_array):
        clock, hub, server, writer, seg, array = shared_array
        reader = make_client(hub, clock, "r", enable_notifications=False)
        seg_r = reader.open_segment("host/c")
        reader.set_coherence(seg_r, full())
        for value in (1, 2, 3):
            self.bump(writer, seg, array, value)
            reader.rl_acquire(seg_r)
            assert reader.accessor_for(seg_r, "a")[0] == value
            reader.rl_release(seg_r)

    def test_delta_coherence_skips_updates(self, shared_array):
        clock, hub, server, writer, seg, array = shared_array
        reader = make_client(hub, clock, "r", enable_notifications=False)
        seg_r = reader.open_segment("host/c")
        reader.rl_acquire(seg_r)  # baseline: version 1
        reader.rl_release(seg_r)
        reader.set_coherence(seg_r, delta(3))
        observed = []
        for value in range(1, 8):
            self.bump(writer, seg, array, value)
            reader.rl_acquire(seg_r)
            observed.append(reader.accessor_for(seg_r, "a")[0])
            reader.rl_release(seg_r)
        # with delta(3) the reader updates only every third version
        assert observed == [0, 0, 3, 3, 3, 6, 6]
        # never more than 3 versions out of date
        for value, seen in enumerate(observed, start=1):
            assert value - seen < 3

    def test_temporal_coherence_avoids_network(self, shared_array):
        clock, hub, server, writer, seg, array = shared_array
        reader = make_client(hub, clock, "r", enable_notifications=False)
        seg_r = reader.open_segment("host/c")
        reader.set_coherence(seg_r, temporal(10.0))
        reader.rl_acquire(seg_r)
        reader.rl_release(seg_r)
        sent_before = reader._channels["host"].stats.requests
        for _ in range(5):
            clock.advance(1.0)
            reader.rl_acquire(seg_r)  # all within the 10-unit bound
            reader.rl_release(seg_r)
        assert reader._channels["host"].stats.requests == sent_before
        clock.advance(20.0)
        reader.rl_acquire(seg_r)  # bound expired: must revalidate
        reader.rl_release(seg_r)
        assert reader._channels["host"].stats.requests == sent_before + 1

    def test_diff_coherence_updates_on_fraction(self, shared_array):
        clock, hub, server, writer, seg, array = shared_array
        reader = make_client(hub, clock, "r", enable_notifications=False)
        seg_r = reader.open_segment("host/c")
        reader.rl_acquire(seg_r)
        reader.rl_release(seg_r)
        reader.set_coherence(seg_r, diff(10.0))  # tolerate 10% drift

        # tiny write: 1 of 1000 units -> reader keeps its copy
        self.bump(writer, seg, array, 123)
        reader.rl_acquire(seg_r)
        assert reader.accessor_for(seg_r, "a")[0] == 0
        reader.rl_release(seg_r)

        # big write: >10% modified -> reader must update
        writer.wl_acquire(seg)
        array.write_values([7] * 500)
        writer.wl_release(seg)
        reader.rl_acquire(seg_r)
        assert reader.accessor_for(seg_r, "a")[0] == 7
        reader.rl_release(seg_r)


class TestNotifications:
    def test_reader_subscribes_and_skips_polls(self, world):
        clock, hub, server = world
        writer = make_client(hub, clock, "w")
        reader = make_client(hub, clock, "r")
        seg = writer.open_segment("host/n")
        writer.wl_acquire(seg)
        counter = writer.malloc(seg, INT, name="c")
        counter.set(0)
        writer.wl_release(seg)

        seg_r = reader.open_segment("host/n")
        # poll until the adaptive protocol subscribes
        for _ in range(6):
            reader.rl_acquire(seg_r)
            reader.rl_release(seg_r)
        assert seg_r.poller.subscribed
        requests = reader._channels["host"].stats.requests
        for _ in range(5):
            reader.rl_acquire(seg_r)  # no traffic: subscribed and valid
            reader.rl_release(seg_r)
        assert reader._channels["host"].stats.requests == requests

        # a write pushes an invalidation; next read revalidates
        writer.wl_acquire(seg)
        writer.accessor_for(seg, "c").set(5)
        writer.wl_release(seg)
        assert seg_r.poller.invalidated
        reader.rl_acquire(seg_r)
        assert reader.accessor_for(seg_r, "c").get() == 5
        reader.rl_release(seg_r)
        assert server.stats.notifications_pushed >= 1


class TestNoDiffModeEndToEnd:
    def test_heavy_writer_switches_and_data_stays_correct(self, world):
        clock, hub, server = world
        writer = make_client(hub, clock, "w")
        reader = make_client(hub, clock, "r")
        seg = writer.open_segment("host/h")
        writer.wl_acquire(seg)
        array = writer.malloc(seg, ArrayDescriptor(INT, 4096), name="a")
        array.write_values([0] * 4096)
        writer.wl_release(seg)

        for round_number in range(1, 8):
            writer.wl_acquire(seg)
            array.write_values([round_number] * 4096)  # rewrite everything
            writer.wl_release(seg)
        assert seg.nodiff.in_nodiff_mode

        seg_r = reader.open_segment("host/h")
        reader.rl_acquire(seg_r)
        values = reader.accessor_for(seg_r, "a").read_values()
        assert set(values) == {7}
        reader.rl_release(seg_r)

    def test_nodiff_skips_page_protection(self, world):
        clock, hub, server = world
        writer = make_client(hub, clock, "w")
        seg = writer.open_segment("host/h")
        writer.wl_acquire(seg)
        array = writer.malloc(seg, ArrayDescriptor(INT, 4096), name="a")
        array.write_values([0] * 4096)
        writer.wl_release(seg)
        for round_number in range(6):
            writer.wl_acquire(seg)
            array.write_values([round_number] * 4096)
            writer.wl_release(seg)
        faults_before = writer.memory.stats.write_faults
        writer.wl_acquire(seg)
        assert not seg.session_diffed
        array.write_values([99] * 4096)
        writer.wl_release(seg)
        assert writer.memory.stats.write_faults == faults_before


class TestDiffCacheEndToEnd:
    def test_second_reader_served_from_cache(self, world):
        clock, hub, server = world
        writer = make_client(hub, clock, "w")
        seg = writer.open_segment("host/d")
        writer.wl_acquire(seg)
        array = writer.malloc(seg, ArrayDescriptor(INT, 100), name="a")
        array.write_values(list(range(100)))
        writer.wl_release(seg)

        readers = [make_client(hub, clock, f"r{i}") for i in range(3)]
        for reader in readers:
            seg_r = reader.open_segment("host/d")
            reader.rl_acquire(seg_r)
            assert reader.accessor_for(seg_r, "a")[5] == 5
            reader.rl_release(seg_r)
        # first reader misses, later ones hit the cached (0 -> v) diff
        assert server.stats.updates_served_from_cache >= 2
        assert server.stats.updates_built <= 1

    def test_writer_diff_forwarded_from_cache(self, world):
        clock, hub, server = world
        writer = make_client(hub, clock, "w")
        reader = make_client(hub, clock, "r")
        seg = writer.open_segment("host/d")
        writer.wl_acquire(seg)
        array = writer.malloc(seg, ArrayDescriptor(INT, 100), name="a")
        writer.wl_release(seg)
        seg_r = reader.open_segment("host/d")
        reader.rl_acquire(seg_r)
        reader.rl_release(seg_r)

        writer.wl_acquire(seg)
        array[3] = 33
        writer.wl_release(seg)
        built_before = server.stats.updates_built
        reader.rl_acquire(seg_r)  # the v1->v2 diff was cached at release
        assert reader.accessor_for(seg_r, "a")[3] == 33
        reader.rl_release(seg_r)
        assert server.stats.updates_built == built_before


class TestTCPEndToEnd:
    def test_sharing_over_real_sockets(self):
        from repro.transport import TCPChannel, TCPServerTransport

        server = InterWeaveServer("tcphost")
        transport = TCPServerTransport(server)
        try:
            def connector(server_name, client_id):
                return TCPChannel("127.0.0.1", transport.port, client_id)

            writer = InterWeaveClient("w", SPARC_V9, connector)
            reader = InterWeaveClient("r", X86_32, connector)
            seg = writer.open_segment("tcphost/t")
            writer.wl_acquire(seg)
            rec = writer.malloc(
                seg,
                RecordDescriptor("m", [Field("x", INT), Field("y", DOUBLE)]),
                name="m")
            rec.x = 11
            rec.y = 0.5
            writer.wl_release(seg)

            seg_r = reader.open_segment("tcphost/t")
            reader.rl_acquire(seg_r)
            rec_r = reader.accessor_for(seg_r, "m")
            assert rec_r.x == 11 and rec_r.y == 0.5
            reader.rl_release(seg_r)
        finally:
            transport.close()
