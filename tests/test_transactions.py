"""Tests for transactional write sessions (abortable critical sections)."""

import pytest

from repro import InProcHub, InterWeaveClient, InterWeaveServer, VirtualClock
from repro.arch import SPARC_V9, X86_32
from repro.errors import BlockError, LockError
from repro.types import INT, ArrayDescriptor, StringDescriptor


@pytest.fixture
def world():
    clock = VirtualClock()
    hub = InProcHub(clock=clock)
    server = InterWeaveServer("host", sink=hub, clock=clock)
    hub.register_server("host", server)
    writer = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
    seg = writer.open_segment("host/tx")
    writer.wl_acquire(seg)
    array = writer.malloc(seg, ArrayDescriptor(INT, 64), name="a")
    array.write_values(list(range(64)))
    label = writer.malloc(seg, StringDescriptor(32), name="label")
    label.set("original")
    writer.wl_release(seg)
    return clock, hub, server, writer, seg


class TestCommit:
    def test_commit_behaves_like_write_release(self, world):
        clock, hub, server, writer, seg = world
        writer.tx_begin(seg)
        writer.accessor_for(seg, "a")[0] = -1
        writer.tx_commit(seg)
        assert seg.version == 2
        assert seg.lock_mode is None

        reader = InterWeaveClient("r", SPARC_V9, hub.connect, clock=clock)
        seg_r = reader.open_segment("host/tx")
        reader.rl_acquire(seg_r)
        assert reader.accessor_for(seg_r, "a")[0] == -1
        reader.rl_release(seg_r)

    def test_commit_executes_deferred_frees(self, world):
        clock, hub, server, writer, seg = world
        writer.tx_begin(seg)
        writer.free(seg, writer.accessor_for(seg, "label"))
        # hidden immediately, even before commit
        with pytest.raises(BlockError):
            seg.heap.block_by_name("label")
        writer.tx_commit(seg)
        assert 2 not in server.segments["host/tx"].state.blocks

    def test_commit_with_creation(self, world):
        clock, hub, server, writer, seg = world
        writer.tx_begin(seg)
        counter = writer.malloc(seg, INT, name="c")
        counter.set(5)
        writer.tx_commit(seg)
        assert writer.accessor_for(seg, "c").get() == 5


class TestAbort:
    def test_abort_rolls_back_modifications(self, world):
        clock, hub, server, writer, seg = world
        writer.tx_begin(seg)
        array = writer.accessor_for(seg, "a")
        array.write_values([0] * 64)
        writer.accessor_for(seg, "label").set("scribbled")
        writer.tx_abort(seg)
        assert list(writer.accessor_for(seg, "a").read_values()) == list(range(64))
        assert writer.accessor_for(seg, "label").get() == "original"
        assert seg.lock_mode is None
        assert seg.version == 1  # no new version reached the server
        assert server.segments["host/tx"].state.version == 1

    def test_abort_after_range_faults_restores_byte_exactly(self, world):
        """Stores that fault runs of pages — a whole-array store, stores
        to scattered pages, a store into an already twinned run — are
        all rolled back from the twins, to the byte."""
        clock, hub, server, writer, seg = world
        words = 6 * 1024  # six pages and a bit, after the fixture's blocks
        writer.wl_acquire(seg)
        big = writer.malloc(seg, ArrayDescriptor(INT, words), name="big")
        big.write_values(list(range(words)))
        writer.wl_release(seg)
        subsegments = seg.heap.subsegments
        before = [writer.memory.load(sub.base, sub.size) for sub in subsegments]
        twins_before = writer.stats.twins_created
        faults_before = writer.memory.stats.write_faults

        writer.tx_begin(seg)
        big[5000] = -1                                   # one page
        big.write_values([-2] * 2100, start=1000)        # a run of pages
        big.write_values([-3] * words)                   # around the twinned ones
        big.write_values([-4] * words)                   # all twinned: no fault
        writer.accessor_for(seg, "label").set("scribbled")
        assert writer.memory.stats.write_faults - faults_before == \
            writer.stats.twins_created - twins_before  # each page twinned once
        twinned = sum(stop - first for sub in subsegments
                      for first, stop in sub.twinned_runs())
        assert twinned == writer.stats.twins_created - twins_before >= 7
        writer.tx_abort(seg)

        assert [writer.memory.load(sub.base, sub.size)
                for sub in subsegments] == before
        assert all(sub.twins is None for sub in subsegments)
        assert server.segments["host/tx"].state.version == 2  # only big's creation
        writer.wl_acquire(seg)  # and the pages take stores again
        big[0] = 7
        writer.wl_release(seg)
        assert server.segments["host/tx"].state.version == 3

    def test_abort_unwinds_creations(self, world):
        clock, hub, server, writer, seg = world
        free_before = seg.heap.free_bytes()
        writer.tx_begin(seg)
        writer.malloc(seg, ArrayDescriptor(INT, 10), name="temp")
        writer.tx_abort(seg)
        with pytest.raises(BlockError):
            seg.heap.block_by_name("temp")
        assert seg.heap.free_bytes() == free_before
        seg.heap.check_invariants()

    def test_abort_resurrects_deferred_frees(self, world):
        clock, hub, server, writer, seg = world
        writer.tx_begin(seg)
        writer.free(seg, writer.accessor_for(seg, "label"))
        writer.tx_abort(seg)
        assert writer.accessor_for(seg, "label").get() == "original"
        # and the server never heard about it
        assert len(server.segments["host/tx"].state.blocks) == 2

    def test_abort_releases_the_write_lock(self, world):
        clock, hub, server, writer, seg = world
        writer.tx_begin(seg)
        writer.tx_abort(seg)
        other = InterWeaveClient("o", X86_32, hub.connect, clock=clock)
        seg_o = other.open_segment("host/tx")
        other.wl_acquire(seg_o)  # must not block/deny
        other.wl_release(seg_o)

    def test_work_after_abort_is_clean(self, world):
        clock, hub, server, writer, seg = world
        writer.tx_begin(seg)
        writer.accessor_for(seg, "a")[3] = 999
        writer.tx_abort(seg)
        writer.wl_acquire(seg)
        writer.accessor_for(seg, "a")[5] = 55
        writer.wl_release(seg)
        reader = InterWeaveClient("r2", X86_32, hub.connect, clock=clock)
        seg_r = reader.open_segment("host/tx")
        reader.rl_acquire(seg_r)
        values = list(reader.accessor_for(seg_r, "a").read_values())
        reader.rl_release(seg_r)
        assert values[3] == 3  # the aborted write never escaped
        assert values[5] == 55

    def test_abort_of_created_then_freed_block(self, world):
        clock, hub, server, writer, seg = world
        writer.tx_begin(seg)
        temp = writer.malloc(seg, INT, name="temp")
        writer.free(seg, temp)  # created this session: freed immediately
        writer.tx_abort(seg)
        with pytest.raises(BlockError):
            seg.heap.block_by_name("temp")
        seg.heap.check_invariants()


class TestTransactionDiscipline:
    def test_commit_without_transaction_rejected(self, world):
        clock, hub, server, writer, seg = world
        with pytest.raises(LockError):
            writer.tx_commit(seg)
        writer.wl_acquire(seg)
        with pytest.raises(LockError):
            writer.tx_commit(seg)  # plain write lock, not a transaction
        writer.wl_release(seg)

    def test_abort_without_transaction_rejected(self, world):
        clock, hub, server, writer, seg = world
        with pytest.raises(LockError):
            writer.tx_abort(seg)

    def test_nested_begin_rejected(self, world):
        clock, hub, server, writer, seg = world
        writer.tx_begin(seg)
        with pytest.raises(LockError):
            writer.tx_begin(seg)
        writer.tx_abort(seg)

    def test_transaction_forces_diffing_mode(self, world):
        clock, hub, server, writer, seg = world
        array = writer.accessor_for(seg, "a")
        # push the segment into no-diff mode with heavy rewrites
        for round_number in range(6):
            writer.wl_acquire(seg)
            array.write_values([round_number] * 64)
            writer.wl_release(seg)
        assert seg.nodiff.in_nodiff_mode
        writer.tx_begin(seg)
        assert seg.session_diffed  # twins exist: rollback is possible
        array.write_values([99] * 64)
        writer.tx_abort(seg)
        assert list(array.read_values()) == [5] * 64
