"""Tests for server-side segment state: wire storage, subblocks, updates.

``REPRO_DIFFERENTIAL_EXAMPLES`` raises the Hypothesis budget of the
subblock-stamp differential test (CI runs it a second time with a large
one).
"""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServerError, WireFormatError
from repro.server.segment_state import SUBBLOCK_UNITS, ServerBlock, ServerSegment
from repro.types import (
    INT,
    ArrayDescriptor,
    PointerDescriptor,
    StringDescriptor,
    TypeRegistry,
    encode_descriptor,
)
from repro.wire import BlockDiff, DiffRun, RunColumns, SegmentDiff


def wire_ints(*values):
    return struct.pack(f">{len(values)}i", *values)


def make_segment_with_array(count=64, values=None):
    """A segment holding one int array block at version 1."""
    state = ServerSegment("host/data")
    registry = TypeRegistry()
    descriptor = ArrayDescriptor(INT, count)
    serial = registry.register(descriptor)
    values = values if values is not None else list(range(count))
    diff = SegmentDiff("host/data", 0, 0, [
        BlockDiff(serial=1, is_new=True, type_serial=serial,
                  runs=[DiffRun(0, count, wire_ints(*values))]),
    ], new_types=[(serial, registry.encoded(serial))])
    state.apply_client_diff(diff)
    return state, serial


class TestApplyClientDiff:
    def test_new_block_materializes(self):
        state, _ = make_segment_with_array(8)
        assert state.version == 1
        assert 1 in state.blocks
        assert state.read_block_wire(1) == wire_ints(*range(8))

    def test_version_mismatch_rejected(self):
        state, type_serial = make_segment_with_array(8)
        stale = SegmentDiff("host/data", 0, 0, [
            BlockDiff(serial=1, runs=[DiffRun(0, 1, wire_ints(9))])])
        with pytest.raises(ServerError):
            state.apply_client_diff(stale)

    def test_partial_update_overwrites_only_named_units(self):
        state, _ = make_segment_with_array(8)
        diff = SegmentDiff("host/data", 1, 0, [
            BlockDiff(serial=1, runs=[DiffRun(2, 2, wire_ints(-1, -2))])])
        state.apply_client_diff(diff)
        assert state.read_block_wire(1) == wire_ints(0, 1, -1, -2, 4, 5, 6, 7)

    def test_unknown_block_rejected(self):
        state, _ = make_segment_with_array(8)
        diff = SegmentDiff("host/data", 1, 0, [
            BlockDiff(serial=77, runs=[DiffRun(0, 1, wire_ints(1))])])
        with pytest.raises(ServerError):
            state.apply_client_diff(diff)

    def test_free_block(self):
        state, _ = make_segment_with_array(8)
        diff = SegmentDiff("host/data", 1, 0, [BlockDiff(serial=1, freed=True)])
        state.apply_client_diff(diff)
        assert 1 not in state.blocks
        assert state.freed_log == [(2, 1)]

    def test_free_unknown_rejected(self):
        state, _ = make_segment_with_array(8)
        diff = SegmentDiff("host/data", 1, 0, [BlockDiff(serial=9, freed=True)])
        with pytest.raises(ServerError):
            state.apply_client_diff(diff)


class TestSubblockTracking:
    def test_subblock_versions_updated_per_run(self):
        state, _ = make_segment_with_array(64)  # 4 subblocks of 16 units
        block = state.blocks[1]
        assert list(block.subblock_versions) == [1, 1, 1, 1]
        diff = SegmentDiff("host/data", 1, 0, [
            BlockDiff(serial=1, runs=[DiffRun(20, 1, wire_ints(-5))])])
        state.apply_client_diff(diff)
        assert list(block.subblock_versions) == [1, 2, 1, 1]

    def test_run_spanning_subblocks(self):
        state, _ = make_segment_with_array(64)
        diff = SegmentDiff("host/data", 1, 0, [
            BlockDiff(serial=1, runs=[DiffRun(14, 4, wire_ints(1, 2, 3, 4))])])
        state.apply_client_diff(diff)
        assert list(state.blocks[1].subblock_versions) == [2, 2, 1, 1]

    def test_update_granularity_is_subblock(self):
        """A client gets the whole 16-unit subblock even for a 1-unit change
        (the flat region of Figure 5)."""
        state, _ = make_segment_with_array(64)
        diff = SegmentDiff("host/data", 1, 0, [
            BlockDiff(serial=1, runs=[DiffRun(20, 1, wire_ints(-5))])])
        state.apply_client_diff(diff)
        update = state.build_update(1)
        (block_diff,) = update.block_diffs
        (run,) = block_diff.runs
        assert (run.prim_start, run.prim_count) == (16, SUBBLOCK_UNITS)
        assert run.data == wire_ints(16, 17, 18, 19, -5, *range(21, 32))


@st.composite
def stamped_runs(draw):
    """A block size and in-bounds runs: one unit long, inside one
    subblock, or anywhere (empty, overlapping and spanning ones too)."""
    prim_count = draw(st.integers(1, 600))
    shape = draw(st.sampled_from(["one_unit", "within", "any"]))
    starts = draw(st.lists(st.integers(0, prim_count - 1), max_size=60))
    if shape == "one_unit":
        counts = [1] * len(starts)
    elif shape == "within":
        counts = [draw(st.integers(1, SUBBLOCK_UNITS - start % SUBBLOCK_UNITS))
                  for start in starts]
    else:
        counts = [draw(st.integers(0, prim_count - start)) for start in starts]
    counts = [min(count, prim_count - start) for start, count in zip(starts, counts)]
    return prim_count, np.array(starts, np.int64), np.array(counts, np.int64)


class TestStampDifferential:
    """``_stamp_subblocks`` (one scatter, or a difference array) against
    a slice assignment per run."""

    @settings(max_examples=int(os.environ.get("REPRO_DIFFERENTIAL_EXAMPLES", "100")),
              deadline=None)
    @given(stamped_runs(), st.integers(0, 2 ** 32 - 1))
    def test_stamp_equals_a_slice_per_run(self, runs, seed):
        prim_count, starts, counts = runs
        block = ServerBlock(None, prim_count, 1)
        block.subblock_versions[:] = np.random.default_rng(seed).integers(
            0, 50, block.subblock_versions.size)
        expected = block.subblock_versions.copy()
        for start, count in zip(starts.tolist(), counts.tolist()):
            expected[start // SUBBLOCK_UNITS:
                     (start + count - 1) // SUBBLOCK_UNITS + 1] = 99
        ServerSegment._stamp_subblocks(
            block, RunColumns(starts, counts, counts * 4, b""), 99)
        assert block.subblock_versions.tolist() == expected.tolist()

    @pytest.mark.parametrize("start", [65, 80, 2 ** 32 - 1])
    def test_an_empty_run_past_the_block_is_refused(self, start):
        """Every run is bounds-checked before the stamp indexes by it,
        empty ones and the per-run path's included."""
        state, _ = make_segment_with_array(64)
        bad = SegmentDiff("host/data", 1, 0, [BlockDiff(serial=1, runs=[
            DiffRun(3, 1, wire_ints(-1)), DiffRun(start, 0, b"")])])
        with pytest.raises(WireFormatError):
            state.apply_client_diff(bad)
        assert state.version == 1
        assert state.read_block_wire(1) == wire_ints(*range(64))
        assert state.blocks[1].subblock_versions.tolist() == [1, 1, 1, 1]


class TestBuildUpdate:
    def test_current_client_gets_none(self):
        state, _ = make_segment_with_array(8)
        assert state.build_update(1) is None
        assert state.build_update(5) is None

    def test_fresh_client_gets_everything_as_new(self):
        state, type_serial = make_segment_with_array(8)
        update = state.build_update(0)
        assert update.from_version == 0 and update.to_version == 1
        assert [serial for serial, _ in update.new_types] == [type_serial]
        (block_diff,) = update.block_diffs
        assert block_diff.is_new
        assert block_diff.runs[0].data == wire_ints(*range(8))

    def test_incremental_update_smaller_than_full(self):
        state, _ = make_segment_with_array(1024)
        diff = SegmentDiff("host/data", 1, 0, [
            BlockDiff(serial=1, runs=[DiffRun(0, 1, wire_ints(-1))])])
        state.apply_client_diff(diff)
        full = state.build_update(0)
        incremental = state.build_update(1)
        assert incremental.payload_bytes() < full.payload_bytes() / 10
        assert not incremental.block_diffs[0].is_new

    def test_merged_adjacent_stale_subblocks(self):
        state, _ = make_segment_with_array(64)
        diff = SegmentDiff("host/data", 1, 0, [
            BlockDiff(serial=1, runs=[DiffRun(0, 40, wire_ints(*([-1] * 40)))])])
        state.apply_client_diff(diff)
        update = state.build_update(1)
        (run,) = update.block_diffs[0].runs
        # subblocks 0,1,2 merge into one run of 48 units
        assert (run.prim_start, run.prim_count) == (0, 48)

    def test_free_tombstone_included_for_stale_client(self):
        state, _ = make_segment_with_array(8)
        state.apply_client_diff(SegmentDiff("host/data", 1, 0, [
            BlockDiff(serial=1, freed=True)]))
        update = state.build_update(1)
        assert any(bd.freed and bd.serial == 1 for bd in update.block_diffs)
        # a client that never saw the block still gets the tombstone
        update0 = state.build_update(0)
        assert any(bd.freed for bd in update0.block_diffs)

    def test_multi_version_catchup(self):
        state, _ = make_segment_with_array(64)
        for version in range(5):
            unit = version * 4
            state.apply_client_diff(SegmentDiff("host/data", state.version, 0, [
                BlockDiff(serial=1, runs=[DiffRun(unit, 1, wire_ints(-version))])]))
        update = state.build_update(1)
        assert update.to_version == 6
        covered = update.block_diffs[0].covered_units()
        assert covered >= 5  # at least the five touched units (as subblocks)


class TestSkeleton:
    def test_skeleton_has_structure_but_no_data(self):
        state, type_serial = make_segment_with_array(8)
        skeleton = state.build_skeleton()
        (block_diff,) = skeleton.block_diffs
        assert block_diff.is_new and block_diff.runs == []
        assert block_diff.type_serial == type_serial
        assert skeleton.new_types


class TestVariableData:
    def test_string_stored_and_served(self):
        state = ServerSegment("host/s")
        registry = TypeRegistry()
        descriptor = StringDescriptor(64)
        serial = registry.register(descriptor)
        wire = struct.pack(">I", 5) + b"hello"
        state.apply_client_diff(SegmentDiff("host/s", 0, 0, [
            BlockDiff(serial=1, is_new=True, type_serial=serial,
                      runs=[DiffRun(0, 1, wire)])],
            new_types=[(serial, registry.encoded(serial))]))
        assert state.read_block_wire(1) == wire

    def test_mips_stored_out_of_line(self):
        state = ServerSegment("host/p")
        registry = TypeRegistry()
        descriptor = PointerDescriptor(INT, "int")
        serial = registry.register(descriptor)
        mip = b"host/other#3#7"
        wire = struct.pack(">I", len(mip)) + mip
        state.apply_client_diff(SegmentDiff("host/p", 0, 0, [
            BlockDiff(serial=1, is_new=True, type_serial=serial,
                      runs=[DiffRun(0, 1, wire)])],
            new_types=[(serial, registry.encoded(serial))]))
        assert state.mip_store == [mip]  # the wire bytes as they came
        assert state.read_block_wire(1) == wire

    def test_mips_interned(self):
        state = ServerSegment("host/p")
        registry = TypeRegistry()
        descriptor = ArrayDescriptor(PointerDescriptor(INT, "int"), 3)
        serial = registry.register(descriptor)
        mip = b"host/x#1"
        one = struct.pack(">I", len(mip)) + mip
        state.apply_client_diff(SegmentDiff("host/p", 0, 0, [
            BlockDiff(serial=1, is_new=True, type_serial=serial,
                      runs=[DiffRun(0, 3, one * 3)])],
            new_types=[(serial, registry.encoded(serial))]))
        assert state.mip_store == [mip]  # same MIP stored once

    @pytest.mark.parametrize("count", [3, 100], ids=["per-unit", "batched"])
    @pytest.mark.parametrize("bad", [b"host/x#\xff1", b"host/x", b"host/x#1#two",
                                     b"#1", b"host/x#1#2#3"])
    def test_malformed_mip_fails_its_writer_and_is_not_kept(self, count, bad):
        state = ServerSegment("host/p")
        registry = TypeRegistry()
        serial = registry.register(
            ArrayDescriptor(PointerDescriptor(INT, "int"), count))
        good = b"host/x#1"
        units = [struct.pack(">I", len(mip)) + mip
                 for mip in [good] * (count - 1) + [bad]]
        with pytest.raises(WireFormatError, match="bad MIP"):
            state.apply_client_diff(SegmentDiff("host/p", 0, 0, [
                BlockDiff(serial=1, is_new=True, type_serial=serial,
                          runs=[DiffRun(0, count, b"".join(units))])],
                new_types=[(serial, registry.encoded(serial))]))
        assert bad not in state.mip_store  # no reader will ever be sent it
        if count > 64:  # the batched pass checks a whole batch before keeping any
            assert state.mip_store == []


class TestAccounting:
    def test_total_units(self):
        state, _ = make_segment_with_array(64)
        assert state.total_prim_units == 64

    def test_version_times_recorded(self):
        state, _ = make_segment_with_array(8)
        state.apply_client_diff(SegmentDiff("host/data", 1, 0, [
            BlockDiff(serial=1, runs=[DiffRun(0, 1, wire_ints(5))])]), now=12.5)
        assert state.version_times[2] == 12.5


class TestFailedApplyAtomicity:
    def test_rejected_diff_leaves_no_dangling_marker(self):
        """A failed apply must roll its version marker back: with the
        marker left linked, the next apply died on "marker versions must
        increase" and the segment was permanently wedged."""
        state, _ = make_segment_with_array(8)
        bad = SegmentDiff("host/data", 1, 0, [
            BlockDiff(serial=2, is_new=True, type_serial=999,  # unregistered
                      runs=[DiffRun(0, 1, wire_ints(1))])])
        with pytest.raises(ServerError):
            state.apply_client_diff(bad)
        assert state.version == 1
        good = SegmentDiff("host/data", 1, 0, [
            BlockDiff(serial=1, runs=[DiffRun(0, 1, wire_ints(42))])])
        state.apply_client_diff(good)
        assert state.version == 2
        assert state.read_block_wire(1) == wire_ints(42, 1, 2, 3, 4, 5, 6, 7)

    def test_bad_entry_rejects_the_whole_batch(self):
        """Validation runs before any mutation, so a diff that is half
        valid changes nothing at all."""
        state, _ = make_segment_with_array(8)
        mixed = SegmentDiff("host/data", 1, 0, [
            BlockDiff(serial=1, runs=[DiffRun(0, 2, wire_ints(-1, -2))]),
            BlockDiff(serial=77, runs=[DiffRun(0, 1, wire_ints(1))]),  # unknown
        ])
        with pytest.raises(ServerError):
            state.apply_client_diff(mixed)
        assert state.version == 1
        assert state.read_block_wire(1) == wire_ints(*range(8))
        assert list(state.blocks[1].subblock_versions) == [1]

    def test_free_then_recreate_in_one_diff_still_validates(self):
        """The validator tracks liveness through the diff itself: freeing
        a block and creating a new one in the same batch is legal."""
        state, type_serial = make_segment_with_array(8)
        diff = SegmentDiff("host/data", 1, 0, [
            BlockDiff(serial=1, freed=True),
            BlockDiff(serial=2, is_new=True, type_serial=type_serial,
                      runs=[DiffRun(0, 8, wire_ints(*range(10, 18)))]),
        ])
        state.apply_client_diff(diff)
        assert 1 not in state.blocks
        assert state.read_block_wire(2) == wire_ints(*range(10, 18))
