"""Unit tests for client diff collection: word diffing, mapping, batching.

``REPRO_DIFFERENTIAL_EXAMPLES`` raises the Hypothesis budget of the
word-diff and block-mapping differential tests (CI runs them a second
time with a large one).
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import MIPS32, SPARC_V9, X86_32, X86_64
from repro.client.collect import (
    SPLICE_MAX_GAP_WORDS,
    changed_byte_arrays,
    map_ranges_to_blocks,
    word_diff_arrays,
)
from repro.memory import (MIN_SUBSEGMENT_PAGES, AccessorContext, AddressSpace, Heap,
                          SegmentHeap, make_accessor)
from repro.types import CHAR, DOUBLE, HYPER, INT, SHORT, ArrayDescriptor, flat_layout
from repro.types.layout import FlatLayout, merge_run_arrays
from repro.wire import BlockDiff, DiffRun, TranslationContext, apply_range
from repro.wire.translate import apply_runs, collect_range, collect_runs
from tests._support import (as_runs, map_runs_to_blocks, twin_on_fault,
                            word_diff_reference)


def make_env(arch=X86_32):
    memory = AddressSpace()
    heap = Heap(memory)
    seg = SegmentHeap("s", heap, arch)
    return memory, seg, AccessorContext(memory, arch)


def word_diff_pages(memory, subsegment, word_size, max_gap=0):
    return as_runs(*word_diff_arrays(memory, subsegment, word_size, max_gap))


class TestWordDiff:
    def setup_env(self, words=4096):
        memory, seg, actx = make_env()
        block = seg.allocate(ArrayDescriptor(INT, words), 1)
        acc = make_accessor(actx, block.descriptor, block.address)
        acc.write_values([0] * words)
        sub = block.subsegment
        twin_on_fault(memory, sub)
        return memory, seg, acc, block, sub

    def test_no_changes_no_runs(self):
        memory, seg, acc, block, sub = self.setup_env()
        starts, ends = word_diff_arrays(memory, sub, 4)
        assert starts.size == 0

    def test_single_word_change(self):
        memory, seg, acc, block, sub = self.setup_env()
        acc[100] = 7
        runs = word_diff_pages(memory, sub, 4)
        offset_words = (block.address - sub.base) // 4
        assert runs == [(offset_words + 100, 1)]

    def test_contiguous_changes_merge(self):
        memory, seg, acc, block, sub = self.setup_env()
        acc.write_values([1, 2, 3], start=10)
        runs = word_diff_pages(memory, sub, 4)
        assert len(runs) == 1 and runs[0][1] == 3

    def test_untouched_pages_not_compared(self):
        memory, seg, acc, block, sub = self.setup_env()
        acc[0] = 1  # touches only the first page
        assert list(sub.twinned_runs()) == [(0, 1)]
        # a difference on a page without a twin is not looked at
        memory.unprotect_range(sub.base + 2 * sub.page_size, 1)
        memory.store(sub.base + 2 * sub.page_size, b"\xff" * 4)
        runs = word_diff_pages(memory, sub, 4)
        assert len(runs) == 1

    def test_write_of_same_value_yields_no_run(self):
        memory, seg, acc, block, sub = self.setup_env()
        acc[5] = 0  # store happens (fault + twin) but content is unchanged
        assert list(sub.twinned_runs()) == [(0, 1)]
        assert word_diff_pages(memory, sub, 4) == []

    def test_splice_gap_within_limit(self):
        memory, seg, acc, block, sub = self.setup_env()
        acc[10] = 1
        acc[13] = 1  # gap of 2 words: spliced
        runs = word_diff_pages(memory, sub, 4, max_gap=SPLICE_MAX_GAP_WORDS)
        assert len(runs) == 1 and runs[0][1] == 4

    def test_splice_gap_beyond_limit(self):
        memory, seg, acc, block, sub = self.setup_env()
        acc[10] = 1
        acc[14] = 1  # gap of 3 words: separate runs
        runs = word_diff_pages(memory, sub, 4, max_gap=SPLICE_MAX_GAP_WORDS)
        assert len(runs) == 2

    def test_cross_page_run_merges(self):
        memory, seg, acc, block, sub = self.setup_env(words=4096)
        page_words = 4096 // 4
        offset_words = (block.address - sub.base) // 4
        boundary = page_words - offset_words  # first array index on page 2
        acc.write_values([9, 9], start=boundary - 1)
        runs = as_runs(*changed_byte_arrays(memory, sub, 4))
        assert len(runs) == 1
        assert runs[0][1] == 8

#: pages and page size of the differential test's subsegment — small
#: pages so one example holds many page edges, and the smallest
#: subsegment there is so "all twinned" is cheap to draw
DIFF_PAGES, DIFF_PAGE_SIZE = MIN_SUBSEGMENT_PAGES, 64


@st.composite
def _twinned_page_sets(draw):
    kind = draw(st.sampled_from(["none", "all", "sparse", "pairs"]))
    if kind == "none":
        return []
    if kind == "all":
        return list(range(DIFF_PAGES))
    if kind == "sparse":
        return draw(st.lists(st.integers(0, DIFF_PAGES - 1), unique=True))
    firsts = draw(st.lists(st.integers(0, DIFF_PAGES - 2), min_size=1, max_size=3))
    return sorted({page for first in firsts for page in (first, first + 1)})


@st.composite
def _changed_words(draw, word_size):
    """Word runs placed against page edges — ending on one, starting on
    one, spanning one — with 0-3 unchanged words around them, plus a few
    placed anywhere."""
    page_words = DIFF_PAGE_SIZE // word_size
    total = DIFF_PAGES * page_words
    changed = set()
    for _ in range(draw(st.integers(0, 6))):
        edge = draw(st.integers(0, DIFF_PAGES)) * page_words
        length = draw(st.integers(1, page_words + 2))
        start = edge + draw(st.sampled_from(
            [-length, 0, -draw(st.integers(0, length))]))  # ends on / starts on / spans
        gap = draw(st.integers(0, 3))
        neighbour = draw(st.integers(1, 3))
        changed.update(range(start, start + length))
        changed.update(range(start + length + gap, start + length + gap + neighbour))
        changed.update(range(start - gap - neighbour, start - gap))
    changed.update(draw(st.lists(st.integers(0, total - 1), max_size=8)))
    return sorted(word for word in changed if 0 <= word < total)


class TestWordDiffDifferential:
    """The one-pass word diff against the per-page reference it replaced
    (``tests/_support.word_diff_reference``): identical runs."""

    @settings(max_examples=int(os.environ.get("REPRO_DIFFERENTIAL_EXAMPLES", "100")),
              deadline=None)
    @given(st.data(), st.sampled_from([4, 8]), st.booleans(), _twinned_page_sets())
    def test_one_pass_equals_per_page_reference(self, data, word_size, splice,
                                                twinned):
        memory = AddressSpace(page_size=DIFF_PAGE_SIZE)
        heap = SegmentHeap("s", Heap(memory), X86_32)
        sub = heap.expand(DIFF_PAGES * DIFF_PAGE_SIZE)
        assert sub.num_pages == DIFF_PAGES
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        memory.store(sub.base, np.random.default_rng(seed).integers(
            0, 256, sub.size, dtype=np.uint8).tobytes())
        twin_on_fault(memory, sub)
        for page in twinned:  # a store of what is there: twins, changes nothing
            at = sub.base + page * DIFF_PAGE_SIZE
            memory.store(at, memory.load(at, 1))
        # change words everywhere, twinned page or not: only twinned ones count
        memory.unprotect_range(sub.base, sub.size)
        for word in data.draw(_changed_words(word_size)):
            at = sub.base + word * word_size
            flipped = bytes(byte ^ 0xFF for byte in memory.load(at, word_size))
            memory.store(at, flipped[:data.draw(st.integers(1, word_size))])
        max_gap = SPLICE_MAX_GAP_WORDS if splice else 0
        starts, ends = word_diff_arrays(memory, sub, word_size, max_gap)
        expected_starts, expected_ends = word_diff_reference(
            memory, sub, word_size, max_gap)
        assert starts.dtype == ends.dtype == np.int64
        assert starts.tolist() == expected_starts.tolist()
        assert ends.tolist() == expected_ends.tolist()
        page_words = DIFF_PAGE_SIZE // word_size
        assert all(start // page_words in twinned for start in starts.tolist())


EXAMPLES = int(os.environ.get("REPRO_DIFFERENTIAL_EXAMPLES", "100"))
DENSE_ELEMENTS = [CHAR, SHORT, INT, HYPER, DOUBLE]


def map_reference(subsegment, byte_starts, byte_ends, arch):
    """``map_ranges_to_blocks`` without its dense fast path: every block's
    ranges clipped to the block, emptied ones dropped, and the rest
    mapped by the layout's general ``prim_runs_for_byte_ranges``."""
    mapped = {}
    for _, block in subsegment.blk_addr_tree.items():
        los = np.clip(byte_starts - block.address, 0, block.size)
        his = np.clip(byte_ends - block.address, 0, block.size)
        keep = los < his
        if keep.any():
            starts, counts = flat_layout(block.descriptor, arch) \
                .prim_runs_for_byte_ranges(los[keep], his[keep])
            if starts.size:
                mapped[block.serial] = (starts.tolist(), counts.tolist())
    return mapped


class TestDenseMappingDifferential:
    """Ranges inside one dense run of units no wider than a word map to
    unit runs by one subtraction and one division; on every word diff the
    result must equal the general mapper's (clip, mask, merge)."""

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(st.data(), st.sampled_from([X86_32, MIPS32, X86_64, SPARC_V9]),
           st.sampled_from(DENSE_ELEMENTS), st.booleans())
    def test_fast_mapping_equals_the_layout_mapper(self, data, arch, element,
                                                   splice):
        memory = AddressSpace()
        seg = SegmentHeap("s", Heap(memory), arch)
        # blocks before and after the one changed most, so it sits at an
        # offset in its subsegment and ranges can cross into neighbours
        neighbours = [seg.allocate(ArrayDescriptor(
            data.draw(st.sampled_from(DENSE_ELEMENTS)),
            data.draw(st.integers(1, 9))), 1)
            for _ in range(data.draw(st.integers(0, 2)))]
        count = data.draw(st.integers(1, 300))
        block = seg.allocate(ArrayDescriptor(element, count), 1)
        neighbours.append(seg.allocate(ArrayDescriptor(CHAR, 3), 1))
        sub = block.subsegment
        assert all(other.subsegment is sub for other in neighbours)
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        memory.store(sub.base, np.random.default_rng(seed).integers(
            0, 256, sub.size, dtype=np.uint8).tobytes())
        twin_on_fault(memory, sub)
        unit = flat_layout(block.descriptor, arch).runs[0].unit_size
        if data.draw(st.booleans()):  # every stride-th unit: many short runs
            stride = data.draw(st.integers(1, 12))
            units = range(data.draw(st.integers(0, stride - 1)), count, stride)
        else:
            units = data.draw(st.lists(st.integers(0, count - 1), max_size=40))
        # whole units, or one byte of each: a unit wider than a word then
        # changes only some of its words
        lo, hi = data.draw(st.sampled_from(
            [(0, unit)] + [(k, k + 1) for k in range(unit)]))
        for index in units:
            at = block.address + index * unit + lo
            memory.store(at, bytes(b ^ 0xFF for b in memory.load(at, hi - lo)))
        for offset in data.draw(st.lists(st.integers(0, sub.size - 1),
                                         max_size=3)):  # headers, neighbours
            at = sub.base + offset
            memory.store(at, bytes([memory.load(at, 1)[0] ^ 0xFF]))
        if sub.twins is None:
            return
        byte_starts, byte_ends = changed_byte_arrays(
            memory, sub, arch.word_size, splice)
        mapped = map_ranges_to_blocks(sub, byte_starts, byte_ends, set(), arch)
        assert all(starts.dtype == counts.dtype == np.int64
                   for starts, counts in mapped.values())
        assert ({serial: (starts.tolist(), counts.tolist())
                 for serial, (starts, counts) in mapped.items()}
                == map_reference(sub, byte_starts, byte_ends, arch))

    @pytest.mark.parametrize("arch,element", [(X86_32, INT), (X86_32, SHORT),
                                              (X86_64, HYPER), (SPARC_V9, INT)])
    def test_one_word_runs_never_reach_the_layout_mapper(self, arch, element):
        memory, seg, actx = make_env(arch)
        seg.allocate(ArrayDescriptor(CHAR, 5), 1)
        block = seg.allocate(ArrayDescriptor(element, 1000), 1)
        sub = block.subsegment
        starts = np.arange(block.address, block.end, 10 * arch.word_size)
        with mock.patch.object(FlatLayout, "prim_runs_for_byte_ranges",
                               side_effect=AssertionError("general path")):
            mapped = map_ranges_to_blocks(sub, starts, starts + arch.word_size,
                                          set(), arch)
        per_word = arch.word_size // flat_layout(
            block.descriptor, arch).runs[0].unit_size
        prim_starts, prim_counts = mapped[block.serial]
        assert prim_starts.tolist() == list(range(0, 1000, 10 * per_word))
        assert set(prim_counts.tolist()) == {per_word}


class TestMergeRunArrays:
    def test_empty(self):
        starts, ends = merge_run_arrays([], [])
        assert starts.size == 0

    def test_adjacent_merge(self):
        starts, ends = merge_run_arrays([0, 2], [2, 5])
        assert starts.tolist() == [0] and ends.tolist() == [5]

    def test_gap_respected(self):
        starts, ends = merge_run_arrays([0, 5], [2, 6])
        assert starts.tolist() == [0, 5]

    def test_max_gap_splices(self):
        starts, ends = merge_run_arrays([0, 4], [2, 6], max_gap=2)
        assert starts.tolist() == [0] and ends.tolist() == [6]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(1, 10)),
                    max_size=20), st.integers(0, 3))
    def test_matches_scalar_splice(self, runs, max_gap):
        from repro.util import runs as run_algebra

        normalized = run_algebra.normalize(runs)
        starts = np.array([s for s, _ in normalized], np.int64)
        ends = np.array([s + c for s, c in normalized], np.int64)
        merged_starts, merged_ends = merge_run_arrays(starts, ends, max_gap)
        expected = run_algebra.splice(normalized, max_gap)
        assert list(zip(merged_starts.tolist(),
                        (merged_ends - merged_starts).tolist())) == expected


class TestBatchedTranslation:
    """collect_runs/apply_runs pick gather/scatter or the per-run loop
    themselves; either way they must equal per-run collect_range /
    apply_range (the reference)."""

    @pytest.mark.parametrize("starts,counts", [
        ([0, 10, 500, 998], [5, 1, 100, 2]),            # per-run side
        ([0, 10, 500, 600, 998], [5, 1, 100, 7, 2]),    # gather side
        ([7], [1]),
        ([], []),
    ])
    def test_collect_runs_matches_per_run(self, starts, counts):
        memory, seg, actx = make_env()
        block = seg.allocate(ArrayDescriptor(INT, 1000), 1)
        acc = make_accessor(actx, block.descriptor, block.address)
        acc.write_values(list(range(1000)))
        tctx = TranslationContext(memory, X86_32)
        layout = flat_layout(block.descriptor, X86_32)
        batched = collect_runs(tctx, layout, block.address, starts, counts)
        individual = [DiffRun(s, c, collect_range(tctx, layout, block.address, s, c))
                      for s, c in zip(starts, counts)]
        assert BlockDiff(1, columns=batched).runs == individual
        assert batched == BlockDiff(1, runs=individual).columns

    @pytest.mark.parametrize("starts,counts", [
        ([3, 100, 200, 300, 700], [4, 2, 2, 2, 50]),    # scatter side
        ([3, 100, 700], [4, 2, 50]),                    # per-run side
    ])
    def test_apply_runs_roundtrip(self, starts, counts):
        memory, seg, actx = make_env()
        src = seg.allocate(ArrayDescriptor(INT, 1000), 1)
        dst = seg.allocate(ArrayDescriptor(INT, 1000), 1)
        acc_src = make_accessor(actx, src.descriptor, src.address)
        acc_dst = make_accessor(actx, dst.descriptor, dst.address)
        acc_src.write_values(list(range(1000)))
        acc_dst.write_values([0] * 1000)
        tctx = TranslationContext(memory, X86_32)
        layout = flat_layout(src.descriptor, X86_32)
        columns = collect_runs(tctx, layout, src.address, starts, counts)
        assert apply_runs(tctx, layout, dst.address, columns) is None
        values = acc_dst.read_values()
        assert list(values[3:7]) == [3, 4, 5, 6]
        assert list(values[100:102]) == [100, 101]
        assert list(values[700:750]) == list(range(700, 750))
        assert values[0] == 0 and values[7] == 0

    @pytest.mark.parametrize("filler_runs", [5, 1])  # scatter / per-run side
    def test_apply_runs_rejects_bad_payload(self, filler_runs):
        from repro.errors import WireFormatError

        memory, seg, actx = make_env()
        block = seg.allocate(ArrayDescriptor(INT, 10), 1)
        tctx = TranslationContext(memory, X86_32)
        layout = flat_layout(block.descriptor, X86_32)
        filler = [DiffRun(k, 1, b"\x00" * 4) for k in range(2, 2 + filler_runs)]
        for bad in (DiffRun(0, 2, b"\x00" * 7),      # 7 != 8
                    DiffRun(0, 2, b"\x00" * 9),      # trailing byte
                    DiffRun(8, 5, b"\x00" * 20)):    # beyond end
            with pytest.raises(WireFormatError):
                apply_runs(tctx, layout, block.address,
                           BlockDiff(1, runs=[bad] + filler).columns)

    @pytest.mark.parametrize("run_count", [2, 9])  # either side of the choice
    def test_apply_runs_applies_complex_layouts(self, run_count):
        """Layouts with no scatter path (records, strings) are applied by
        apply_runs itself, equal to per-run apply_range."""
        from repro.types import DOUBLE, Field, RecordDescriptor, StringDescriptor

        memory, seg, actx = make_env()
        rec = RecordDescriptor("r", [Field("i", INT), Field("d", DOUBLE),
                                     Field("s", StringDescriptor(8))])
        src = seg.allocate(ArrayDescriptor(rec, 12), 1)
        batched = seg.allocate(ArrayDescriptor(rec, 12), 1)
        per_run = seg.allocate(ArrayDescriptor(rec, 12), 1)
        records = make_accessor(actx, src.descriptor, src.address)
        for k in range(12):
            records[k].i, records[k].d, records[k].s = k + 1, k / 2, f"s{k}"
        tctx = TranslationContext(memory, X86_32)
        layout = flat_layout(src.descriptor, X86_32)
        starts = list(range(1, 4 * run_count, 4))
        counts = [3] * run_count
        columns = collect_runs(tctx, layout, src.address, starts, counts)
        assert apply_runs(tctx, layout, batched.address, columns) is None
        for run in BlockDiff(1, columns=columns).runs:
            apply_range(tctx, layout, per_run.address, run.prim_start,
                        run.prim_count, run.data)
        assert (memory.load(batched.address, layout.local_size)
                == memory.load(per_run.address, layout.local_size))
        assert (memory.load(batched.address, layout.local_size)
                != memory.load(src.address, layout.local_size))  # partial


class TestByteRangesVectorized:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 399), st.integers(1, 30)),
                    min_size=1, max_size=15))
    def test_matches_scalar_mapper(self, raw_ranges):
        from repro.util import runs as run_algebra

        layout = flat_layout(ArrayDescriptor(INT, 100), X86_32)
        merged = run_algebra.normalize(
            [(lo, min(length, 400 - lo)) for lo, length in raw_ranges
             if lo < 400])
        los = np.array([s for s, _ in merged], np.int64)
        his = np.array([s + c for s, c in merged], np.int64)
        starts, counts = layout.prim_runs_for_byte_ranges(los, his)
        expected = run_algebra.normalize(
            [run for lo, hi in zip(los.tolist(), his.tolist())
             for run in layout.prim_runs_for_byte_range(lo, hi)])
        assert list(zip(starts.tolist(), counts.tolist())) == expected


class TestMapRunsToBlocks:
    def test_runs_spanning_blocks_split_correctly(self):
        memory, seg, actx = make_env()
        block_a = seg.allocate(ArrayDescriptor(INT, 16), 1)
        block_b = seg.allocate(ArrayDescriptor(INT, 16), 1)
        sub = block_a.subsegment
        assert block_b.subsegment is sub
        # one byte run covering the tail of A, the header gap, and the
        # head of B
        run = (block_a.address + 56, (block_b.address + 8) - (block_a.address + 56))
        mapped = map_runs_to_blocks(sub, [run], set(), X86_32)
        assert mapped[block_a.serial] == [(14, 2)]
        assert mapped[block_b.serial] == [(0, 2)]

    def test_skip_serials_excluded(self):
        memory, seg, actx = make_env()
        block = seg.allocate(ArrayDescriptor(INT, 16), 1)
        run = (block.address, 64)
        mapped = map_runs_to_blocks(block.subsegment, [run],
                                    {block.serial}, X86_32)
        assert mapped == {}

    def test_header_only_run_maps_nowhere(self):
        memory, seg, actx = make_env()
        block = seg.allocate(ArrayDescriptor(INT, 16), 1)
        run = (block.address - 8, 8)  # entirely inside the header
        mapped = map_runs_to_blocks(block.subsegment, [run], set(), X86_32)
        assert mapped == {}


class TestBlockLevelFullSend:
    """The per-block half of no-diff mode: mostly-modified blocks go whole."""

    def make_world_pair(self, threshold):
        from repro import ClientOptions, InProcHub, InterWeaveClient, \
            InterWeaveServer, VirtualClock

        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        hub.register_server("h", InterWeaveServer("h", sink=hub, clock=clock))
        options = ClientOptions(block_full_threshold=threshold,
                                enable_nodiff=False)
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock,
                                  options=options)
        seg = client.open_segment("h/s")
        client.wl_acquire(seg)
        acc = client.malloc(seg, ArrayDescriptor(INT, 1024), name="a")
        acc.write_values([0] * 1024)
        client.wl_release(seg)
        return client, seg, acc

    def modify_most(self, client, seg, acc):
        """Change 80% of the block in runs separated by 3-word gaps
        (too wide to splice, so the diff genuinely fragments)."""
        client.wl_acquire(seg)
        values = list(acc.read_values())
        for index in range(0, 1024):
            if index % 15 < 12:
                values[index] += 1
        acc.write_values(values)
        diff, _ = client._collect(seg)
        return diff

    def test_mostly_modified_block_sent_whole(self):
        client, seg, acc = self.make_world_pair(threshold=0.75)
        diff = self.modify_most(client, seg, acc)
        (block_diff,) = diff.block_diffs
        assert len(block_diff.runs) == 1
        assert (block_diff.runs[0].prim_start,
                block_diff.runs[0].prim_count) == (0, 1024)
        client.wl_release(seg)

    def test_disabled_threshold_keeps_runs(self):
        client, seg, acc = self.make_world_pair(threshold=None)
        diff = self.modify_most(client, seg, acc)
        (block_diff,) = diff.block_diffs
        assert len(block_diff.runs) > 1
        assert block_diff.covered_units() < 1024
        client.wl_release(seg)

    def test_lightly_modified_block_stays_diffed(self):
        client, seg, acc = self.make_world_pair(threshold=0.75)
        client.wl_acquire(seg)
        acc[10] = 99
        acc[500] = 98
        diff, _ = client._collect(seg)
        (block_diff,) = diff.block_diffs
        assert block_diff.covered_units() <= 8  # spliced single-unit runs
        client.wl_release(seg)

    def test_full_send_applies_correctly(self):
        client, seg, acc = self.make_world_pair(threshold=0.75)
        client.wl_acquire(seg)
        values = [(k * 3) % 100 + 1 if k % 15 < 12 else 0 for k in range(1024)]
        for index in range(0, 1024):
            if index % 15 < 12:
                acc[index] = values[index]
        client.wl_release(seg)
        # a second client pulls the whole-block update and must agree
        from repro import InterWeaveClient

        hub_connect = client.connector
        reader = InterWeaveClient("r", X86_32, hub_connect, clock=client.clock)
        seg_r = reader.open_segment("h/s")
        reader.rl_acquire(seg_r)
        assert list(reader.accessor_for(seg_r, "a").read_values()) == values
        reader.rl_release(seg_r)
