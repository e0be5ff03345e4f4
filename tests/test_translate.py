"""Tests for local <-> wire translation (diff collection / application)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import ALPHA, ARCHITECTURES, SPARC_V9, X86_32, X86_64
from repro.errors import WireFormatError
from repro.memory import AccessorContext, AddressSpace, Heap, SegmentHeap, make_accessor
from repro.types import (
    CHAR,
    DOUBLE,
    INT,
    SHORT,
    ArrayDescriptor,
    Field,
    PointerDescriptor,
    RecordDescriptor,
    StringDescriptor,
    flat_layout,
)
from repro.wire.translate import (
    TranslationContext,
    apply_block,
    apply_range,
    collect_block,
    collect_range,
    wire_size_of_range,
)

from tests._support import descriptors, fill_random as _fill_random


def make_env(arch=X86_32):
    mem = AddressSpace()
    heap = Heap(mem)
    seg = SegmentHeap("s", heap, arch)
    return mem, seg, AccessorContext(mem, arch)


def alloc(seg, ctx, descriptor):
    block = seg.allocate(descriptor, 1)
    return block, make_accessor(ctx, descriptor, block.address)


class TestFixedSizeCollection:
    def test_int_array_wire_is_big_endian(self):
        mem, seg, actx = make_env(X86_32)
        desc = ArrayDescriptor(INT, 3)
        block, acc = alloc(seg, actx, desc)
        acc.write_values([1, 2, 0x01020304])
        tctx = TranslationContext(mem, X86_32)
        wire = collect_block(tctx, flat_layout(desc, X86_32), block.address)
        assert wire == struct.pack(">iii", 1, 2, 0x01020304)

    def test_big_endian_arch_collects_identically(self):
        results = []
        for arch in (X86_32, SPARC_V9):
            mem, seg, actx = make_env(arch)
            desc = ArrayDescriptor(INT, 4)
            block, acc = alloc(seg, actx, desc)
            acc.write_values([10, -20, 30, -40])
            tctx = TranslationContext(mem, arch)
            results.append(collect_block(tctx, flat_layout(desc, arch), block.address))
        assert results[0] == results[1]

    def test_record_padding_not_transmitted(self):
        mem, seg, actx = make_env(X86_32)
        desc = RecordDescriptor("r", [Field("c", CHAR), Field("i", INT)])
        block, acc = alloc(seg, actx, desc)
        acc.c = "A"
        acc.i = 7
        tctx = TranslationContext(mem, X86_32)
        wire = collect_block(tctx, flat_layout(desc, X86_32), block.address)
        assert wire == b"A" + struct.pack(">i", 7)  # 5 bytes, not 8

    def test_partial_range(self):
        mem, seg, actx = make_env(X86_32)
        desc = ArrayDescriptor(INT, 10)
        block, acc = alloc(seg, actx, desc)
        acc.write_values(list(range(10)))
        tctx = TranslationContext(mem, X86_32)
        wire = collect_range(tctx, flat_layout(desc, X86_32), block.address, 3, 4)
        assert wire == struct.pack(">iiii", 3, 4, 5, 6)

    def test_array_of_structs_interleaves_in_prim_order(self):
        mem, seg, actx = make_env(X86_64)
        rec = RecordDescriptor("r", [Field("i", INT), Field("d", DOUBLE)])
        desc = ArrayDescriptor(rec, 3)
        block, acc = alloc(seg, actx, desc)
        for k in range(3):
            acc[k].i = k
            acc[k].d = k + 0.5
        tctx = TranslationContext(mem, X86_64)
        wire = collect_block(tctx, flat_layout(desc, X86_64), block.address)
        expected = b"".join(struct.pack(">id", k, k + 0.5) for k in range(3))
        assert wire == expected

    def test_strided_partial_instances(self):
        mem, seg, actx = make_env(X86_64)
        rec = RecordDescriptor("r", [Field("i", INT), Field("d", DOUBLE)])
        desc = ArrayDescriptor(rec, 4)
        block, acc = alloc(seg, actx, desc)
        for k in range(4):
            acc[k].i = k * 10
            acc[k].d = float(k)
        tctx = TranslationContext(mem, X86_64)
        # units 1..6: d0, i1, d1, i2, d2
        wire = collect_range(tctx, flat_layout(desc, X86_64), block.address, 1, 5)
        expected = (struct.pack(">d", 0.0) + struct.pack(">id", 10, 1.0)
                    + struct.pack(">id", 20, 2.0))
        assert wire == expected

    def test_out_of_range_rejected(self):
        mem, seg, actx = make_env(X86_32)
        desc = ArrayDescriptor(INT, 4)
        block, _ = alloc(seg, actx, desc)
        tctx = TranslationContext(mem, X86_32)
        with pytest.raises(WireFormatError):
            collect_range(tctx, flat_layout(desc, X86_32), block.address, 2, 3)

    def test_empty_range(self):
        mem, seg, actx = make_env(X86_32)
        desc = ArrayDescriptor(INT, 4)
        block, _ = alloc(seg, actx, desc)
        tctx = TranslationContext(mem, X86_32)
        assert collect_range(tctx, flat_layout(desc, X86_32), block.address, 0, 0) == b""


class TestCrossArchitectureTransfer:
    """The heterogeneity core: write on one machine, read on another."""

    @pytest.mark.parametrize("src_arch", [X86_32, SPARC_V9, ALPHA])
    @pytest.mark.parametrize("dst_arch", [X86_32, SPARC_V9, X86_64])
    def test_mixed_record(self, src_arch, dst_arch):
        desc = RecordDescriptor("r", [
            Field("c", CHAR), Field("s", SHORT), Field("i", INT),
            Field("d", DOUBLE), Field("name", StringDescriptor(12)),
        ])
        mem_a, seg_a, actx_a = make_env(src_arch)
        block_a, acc_a = alloc(seg_a, actx_a, desc)
        acc_a.c = "Q"
        acc_a.s = -7
        acc_a.i = 123456
        acc_a.d = 2.718281828
        acc_a.name = "astroflow"
        wire = collect_block(TranslationContext(mem_a, src_arch),
                             flat_layout(desc, src_arch), block_a.address)

        mem_b, seg_b, actx_b = make_env(dst_arch)
        block_b, acc_b = alloc(seg_b, actx_b, desc)
        apply_block(TranslationContext(mem_b, dst_arch),
                    flat_layout(desc, dst_arch), block_b.address, wire)
        assert acc_b.c == "Q"
        assert acc_b.s == -7
        assert acc_b.i == 123456
        assert acc_b.d == pytest.approx(2.718281828)
        assert acc_b.name == "astroflow"

    def test_double_array_le_to_be(self):
        desc = ArrayDescriptor(DOUBLE, 64)
        values = [k * 0.25 for k in range(64)]
        mem_a, seg_a, actx_a = make_env(ALPHA)
        block_a, acc_a = alloc(seg_a, actx_a, desc)
        acc_a.write_values(values)
        wire = collect_block(TranslationContext(mem_a, ALPHA),
                             flat_layout(desc, ALPHA), block_a.address)
        mem_b, seg_b, actx_b = make_env(SPARC_V9)
        block_b, acc_b = alloc(seg_b, actx_b, desc)
        apply_block(TranslationContext(mem_b, SPARC_V9),
                    flat_layout(desc, SPARC_V9), block_b.address, wire)
        assert list(acc_b.read_values()) == values


class TestStrings:
    def test_only_content_transmitted(self):
        mem, seg, actx = make_env(X86_32)
        desc = StringDescriptor(256)
        block, acc = alloc(seg, actx, desc)
        acc.set("hi")
        tctx = TranslationContext(mem, X86_32)
        wire = collect_block(tctx, flat_layout(desc, X86_32), block.address)
        assert wire == struct.pack(">I", 2) + b"hi"  # 6 bytes, not 256

    def test_apply_clears_old_tail(self):
        mem, seg, actx = make_env(X86_32)
        desc = StringDescriptor(32)
        block, acc = alloc(seg, actx, desc)
        acc.set("a much longer string")
        tctx = TranslationContext(mem, X86_32)
        wire = struct.pack(">I", 3) + b"new"
        apply_block(tctx, flat_layout(desc, X86_32), block.address, wire)
        assert acc.get() == "new"

    def test_oversized_wire_string_rejected(self):
        mem, seg, actx = make_env(X86_32)
        desc = StringDescriptor(4)
        block, _ = alloc(seg, actx, desc)
        tctx = TranslationContext(mem, X86_32)
        wire = struct.pack(">I", 10) + b"0123456789"
        with pytest.raises(WireFormatError):
            apply_block(tctx, flat_layout(desc, X86_32), block.address, wire)


class TestPointers:
    def test_null_pointer_is_empty_mip(self):
        mem, seg, actx = make_env(X86_32)
        desc = PointerDescriptor(INT, "int")
        block, _ = alloc(seg, actx, desc)
        tctx = TranslationContext(mem, X86_32)
        wire = collect_block(tctx, flat_layout(desc, X86_32), block.address)
        assert wire == struct.pack(">I", 0)

    def test_swizzle_hooks_invoked(self):
        mem, seg, actx = make_env(X86_32)
        desc = PointerDescriptor(INT, "int")
        target, _ = alloc(seg, actx, INT)
        block, acc = alloc(seg, actx, desc)
        acc.set(target.address)
        swizzled = []
        tctx = TranslationContext(
            mem, X86_32,
            swizzle=lambda addrs: (swizzled.extend(addrs), [b"seg#2"] * len(addrs))[1])
        wire = collect_block(tctx, flat_layout(desc, X86_32), block.address)
        assert swizzled == [target.address]
        assert wire == struct.pack(">I", 5) + b"seg#2"

    def test_unswizzle_hooks_invoked(self):
        mem, seg, actx = make_env(ALPHA)
        desc = PointerDescriptor(INT, "int")
        block, acc = alloc(seg, actx, desc)
        tctx = TranslationContext(mem, ALPHA,
                                  unswizzle=lambda mips: [0xBEEF0] * len(mips))
        wire = struct.pack(">I", 5) + b"seg#9"
        apply_block(tctx, flat_layout(desc, ALPHA), block.address, wire)
        assert acc.address_value() == 0xBEEF0

    def test_missing_hook_raises(self):
        mem, seg, actx = make_env(X86_32)
        desc = PointerDescriptor(INT, "int")
        block, acc = alloc(seg, actx, desc)
        acc.set(0x1234)
        tctx = TranslationContext(mem, X86_32)
        with pytest.raises(WireFormatError):
            collect_block(tctx, flat_layout(desc, X86_32), block.address)


class TestWireSize:
    def test_fixed(self):
        desc = RecordDescriptor("r", [Field("c", CHAR), Field("i", INT)])
        layout = flat_layout(desc, X86_32)
        assert wire_size_of_range(layout, 0, 2) == 5
        assert wire_size_of_range(layout, 1, 1) == 4

    def test_array_of_structs(self):
        rec = RecordDescriptor("r", [Field("i", INT), Field("d", DOUBLE)])
        layout = flat_layout(ArrayDescriptor(rec, 10), X86_32)
        assert wire_size_of_range(layout, 0, 20) == 120
        assert wire_size_of_range(layout, 1, 2) == 12

    def test_variable_returns_none(self):
        layout = flat_layout(StringDescriptor(8), X86_32)
        assert wire_size_of_range(layout, 0, 1) is None


class TestTruncation:
    def test_truncated_fixed_diff(self):
        mem, seg, actx = make_env(X86_32)
        desc = ArrayDescriptor(INT, 4)
        block, _ = alloc(seg, actx, desc)
        tctx = TranslationContext(mem, X86_32)
        with pytest.raises(WireFormatError):
            apply_block(tctx, flat_layout(desc, X86_32), block.address, b"\x00" * 6)

    def test_truncated_string(self):
        mem, seg, actx = make_env(X86_32)
        desc = StringDescriptor(16)
        block, _ = alloc(seg, actx, desc)
        tctx = TranslationContext(mem, X86_32)
        with pytest.raises(WireFormatError):
            apply_block(tctx, flat_layout(desc, X86_32), block.address,
                        struct.pack(">I", 8) + b"abc")


@settings(max_examples=60, deadline=None)
@given(descriptors(max_leaves=8),
       st.sampled_from(list(ARCHITECTURES.values())),
       st.sampled_from(list(ARCHITECTURES.values())),
       st.integers(0, 10**9))
def test_roundtrip_any_type_any_arch_pair(descriptor, src_arch, dst_arch, seed):
    """collect on A, apply on B, collect on B == collect on A."""
    rng = np.random.default_rng(seed)
    mem_a, seg_a, actx_a = make_env(src_arch)
    block_a, acc_a = alloc(seg_a, actx_a, descriptor)
    _fill_random(acc_a, descriptor, rng)
    wire = collect_block(TranslationContext(mem_a, src_arch),
                         flat_layout(descriptor, src_arch), block_a.address)

    mem_b, seg_b, actx_b = make_env(dst_arch)
    block_b, _ = alloc(seg_b, actx_b, descriptor)
    tctx_b = TranslationContext(mem_b, dst_arch)
    layout_b = flat_layout(descriptor, dst_arch)
    consumed = apply_block(tctx_b, layout_b, block_b.address, wire)
    assert consumed == len(wire)
    assert collect_block(tctx_b, layout_b, block_b.address) == wire


@settings(max_examples=40, deadline=None)
@given(descriptors(max_leaves=8), st.integers(0, 10**9), st.data())
def test_partial_ranges_concatenate_to_whole(descriptor, seed, data):
    """Collecting a partition of ranges equals collecting the block."""
    rng = np.random.default_rng(seed)
    mem, seg, actx = make_env(X86_32)
    block, acc = alloc(seg, actx, descriptor)
    _fill_random(acc, descriptor, rng)
    tctx = TranslationContext(mem, X86_32)
    layout = flat_layout(descriptor, X86_32)
    total = layout.prim_count
    cut_count = data.draw(st.integers(0, min(4, total - 1)))
    cuts = sorted(data.draw(st.sets(st.integers(1, total - 1),
                                    min_size=cut_count, max_size=cut_count))) \
        if total > 1 else []
    bounds = [0] + cuts + [total]
    pieces = [collect_range(tctx, layout, block.address, lo, hi - lo)
              for lo, hi in zip(bounds, bounds[1:])]
    assert b"".join(pieces) == collect_block(tctx, layout, block.address)
