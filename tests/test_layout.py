"""Tests for flattened layouts: offset mappings and isomorphic coalescing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import ALPHA, ARCHITECTURES, PrimKind, X86_32, X86_64
from repro.errors import TypeDescriptorError
from repro.types import (
    CHAR,
    DOUBLE,
    INT,
    ArrayDescriptor,
    Field,
    PointerDescriptor,
    RecordDescriptor,
    StringDescriptor,
    flat_layout,
    iter_units,
)
from repro.types.layout import FlatLayout

from tests._support import descriptors, leaf_descriptors, linked_node_type

ARCH_LIST = list(ARCHITECTURES.values())


def brute_force_units(layout):
    """Enumerate (prim_offset -> (kind, local_offset, unit_size)) exhaustively."""
    units = {}
    for run in layout.runs:
        for i in range(run.repeat):
            for j in range(run.unit_count):
                prim = run.prim_start + i * run.prim_stride + j
                assert prim not in units, "primitive offsets overlap"
                units[prim] = (run.kind, run.unit_local_offset(i, j), run.unit_size)
    return units


class TestFlattenShapes:
    def test_primitive_is_single_run(self):
        layout = flat_layout(INT, X86_32)
        assert len(layout.runs) == 1
        run = layout.runs[0]
        assert run.kind is PrimKind.INT and run.total_units == 1

    def test_flat_array_is_single_dense_run(self):
        layout = flat_layout(ArrayDescriptor(INT, 1000), X86_32)
        assert len(layout.runs) == 1
        run = layout.runs[0]
        assert run.unit_count == 1000 and run.repeat == 1

    def test_isomorphic_coalescing_of_consecutive_ints(self):
        # the paper's example: 10 consecutive integer fields become one
        # 10-element integer array in the descriptor the library uses
        rec = RecordDescriptor("r", [Field(f"i{k}", INT) for k in range(10)])
        coalesced = flat_layout(rec, X86_32, coalesce=True)
        plain = FlatLayout(rec, X86_32, coalesce=False)
        assert len(coalesced.runs) == 1
        assert coalesced.runs[0].unit_count == 10
        assert len(plain.runs) == 10

    def test_coalescing_does_not_cross_kind_boundaries(self):
        rec = RecordDescriptor(
            "r", [Field("a", INT), Field("b", INT), Field("c", DOUBLE)])
        layout = flat_layout(rec, X86_64)
        assert len(layout.runs) == 2

    def test_coalescing_respects_padding_gaps(self):
        # char then int on x86-32: 3 bytes of padding separate them
        rec = RecordDescriptor("r", [Field("c", CHAR), Field("i", INT)])
        layout = flat_layout(rec, X86_32)
        assert len(layout.runs) == 2

    def test_array_of_records_has_run_per_field_group(self):
        rec = RecordDescriptor("r", [Field("i", INT), Field("d", DOUBLE)])
        layout = flat_layout(ArrayDescriptor(rec, 100), X86_32)
        assert len(layout.runs) == 2
        for run in layout.runs:
            assert run.repeat == 100

    def test_array_of_32_int_struct_collapses_to_one_dense_run(self):
        rec = RecordDescriptor("r", [Field(f"i{k}", INT) for k in range(32)])
        layout = flat_layout(ArrayDescriptor(rec, 50), X86_32)
        assert len(layout.runs) == 1
        assert layout.runs[0].total_units == 1600

    def test_nested_array_merges(self):
        layout = flat_layout(ArrayDescriptor(ArrayDescriptor(INT, 4), 5), X86_32)
        assert len(layout.runs) == 1
        assert layout.runs[0].total_units == 20

    def test_uniformity_detection(self):
        rec = RecordDescriptor("r", [Field("i", INT), Field("d", DOUBLE)])
        arr = flat_layout(ArrayDescriptor(rec, 10), X86_32)
        assert arr.uniform and arr.repeat == 10
        plain = flat_layout(rec, X86_32)
        assert plain.uniform and plain.repeat == 1

    def test_non_tiling_geometry_not_marked_uniform(self):
        inner = RecordDescriptor("ab", [Field("a", INT), Field("b", DOUBLE)])
        rec = RecordDescriptor(
            "r",
            [Field("x", ArrayDescriptor(inner, 10)), Field("y", ArrayDescriptor(inner, 10))])
        layout = flat_layout(rec, X86_64)
        # two array fields share run geometry but do not tile the record
        assert not layout.uniform
        # mappings must still be correct
        units = brute_force_units(layout)
        assert len(units) == layout.prim_count

    def test_variable_flag(self):
        assert flat_layout(StringDescriptor(8), X86_32).has_variable
        assert flat_layout(PointerDescriptor(INT, "int"), X86_32).has_variable
        assert not flat_layout(ArrayDescriptor(INT, 4), X86_32).has_variable

    def test_instance_wire_size(self):
        rec = RecordDescriptor("r", [Field("i", INT), Field("d", DOUBLE)])
        layout = flat_layout(ArrayDescriptor(rec, 10), X86_32)
        assert layout.instance_wire_size == 12  # 4 + 8, no padding on the wire
        assert layout.run_instance_wire_offset(0) == 0
        assert layout.run_instance_wire_offset(1) == 4

    def test_recursive_type_flattens(self):
        node = linked_node_type()
        layout = flat_layout(node, ALPHA)
        assert layout.prim_count == 2
        kinds = sorted(run.kind.value for run in layout.runs)
        assert kinds == ["int", "pointer"]


class TestOffsetMappings:
    def test_prim_to_local_simple_array(self):
        layout = flat_layout(ArrayDescriptor(INT, 10), X86_32)
        kind, cap, off = layout.prim_to_local(3)
        assert kind is PrimKind.INT and off == 12

    def test_prim_to_local_struct_with_padding(self):
        rec = RecordDescriptor("r", [Field("c", CHAR), Field("i", INT)])
        layout = flat_layout(rec, X86_32)
        assert layout.prim_to_local(0) == (PrimKind.CHAR, 0, 0)
        assert layout.prim_to_local(1) == (PrimKind.INT, 0, 4)

    def test_prim_to_local_out_of_range(self):
        layout = flat_layout(INT, X86_32)
        with pytest.raises(TypeDescriptorError):
            layout.prim_to_local(1)
        with pytest.raises(TypeDescriptorError):
            layout.prim_to_local(-1)

    def test_local_to_prim_hits_units(self):
        rec = RecordDescriptor("r", [Field("c", CHAR), Field("i", INT)])
        layout = flat_layout(rec, X86_32)
        assert layout.local_to_prim(0)[0] == 0
        assert layout.local_to_prim(4)[0] == 1
        assert layout.local_to_prim(6)[0] == 1  # interior byte of the int

    def test_local_to_prim_padding_returns_none(self):
        rec = RecordDescriptor("r", [Field("c", CHAR), Field("i", INT)])
        layout = flat_layout(rec, X86_32)
        assert layout.local_to_prim(2) is None  # padding byte

    def test_byte_range_whole_block_fast_path(self):
        layout = flat_layout(ArrayDescriptor(INT, 100), X86_32)
        assert layout.prim_runs_for_byte_range(0, 400) == [(0, 100)]

    def test_byte_range_partial(self):
        layout = flat_layout(ArrayDescriptor(INT, 100), X86_32)
        # bytes [6, 14) touch ints 1, 2, 3
        assert layout.prim_runs_for_byte_range(6, 14) == [(1, 3)]

    def test_byte_range_in_array_of_structs_merges_across_instances(self):
        rec = RecordDescriptor("r", [Field("i", INT), Field("d", DOUBLE)])
        layout = flat_layout(ArrayDescriptor(rec, 100), X86_64)
        # full instances 2..4 -> prims [4, 10)
        assert layout.prim_runs_for_byte_range(2 * 16, 5 * 16) == [(4, 6)]

    def test_byte_range_partial_instances(self):
        rec = RecordDescriptor("r", [Field("i", INT), Field("d", DOUBLE)])
        layout = flat_layout(ArrayDescriptor(rec, 100), X86_64)
        # last 8 bytes of instance 1 (its double) through first 4 of
        # instance 2 (its int): prims 3 and 4
        assert layout.prim_runs_for_byte_range(24, 36) == [(3, 2)]

    def test_empty_and_clipped_ranges(self):
        layout = flat_layout(ArrayDescriptor(INT, 4), X86_32)
        assert layout.prim_runs_for_byte_range(8, 8) == []
        assert layout.prim_runs_for_byte_range(-10, 2) == [(0, 1)]
        assert layout.prim_runs_for_byte_range(14, 99) == [(3, 1)]

    def test_iter_units_order_and_coverage(self):
        rec = RecordDescriptor("r", [Field("i", INT), Field("d", DOUBLE)])
        layout = flat_layout(ArrayDescriptor(rec, 3), X86_64)
        units = list(iter_units(layout, 1, 5))
        assert [u[0] for u in units] == [1, 2, 3, 4]


@settings(max_examples=120, deadline=None)
@given(descriptors(), st.sampled_from(ARCH_LIST), st.booleans())
def test_layout_invariants(descriptor, arch, coalesce):
    """Every unit exists exactly once, fits in the local size, mappings invert."""
    layout = FlatLayout(descriptor, arch, coalesce)
    units = brute_force_units(layout)
    assert len(units) == layout.prim_count == descriptor.prim_count
    assert set(units) == set(range(layout.prim_count))
    occupied = set()
    for prim, (kind, local, size) in units.items():
        assert 0 <= local and local + size <= layout.local_size
        span = set(range(local, local + size))
        assert not (span & occupied), "units overlap in local memory"
        occupied |= span
        # mapping functions agree with brute force
        mapped_kind, _, mapped_local = layout.prim_to_local(prim)
        assert (mapped_kind, mapped_local) == (kind, local)
        back = layout.local_to_prim(local)
        assert back is not None and back[0] == prim
    # padding bytes map to None
    for byte in set(range(layout.local_size)) - occupied:
        assert layout.local_to_prim(byte) is None


@settings(max_examples=80, deadline=None)
@given(descriptors(), st.sampled_from([X86_32, ALPHA]),
       st.integers(0, 200), st.integers(0, 200))
def test_byte_range_matches_brute_force(descriptor, arch, a, b):
    layout = FlatLayout(descriptor, arch, True)
    lo, hi = sorted((a % (layout.local_size + 1), b % (layout.local_size + 1)))
    expected = set()
    if lo < hi:
        for run in layout.runs:
            for i in range(run.repeat):
                for j in range(run.unit_count):
                    start = run.unit_local_offset(i, j)
                    if start < hi and start + run.unit_size > lo:
                        expected.add(run.prim_start + i * run.prim_stride + j)
    got = set()
    for start, count in layout.prim_runs_for_byte_range(lo, hi):
        got.update(range(start, start + count))
    assert got == expected


@settings(max_examples=80, deadline=None)
@given(descriptors(), st.sampled_from(ARCH_LIST), st.booleans())
def test_array_mappings_match_the_scalar_ones(descriptor, arch, coalesce):
    """locate_units / units_at are prim_to_local / local_to_prim over
    arrays, including the answers for offsets outside the block."""
    import numpy as np

    layout = FlatLayout(descriptor, arch, coalesce)
    prims = np.arange(-2, layout.prim_count + 2, dtype=np.int64)
    which, local = layout.locate_units(prims)
    for prim, run_index, offset in zip(prims.tolist(), which.tolist(), local.tolist()):
        if 0 <= prim < layout.prim_count:
            kind, capacity, expected = layout.prim_to_local(prim)
            run = layout.runs[run_index]
            assert (run.kind, run.capacity, offset) == (kind, capacity, expected)
        else:
            assert run_index == -1
    offsets = np.arange(-2, layout.local_size + 2, dtype=np.int64)
    for offset, prim in zip(offsets.tolist(), layout.units_at(offsets).tolist()):
        inside = 0 <= offset < layout.local_size
        hit = layout.local_to_prim(offset) if inside else None
        assert prim == (hit[0] if hit is not None else -1)


@settings(max_examples=60, deadline=None)
@given(st.lists(leaf_descriptors(), min_size=2, max_size=5),
       st.sampled_from(ARCH_LIST), st.integers(12, 30), st.data())
def test_many_byte_ranges_over_instances_match_the_scalar_mapper(
        fields, arch, count, data):
    """Above a few dozen ranges a uniform layout maps byte ranges to
    unit runs in one array pass; it must agree with the scalar mapper
    range by range (padding, partial and whole instances included)."""
    import numpy as np

    from repro.types.layout import _SCALAR_RANGES_MAX
    from repro.util import runs as run_algebra

    element = RecordDescriptor("e", [Field(f"f{index}", field)
                                     for index, field in enumerate(fields)])
    layout = FlatLayout(ArrayDescriptor(element, count), arch)
    wanted = 2 * (_SCALAR_RANGES_MAX + 1)
    cuts = sorted(data.draw(st.lists(
        st.integers(0, layout.local_size), unique=True,
        min_size=min(wanted, layout.local_size + 1) // 2 * 2,
        max_size=min(4 * wanted, layout.local_size + 1) // 2 * 2)))
    cuts = cuts[:len(cuts) // 2 * 2]
    los, his = np.array(cuts[0::2], np.int64), np.array(cuts[1::2], np.int64)
    starts, counts = layout.prim_runs_for_byte_ranges(los, his)
    expected = run_algebra.normalize(
        [run for lo, hi in zip(cuts[0::2], cuts[1::2])
         for run in layout.prim_runs_for_byte_range(lo, hi)])
    assert list(zip(starts.tolist(), counts.tolist())) == expected
