"""Tests for typed accessors: ordinary reads and writes over simulated memory."""

import pytest

from repro.arch import ALPHA, SPARC_V9, X86_32
from repro.errors import BlockError
from repro.memory import AccessorContext, AddressSpace, Heap, SegmentHeap, make_accessor
from repro.types import (
    CHAR,
    DOUBLE,
    INT,
    ArrayDescriptor,
    Field,
    PointerDescriptor,
    RecordDescriptor,
    StringDescriptor,
)

from tests._support import linked_node_type


def make_env(arch=X86_32):
    mem = AddressSpace()
    heap = Heap(mem)
    seg = SegmentHeap("s", heap, arch)
    return AccessorContext(mem, arch), seg


def alloc_accessor(context, seg, descriptor):
    block = seg.allocate(descriptor, 1)
    return make_accessor(context, descriptor, block.address)


class TestPrimitiveAccess:
    @pytest.mark.parametrize("arch", [X86_32, ALPHA, SPARC_V9])
    def test_int_roundtrip(self, arch):
        context, seg = make_env(arch)
        acc = alloc_accessor(context, seg, INT)
        acc.set(-12345)
        assert acc.get() == -12345

    def test_double_roundtrip(self):
        context, seg = make_env()
        acc = alloc_accessor(context, seg, DOUBLE)
        acc.set(3.14159)
        assert acc.get() == pytest.approx(3.14159)

    def test_char_returns_str(self):
        context, seg = make_env()
        acc = alloc_accessor(context, seg, CHAR)
        acc.set("Z")
        assert acc.get() == "Z"

    def test_local_bytes_respect_endianness(self):
        context_le, seg_le = make_env(X86_32)
        context_be, seg_be = make_env(SPARC_V9)
        acc_le = alloc_accessor(context_le, seg_le, INT)
        acc_be = alloc_accessor(context_be, seg_be, INT)
        acc_le.set(0x01020304)
        acc_be.set(0x01020304)
        assert acc_le.raw_bytes() == b"\x04\x03\x02\x01"
        assert acc_be.raw_bytes() == b"\x01\x02\x03\x04"


class TestStringAccess:
    def test_roundtrip(self):
        context, seg = make_env()
        acc = alloc_accessor(context, seg, StringDescriptor(16))
        acc.set("hello")
        assert acc.get() == "hello"

    def test_overwrite_with_shorter_string(self):
        context, seg = make_env()
        acc = alloc_accessor(context, seg, StringDescriptor(16))
        acc.set("a long string!")
        acc.set("hi")
        assert acc.get() == "hi"

    def test_capacity_enforced(self):
        context, seg = make_env()
        acc = alloc_accessor(context, seg, StringDescriptor(4))
        acc.set("abc")  # 3 bytes + NUL fits
        with pytest.raises(BlockError):
            acc.set("abcd")

    def test_unicode(self):
        context, seg = make_env()
        acc = alloc_accessor(context, seg, StringDescriptor(16))
        acc.set("héllo")
        assert acc.get() == "héllo"


class TestRecordAccess:
    def test_field_read_write(self):
        context, seg = make_env()
        rec = RecordDescriptor("r", [Field("i", INT), Field("d", DOUBLE)])
        acc = alloc_accessor(context, seg, rec)
        acc.i = 7
        acc.d = 2.5
        assert acc.i == 7
        assert acc.d == 2.5

    def test_unknown_field_raises(self):
        context, seg = make_env()
        rec = RecordDescriptor("r", [Field("i", INT)])
        acc = alloc_accessor(context, seg, rec)
        with pytest.raises(Exception):
            acc.nope
        with pytest.raises(Exception):
            acc.nope = 1

    def test_nested_record(self):
        context, seg = make_env()
        inner = RecordDescriptor("inner", [Field("v", INT)])
        outer = RecordDescriptor("outer", [Field("a", inner), Field("b", inner)])
        acc = alloc_accessor(context, seg, outer)
        acc.a.v = 1
        acc.b.v = 2
        assert acc.a.v == 1
        assert acc.b.v == 2

    def test_field_names(self):
        context, seg = make_env()
        rec = RecordDescriptor("r", [Field("x", INT), Field("y", INT)])
        acc = alloc_accessor(context, seg, rec)
        assert acc.field_names() == ["x", "y"]

    def test_struct_assignment_copies_bytes(self):
        context, seg = make_env()
        rec = RecordDescriptor("r", [Field("i", INT), Field("d", DOUBLE)])
        outer = RecordDescriptor("o", [Field("a", rec), Field("b", rec)])
        acc = alloc_accessor(context, seg, outer)
        acc.a.i = 42
        acc.a.d = 1.5
        acc.b = acc.a
        assert acc.b.i == 42 and acc.b.d == 1.5


class TestArrayAccess:
    def test_index_read_write(self):
        context, seg = make_env()
        acc = alloc_accessor(context, seg, ArrayDescriptor(INT, 10))
        acc[3] = 33
        acc[-1] = 99
        assert acc[3] == 33
        assert acc[9] == 99
        assert len(acc) == 10

    def test_out_of_range(self):
        context, seg = make_env()
        acc = alloc_accessor(context, seg, ArrayDescriptor(INT, 3))
        with pytest.raises(IndexError):
            acc[3]
        with pytest.raises(IndexError):
            acc[-4] = 1

    def test_iteration(self):
        context, seg = make_env()
        acc = alloc_accessor(context, seg, ArrayDescriptor(INT, 4))
        for i in range(4):
            acc[i] = i * i
        assert list(acc) == [0, 1, 4, 9]

    def test_array_of_records(self):
        context, seg = make_env()
        rec = RecordDescriptor("r", [Field("i", INT), Field("d", DOUBLE)])
        acc = alloc_accessor(context, seg, ArrayDescriptor(rec, 5))
        acc[2].i = 20
        acc[2].d = 0.5
        acc[4].i = 40
        assert acc[2].i == 20
        assert acc[2].d == 0.5
        assert acc[4].i == 40
        assert acc[0].i == 0

    def test_bulk_write_read(self):
        context, seg = make_env()
        acc = alloc_accessor(context, seg, ArrayDescriptor(INT, 100))
        acc.write_values(list(range(100)))
        assert list(acc.read_values()) == list(range(100))
        acc.write_values([7, 8], start=50)
        assert acc[50] == 7 and acc[51] == 8

    def test_bulk_bounds_checked(self):
        context, seg = make_env()
        acc = alloc_accessor(context, seg, ArrayDescriptor(INT, 4))
        with pytest.raises(IndexError):
            acc.write_values([1, 2, 3], start=2)
        with pytest.raises(IndexError):
            acc.read_values(start=2, count=3)

    def test_bulk_requires_primitives(self):
        context, seg = make_env()
        rec = RecordDescriptor("r", [Field("i", INT)])
        acc = alloc_accessor(context, seg, ArrayDescriptor(rec, 4))
        with pytest.raises(BlockError):
            acc.write_values([1, 2])


class TestPointerAccess:
    def test_null_pointer(self):
        context, seg = make_env()
        acc = alloc_accessor(context, seg, PointerDescriptor(INT, "int"))
        assert acc.get() is None
        acc.set(None)
        assert acc.address_value() == 0

    def test_pointer_to_block(self):
        context, seg = make_env()
        target = alloc_accessor(context, seg, INT)
        target.set(55)
        ptr = alloc_accessor(context, seg, PointerDescriptor(INT, "int"))
        ptr.set(target)
        assert ptr.get().get() == 55
        assert ptr.address_value() == target.address

    def test_linked_list_walk(self):
        """Build the paper's Figure 1 linked list and walk it."""
        context, seg = make_env()
        node_t = linked_node_type(name="node_t")
        head = alloc_accessor(context, seg, node_t)
        head.key = 0
        head.next = None
        # insert three nodes at the head, as list_insert does
        for key in (1, 2, 3):
            node = alloc_accessor(context, seg, node_t)
            node.key = key
            node.next = head.next
            head.next = node
        keys = []
        p = head.next
        while p is not None:
            keys.append(p.key)
            p = p.next
        assert keys == [3, 2, 1]

    def test_set_rejects_garbage(self):
        context, seg = make_env()
        ptr = alloc_accessor(context, seg, PointerDescriptor(INT, "int"))
        with pytest.raises(BlockError):
            ptr.set("not a pointer")

    def test_pointer_size_differs_by_arch(self):
        context32, seg32 = make_env(X86_32)
        context64, seg64 = make_env(ALPHA)
        p32 = alloc_accessor(context32, seg32, PointerDescriptor(INT, "int"))
        p64 = alloc_accessor(context64, seg64, PointerDescriptor(INT, "int"))
        assert len(p32.raw_bytes()) == 4
        assert len(p64.raw_bytes()) == 8


class TestStoresTakeFaults:
    def test_accessor_write_triggers_twin_fault(self):
        context, seg = make_env()
        acc = alloc_accessor(context, seg, ArrayDescriptor(INT, 10))
        mem = context.memory
        twins = []

        def handler(space, first_page, count):
            twins.append(space.load(first_page * space.page_size,
                                    count * space.page_size))
            space.unprotect_range(first_page * space.page_size,
                                  count * space.page_size)
            return True

        mem.fault_handler = handler
        mem.protect_range(acc.address, 40)
        acc[0] = 1
        acc[1] = 2  # same page: no second fault
        assert len(twins) == 1
        assert mem.stats.write_faults == 1
