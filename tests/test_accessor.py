"""Tests for typed accessors: ordinary reads and writes over simulated memory.

``REPRO_DIFFERENTIAL_EXAMPLES`` raises the Hypothesis budget of
``TestPlanDifferential`` (CI runs it with 1000).
"""

import copy
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import InProcHub, InterWeaveClient, InterWeaveServer, VirtualClock
from repro.arch import ALPHA, MIPS32, SPARC_V9, X86_32, PrimKind
from repro.errors import BlockError, TypeDescriptorError
from repro.memory import AccessorContext, AddressSpace, Heap, SegmentHeap, make_accessor
from repro.types import (
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    ArrayDescriptor,
    Field,
    PointerDescriptor,
    PrimitiveDescriptor,
    RecordDescriptor,
    StringDescriptor,
    flat_layout,
)

from tests._support import descriptors_with_pointers, linked_node_type


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
        for touch in (lambda: acc.nope, lambda: setattr(acc, "nope", 1),
                      lambda: acc.field_accessor("nope")):
            with pytest.raises(TypeDescriptorError,
                               match="record 'r' has no field 'nope'") as refused:
                touch()
            assert isinstance(refused.value, AttributeError)
        assert not hasattr(acc, "nope")
        assert getattr(acc, "nope", None) is None
        assert acc.raw_bytes() == bytes(4)

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


    @pytest.mark.parametrize("descriptor", [
        INT, StringDescriptor(8), PointerDescriptor(INT, "int"),
        ArrayDescriptor(INT, 3), linked_node_type(name="copied_t")], ids=repr)
    def test_copy_is_an_accessor_for_the_same_value(self, descriptor):
        context, seg = make_env()
        acc = alloc_accessor(context, seg, descriptor)
        twin = copy.copy(acc)
        assert twin is not acc and type(twin) is type(acc) and twin == acc
        assert twin.context is context and twin.descriptor is descriptor
        if isinstance(descriptor, RecordDescriptor):
            twin.key = 9
            assert acc.key == 9


#: (field, value the field's kind cannot hold, what the message names)
REFUSED_VALUES = [
    ("k", 2 ** 40, "as int"), ("k", 1.5, "as int"), ("k", "7", "as int"),
    ("k", None, "as int"), ("f", 1e300, "as float"), ("d", "2.5", "as double"),
    ("c", "ab", "as char"), ("c", 256, "as char"),
    ("label", 5, "as string<8>"), ("label", b"raw", "as string<8>"),
    ("label", "12345678", "exceeds capacity 8"),
    ("next", "not a pointer", "as pointer"), ("next", -1, "as pointer"),
    ("next", 2 ** 32, "as pointer"), ("next", 1.5, "as pointer"),
    ("inner", 3, "to aggregate"), ("vec", [1, 2], "to aggregate"),
]


class TestRefusedStores:
    """A value a field cannot hold is refused with a ``BlockError`` that
    names the field's kind and the value, and stores nothing."""

    def record(self):
        context, seg = make_env()
        inner = RecordDescriptor("inner", [Field("v", INT)])
        rec = RecordDescriptor("r", [
            Field("k", INT), Field("f", FLOAT), Field("d", DOUBLE),
            Field("c", CHAR), Field("label", StringDescriptor(8)),
            Field("next", PointerDescriptor(INT, "int")), Field("inner", inner),
            Field("vec", ArrayDescriptor(INT, 2))])
        acc = alloc_accessor(context, seg, rec)
        acc.k, acc.f, acc.d, acc.c, acc.label = 7, 0.5, 2.5, "z", "keep"
        acc.next, acc.inner.v, acc.vec[1] = 0x1234, 3, 4
        return acc

    @pytest.mark.parametrize("field, value, names", REFUSED_VALUES)
    def test_field_store(self, field, value, names):
        acc = self.record()
        before = acc.raw_bytes()
        with pytest.raises(BlockError, match=names) as refused:
            setattr(acc, field, value)
        if "exceeds" not in names:
            assert repr(value) in str(refused.value)
        scalar = acc.field_accessor(field)
        if hasattr(scalar, "set"):
            with pytest.raises(BlockError, match=names):
                scalar.set(value)
        assert acc.raw_bytes() == before

    @pytest.mark.parametrize("value", [2 ** 40, 1.5, "7"])
    def test_element_store(self, value):
        context, seg = make_env()
        acc = alloc_accessor(context, seg, ArrayDescriptor(INT, 4))
        acc.write_values([1, 2, 3, 4])
        with pytest.raises(BlockError, match="as int"):
            acc[2] = value
        assert list(acc.read_values()) == [1, 2, 3, 4]

    @pytest.mark.parametrize("index", [slice(0, 2), "x", 1.5, None])
    def test_index_must_be_an_integer(self, index):
        context, seg = make_env()
        acc = alloc_accessor(context, seg, ArrayDescriptor(INT, 4))
        acc.write_values([1, 2, 3, 4])
        for touch in (lambda: acc[index], lambda: acc.element_accessor(index),
                      lambda: acc.__setitem__(index, 9)):
            with pytest.raises(TypeError, match="array index must be an integer"):
                touch()
        assert list(acc.read_values()) == [1, 2, 3, 4]

    def test_out_of_range_store_lands_nothing(self):
        context, seg = make_env()
        acc = alloc_accessor(context, seg, ArrayDescriptor(INT, 4))
        for index in (4, -5):
            with pytest.raises(IndexError, match=rf"array index {index} out of range \[0, 4\)"):
                acc[index] = 9
        assert acc.raw_bytes() == bytes(16)


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

    def test_only_protected_pages_reach_the_handler(self):
        """The store path looks at the page flags itself and enters the
        fault machinery only for a protected page."""
        context, seg = make_env()
        acc = alloc_accessor(context, seg, ArrayDescriptor(INT, 2048))  # 2+ pages
        mem = context.memory
        calls = []

        def handler(space, first_page, count):
            calls.append((first_page, count))
            space.unprotect_range(first_page * space.page_size,
                                  count * space.page_size)
            return True

        mem.fault_handler = handler
        mem.protect_range(acc.address, 8192)
        first = acc.address // mem.page_size
        acc[0] = 1
        assert calls == [(first, 1)]            # protected: once
        for index in range(1, 64):
            acc[index] = index
        assert calls == [(first, 1)]            # already twinned: never
        acc[1500] = 2                           # the next page: once more
        assert calls == [(first, 1), (first + 1, 1)]
        assert mem.stats.write_faults == 2

    def test_scripted_section_faults_as_many_pages_as_before(self):
        """256 of 2048 pointer records rewritten and relinked, in four
        clusters: 7 pages faulted and twinned, as counted before stores
        went through access plans."""
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        hub.register_server("host", InterWeaveServer("host", sink=hub, clock=clock))
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        link = PointerDescriptor(target_name="node_t")
        node = RecordDescriptor("node_t", [
            Field("key", INT), Field("w", DOUBLE),
            Field("label", StringDescriptor(32)), Field("next", link)])
        link.target = node
        seg = client.open_segment("host/nodes")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(node, 2048), name="nodes")
        client.wl_release(seg)
        client.wl_acquire(seg)
        faults, twins = client.memory.stats.write_faults, client.stats.twins_created
        touched = [index for index in range(2048) if (index // 64) % 3 == 0][:256]
        for index in touched:
            record = array[index]
            record.key = index
            record.label = f"label-{index}"
            record.next = array.element_accessor(index * 7 % 2048)
        assert client.memory.stats.write_faults - faults == 7
        assert client.stats.twins_created - twins == 7
        client.wl_release(seg)
        assert array[192].next.address == array.element_accessor(192 * 7).address


# -- the plan against the translator's layout ------------------------------------

EXAMPLES = int(os.environ.get("REPRO_DIFFERENTIAL_EXAMPLES", "100"))
ARCHS = [X86_32, SPARC_V9, ALPHA, MIPS32]
_INT_BITS = {PrimKind.SHORT: 16, PrimKind.INT: 32, PrimKind.HYPER: 64}


@st.composite
def plan_cases(draw):
    """A self-referential record around a random nested type, in an array."""
    link = PointerDescriptor(target_name="plan_node")
    node = RecordDescriptor("plan_node", [
        Field("tag", StringDescriptor(draw(st.integers(1, 9)))),
        Field("inner", draw(descriptors_with_pointers(max_leaves=6))),
        Field("next", link)])
    link.target = node
    return (ArrayDescriptor(node, draw(st.integers(1, 4))),
            draw(st.sampled_from(ARCHS)), draw(st.integers(0, 2 ** 16)))


def leaves(accessor):
    """The scalar accessors under ``accessor``, in primitive-offset order,
    each with a setter that goes through its parent's unwrapping store."""
    descriptor = accessor.descriptor
    if isinstance(descriptor, RecordDescriptor):
        for name in accessor.field_names():
            child = accessor.field_accessor(name)
            if hasattr(child, "set"):
                yield child, (lambda value, a=accessor, n=name: setattr(a, n, value),
                              lambda a=accessor, n=name: getattr(a, n))
            else:
                yield from leaves(child)
    elif isinstance(descriptor, ArrayDescriptor):
        for index in range(len(accessor)):
            child = accessor.element_accessor(index)
            if hasattr(child, "set"):
                yield child, (lambda value, a=accessor, i=index: a.__setitem__(i, value),
                              lambda a=accessor, i=index: a[i])
            else:
                yield from leaves(child)


def value_for(rng, leaf, targets):
    """A value of the leaf's kind and the local bytes it must become."""
    descriptor, arch = leaf.descriptor, leaf.context.arch
    if isinstance(descriptor, StringDescriptor):
        text = "".join(rng.choice("aé€z") for _ in range(rng.randrange(descriptor.capacity)))
        while len(text.encode("utf-8")) >= descriptor.capacity:
            text = text[:-1]
        return text, text.encode("utf-8").ljust(descriptor.capacity, b"\0")
    if isinstance(descriptor, PointerDescriptor):
        target = rng.choice([None, rng.choice(targets), rng.choice(targets).address])
        address = getattr(target, "address", target) or 0
        return target, arch.encode_prim(PrimKind.POINTER, address)
    kind = descriptor.kind
    if kind is PrimKind.CHAR:
        value = chr(rng.randrange(256))
    elif kind is PrimKind.FLOAT:
        value = rng.randrange(-2 ** 20, 2 ** 20) / 64
    elif kind is PrimKind.DOUBLE:
        value = rng.uniform(-1e12, 1e12)
    else:
        bits = _INT_BITS[kind]
        value = rng.randrange(-2 ** (bits - 1), 2 ** (bits - 1))
    return value, arch.encode_prim(kind, value)


class TestPlanDifferential:
    """Accessors and the translator read one layout: every scalar an
    accessor reaches sits where ``flat_layout`` (what collect and apply
    translate by) says its primitive unit is, and holds the bytes
    ``Architecture.encode_prim`` gives."""

    @settings(max_examples=EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plan_cases())
    def test_addresses_stores_and_bytes(self, case):
        descriptor, arch, seed = case
        rng = random.Random(seed)
        layout = flat_layout(descriptor, arch)
        memory = AddressSpace()
        base = memory.map_region(-(-layout.local_size // memory.page_size))
        root = make_accessor(AccessorContext(memory, arch), descriptor, base)
        found = list(leaves(root))
        assert len(found) == layout.prim_count == descriptor.prim_count
        for prim, (leaf, _) in enumerate(found):
            kind, capacity, local = layout.prim_to_local(prim)
            assert leaf.address == base + local
            if isinstance(leaf.descriptor, PrimitiveDescriptor):
                assert leaf.descriptor.kind is kind
            else:
                assert kind is (PrimKind.STRING if capacity else PrimKind.POINTER)
                assert capacity == getattr(leaf.descriptor, "capacity", 0)
        records = [root.element_accessor(index) for index in range(len(root))]
        for leaf, (store, load) in found:
            value, encoded = value_for(rng, leaf, records)
            for write, read in ((store, leaf.get), (leaf.set, load)):
                write(value)
                assert leaf.raw_bytes() == encoded
                got = read()
                if isinstance(leaf.descriptor, PointerDescriptor):
                    expected = getattr(value, "address", value) or None
                    assert (got.address if got else None) == expected
                    if isinstance(leaf.descriptor.target, RecordDescriptor):
                        assert got is None or got.descriptor is leaf.descriptor.target
                else:
                    assert got == value
                leaf.set(None if isinstance(leaf.descriptor, PointerDescriptor)
                         else "" if isinstance(leaf.descriptor, StringDescriptor)
                         else "\0" if leaf.descriptor.kind is PrimKind.CHAR else 0)
        # every store landed inside its own unit: the last sweep zeroed all
        assert root.raw_bytes() == bytes(layout.local_size)
