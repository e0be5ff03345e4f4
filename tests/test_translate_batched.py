"""The batched pointer/string translation against the per-unit reference,
and the one-unit runs of dense arrays against the per-run reference.

``collect_runs`` / ``apply_runs`` send a layout with strings or pointers
through one array pass once a call covers enough units, and through the
per-unit loop below that.  The loop is the reference: on every input both
must produce the same ``RunColumns``, the same memory, the same swizzle
counts and the same accept/reject decision — and a diff the batched path
rejects must leave the block image exactly as it was.

``REPRO_DIFFERENTIAL_EXAMPLES`` raises the Hypothesis budget (CI runs the
file a second time with a large one).
"""

import os
import random
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import InProcHub, InterWeaveClient, InterWeaveServer
from repro.arch import ALPHA, MIPS32, SPARC_V9, X86_32, PrimKind
from repro.errors import BlockError, MIPError, TypeDescriptorError, WireFormatError
from repro.memory import AddressSpace
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.types import (
    CHAR,
    DOUBLE,
    HYPER,
    INT,
    SHORT,
    ArrayDescriptor,
    Field,
    PointerDescriptor,
    RecordDescriptor,
    StringDescriptor,
    flat_layout,
)
from repro.wire import TranslationContext, apply_range, translate
from repro.wire.diff import RunColumns
from tests._support import descriptors_with_pointers

EXAMPLES = int(os.environ.get("REPRO_DIFFERENTIAL_EXAMPLES", "60"))
ARCHS = [X86_32, SPARC_V9, ALPHA, MIPS32]
REJECTED = (WireFormatError, MIPError, UnicodeDecodeError)
SWIZZLES = ("wire.swizzle.pointers_to_mips", "wire.swizzle.mips_to_pointers")


@contextmanager
def forced(batched: bool):
    """Send every call the batched path can take (a layout with
    variable-size units, at least one run, no empty run) down it — or
    none, which makes the per-unit loop translate everything."""
    def choose(layout, counts):
        return bool(batched and layout.has_variable and counts.size
                    and counts.min() > 0)

    with mock.patch.object(translate, "_batched", choose):
        yield


def to_mip(address: int) -> str:
    if address % 2:
        return f"ség/{address % 3}#{address}"
    return f"other#b{address}#{address % 11}" if address % 11 else f"other#b{address}"


def to_pointer(text: str) -> int:
    try:
        return int(text.split("#")[1].lstrip("b"))
    except (IndexError, ValueError):
        raise MIPError(f"bad MIP {text!r}") from None


def context(memory, arch):
    return TranslationContext(
        memory, arch,
        swizzle=lambda addresses: [to_mip(address).encode("utf-8")
                                   for address in addresses],
        unswizzle=lambda texts: [to_pointer(text.decode("utf-8"))
                                 for text in texts],
        metrics=MetricsRegistry())


def swizzles(ctx):
    return (ctx._m_swizzled.value, ctx._m_unswizzled.value)


def filled(layout, arch, seed, unterminated=False):
    """A fresh address space holding one block of ``layout`` with seeded
    contents: strings empty, one byte, capacity - 1 or random (and, when
    asked, without a NUL — legal in memory, too long for the wire),
    pointers NULL or drawn from a small pool so texts repeat."""
    rng = random.Random(seed)
    memory = AddressSpace()
    base = memory.map_region(-(-layout.local_size // memory.page_size) + 1) + 16
    image = bytearray(rng.randbytes(layout.local_size))
    for prim in range(layout.prim_count):
        kind, capacity, local = layout.prim_to_local(prim)
        if kind is PrimKind.STRING:
            length = rng.choice([0, min(1, capacity - 1), capacity - 1,
                                 rng.randrange(capacity)])
            if unterminated and rng.random() < 0.2:
                length = capacity
            text = bytes(rng.randrange(1, 256) for _ in range(length))
            image[local:local + capacity] = text.ljust(capacity, b"\x00")
        elif kind is PrimKind.POINTER:
            value = rng.choice([0, 0, 0x1000 + 8 * rng.randrange(40),
                                0x7F000001 + 2 * rng.randrange(40)])
            image[local:local + arch.pointer_size] = arch.encode_prim(kind, value)
    memory.store(base, bytes(image))
    return memory, base


def run_sets(draw, prim_count):
    shape = draw(st.sampled_from(["none", "whole", "one", "many", "dense"]))
    if shape == "none":
        return [], []
    if shape == "whole":
        return [0], [prim_count]
    cuts = draw(st.lists(st.integers(0, prim_count), unique=True,
                         min_size=2, max_size=2 if shape == "one" else 40))
    cuts.sort()
    if shape == "dense":  # back-to-back runs, every unit covered
        return cuts[:-1], [hi - lo for lo, hi in zip(cuts, cuts[1:])]
    return cuts[0:-1:2], [hi - lo for lo, hi in zip(cuts[0::2], cuts[1::2])]


@st.composite
def cases(draw):
    inner = draw(descriptors_with_pointers(max_leaves=6))
    link = PointerDescriptor(INT, "int")
    record = RecordDescriptor("case", [
        Field("tag", StringDescriptor(draw(st.integers(1, 9)))),
        Field("inner", inner), Field("link", link)])
    descriptor = ArrayDescriptor(record, draw(st.integers(1, 40)))
    starts, counts = run_sets(draw, descriptor.prim_count)
    return (descriptor, np.array(starts, np.int64), np.array(counts, np.int64),
            draw(st.sampled_from(ARCHS)), draw(st.sampled_from(ARCHS)),
            draw(st.integers(0, 2 ** 16)))


def collect_all_ways(descriptor, arch, seed, starts, counts, unterminated=False):
    """The same collect on identical memories: reference, natural, batched."""
    layout = flat_layout(descriptor, arch)
    results = []
    for way in (forced(False), nullcontext(), forced(True)):
        memory, base = filled(layout, arch, seed, unterminated)
        ctx = context(memory, arch)
        with way:
            results.append((translate.collect_runs(ctx, layout, base, starts, counts),
                            swizzles(ctx)))
    return results


def apply_all_ways(descriptor, arch, seed, columns):
    """The same apply on identical memories; per way, (rejected, image
    afterwards, swizzle counts), plus the image before."""
    layout = flat_layout(descriptor, arch)
    outcomes = []
    for way in (forced(False), nullcontext(), forced(True)):
        memory, base = filled(layout, arch, seed)
        before = memory.load(base, layout.local_size)
        ctx = context(memory, arch)
        view = RunColumns(columns.starts, columns.counts, columns.lens,
                          memoryview(bytes(columns.data)))
        try:
            with way:
                translate.apply_runs(ctx, layout, base, view)
            rejected = False
        except REJECTED:
            rejected = True
        outcomes.append((rejected, memory.load(base, layout.local_size), swizzles(ctx)))
    return before, outcomes


@settings(max_examples=EXAMPLES, deadline=None)
@given(cases(), st.booleans())
def test_batched_translation_matches_the_per_unit_reference(case, unterminated):
    descriptor, starts, counts, writer, reader, seed = case
    (reference, counted), *others = collect_all_ways(
        descriptor, writer, seed, starts, counts, unterminated)
    for columns, count in others:
        assert columns == reference
        assert columns.lens.dtype == reference.lens.dtype
        assert count == counted
    before, ((rejected, image, counted), *others) = apply_all_ways(
        descriptor, reader, seed + 1, reference)
    assert unterminated or not rejected  # only overlong strings are refused
    for other_rejected, other_image, count in others:
        assert other_rejected == rejected
        if not rejected:
            assert other_image == image
            assert count == counted
    if rejected:
        assert others[-1][1] == before  # batched: all or nothing


def corrupt(draw, columns):
    """One plausible corruption of a diff's run set."""
    data = bytearray(columns.data)
    starts, counts, lens = (columns.starts.copy(), columns.counts.copy(),
                            columns.lens.copy())
    how = draw(st.sampled_from(["cut", "pad", "byte", "shift", "bounds", "count"]))
    if how == "cut" and data:
        cut = draw(st.integers(1, len(data)))
        del data[len(data) - cut:]
        lens[-1] = max(0, lens[-1] - cut) if draw(st.booleans()) else lens[-1]
    elif how == "pad":
        data += b"\x00" * draw(st.integers(1, 9))
        lens[-1] += draw(st.integers(0, 9))
    elif how == "byte" and data:
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    elif how == "shift" and lens.size > 1 and lens[0]:
        lens[0] -= 1
        lens[1] += 1
    elif how == "bounds":
        starts[-1] += 10 ** 6
    elif how == "count":
        counts[draw(st.integers(0, counts.size - 1))] += draw(st.sampled_from([-1, 1]))
    return RunColumns(starts, counts, lens, bytes(data))


@settings(max_examples=EXAMPLES, deadline=None)
@given(cases(), st.data())
def test_rejected_diffs_leave_the_image_untouched(case, data):
    descriptor, starts, counts, writer, reader, seed = case
    if not starts.size:
        return
    (reference, _), *_ = collect_all_ways(descriptor, writer, seed, starts, counts)
    broken = corrupt(data.draw, reference)
    before, ((rejected, image, _), _, (batched_rejected, batched_image, _)) = (
        apply_all_ways(descriptor, reader, seed + 1, broken))
    if broken.counts.min() > 0:  # else the batched path declines the call
        assert batched_rejected == rejected
        if rejected:
            assert batched_image == before
    if not rejected and not batched_rejected:
        assert batched_image == image


# -- truncation: always WireFormatError, never struct.error ----------------------

def test_a_length_header_cut_short_is_a_wire_format_error():
    descriptor = RecordDescriptor("r", [Field("i", INT),
                                        Field("s", StringDescriptor(8))])
    layout = flat_layout(descriptor, X86_32)
    memory, base = filled(layout, X86_32, seed=0)
    with pytest.raises(WireFormatError):
        apply_range(context(memory, X86_32), layout, base, 0, 2,
                    b"\x00\x00\x00\x01\x00\x00")


@pytest.mark.parametrize("batched", [False, True], ids=["per-unit", "batched"])
def test_a_diff_cut_at_any_byte_is_a_wire_format_error(batched):
    record = RecordDescriptor("r", [Field("i", INT), Field("s", StringDescriptor(8)),
                                    Field("p", PointerDescriptor(INT, "int"))])
    descriptor = ArrayDescriptor(record, 30)
    layout = flat_layout(descriptor, X86_32)
    memory, base = filled(layout, X86_32, seed=3)
    ctx = context(memory, X86_32)
    whole = translate.collect_runs(ctx, layout, base, [0], [layout.prim_count])
    before = memory.load(base, layout.local_size)
    for cut in range(whole.data_bytes):
        short = RunColumns(whole.starts, whole.counts, np.array([cut], np.int64),
                           whole.data[:cut])
        with forced(batched), pytest.raises(WireFormatError):
            translate.apply_runs(ctx, layout, base, short)
        if batched:
            assert memory.load(base, layout.local_size) == before
        else:
            with pytest.raises(WireFormatError):
                apply_range(ctx, layout, base, 0, layout.prim_count, whole.data[:cut])
    with forced(batched):
        translate.apply_runs(ctx, layout, base, whole)  # uncut, it applies


# -- the crossover ------------------------------------------------------------------

def test_the_call_size_chooses_the_path_and_fixed_layouts_never_ask():
    record = RecordDescriptor("r", [Field("i", INT), Field("s", StringDescriptor(8))])
    layout = flat_layout(ArrayDescriptor(record, 100), X86_32)
    memory, base = filled(layout, X86_32, seed=1)
    ctx = context(memory, X86_32)
    with mock.patch.object(translate, "_collect_batched",
                           wraps=translate._collect_batched) as collect, \
            mock.patch.object(translate, "_apply_batched",
                              wraps=translate._apply_batched) as apply:
        limit = translate._PER_UNIT_MAX
        small = translate.collect_runs(ctx, layout, base, [0, 100], [limit // 2] * 2)
        translate.apply_runs(ctx, layout, base, small)
        assert not collect.called and not apply.called
        large = translate.collect_runs(ctx, layout, base, [0, 100], [limit // 2, limit])
        translate.apply_runs(ctx, layout, base, large)
        assert collect.call_count == 1 and apply.call_count == 1
    ints = flat_layout(ArrayDescriptor(INT, 400), X86_32)
    memory, base = filled(ints, X86_32, seed=2)
    with mock.patch.object(translate, "_batched") as asked:
        columns = translate.collect_runs(context(memory, X86_32), ints, base,
                                         list(range(0, 400, 4)), [2] * 100)
        translate.apply_runs(context(memory, X86_32), ints, base, columns)
    assert not asked.called


# -- one-unit runs over a dense array ------------------------------------------------
#
# A diff of every n-th word of a flat array is tens of thousands of runs
# one unit long: they gather and scatter by their starts, with no run-index
# expansion.  The reference is the expansion and the per-run slice path.

DENSE_ELEMENTS = [CHAR, SHORT, INT, HYPER, DOUBLE]


def expanded(starts, lengths):
    """The run-index expansion, with no shortcut for one-unit runs."""
    ends = np.cumsum(lengths)
    return (np.repeat(starts - (ends - lengths), lengths)
            + np.arange(int(ends[-1]) if ends.size else 0))


@st.composite
def one_unit_cases(draw, min_runs=0):
    count = draw(st.integers(max(1, min_runs), 400))
    starts = np.array(sorted(draw(st.lists(
        st.integers(0, count - 1), unique=True, min_size=min_runs,
        max_size=60))), np.int64)
    return (ArrayDescriptor(draw(st.sampled_from(DENSE_ELEMENTS)), count),
            starts, np.ones_like(starts), draw(st.integers(0, 2 ** 16)))


@settings(max_examples=EXAMPLES, deadline=None)
@given(one_unit_cases(), st.sampled_from(ARCHS), st.sampled_from(ARCHS),
       st.lists(st.integers(0, 4), max_size=20))
def test_one_unit_runs_match_the_per_run_reference(case, writer, reader, lengths):
    descriptor, starts, counts, seed = case
    assert translate._ragged(starts, counts).tolist() == starts.tolist()
    lengths = np.array(lengths, np.int64)
    assert (translate._ragged(np.arange(lengths.size) * 5, lengths).tolist()
            == expanded(np.arange(lengths.size) * 5, lengths).tolist())
    layout = flat_layout(descriptor, writer)
    memory, base = filled(layout, writer, seed)
    ctx = context(memory, writer)
    columns = translate.collect_runs(ctx, layout, base, starts, counts)
    pieces = [translate.collect_range(ctx, layout, base, start, 1)
              for start in starts.tolist()]
    assert columns == RunColumns(starts, counts, np.array(
        [len(piece) for piece in pieces], np.int64), b"".join(pieces))
    layout = flat_layout(descriptor, reader)
    images = []
    for per_run in (False, True):
        memory, base = filled(layout, reader, seed + 1)
        ctx = context(memory, reader)
        if per_run:
            for index, start in enumerate(starts.tolist()):
                apply_range(ctx, layout, base, start, 1, pieces[index])
        else:
            translate.apply_runs(ctx, layout, base, RunColumns(
                starts, counts, columns.lens, memoryview(columns.data)))
        images.append(memory.load(base, layout.local_size))
    assert images[0] == images[1]


@settings(max_examples=EXAMPLES, deadline=None)
@given(one_unit_cases(min_runs=translate._PER_RUN_MAX + 1),
       st.sampled_from(ARCHS), st.sampled_from(["past", "below", "short", "long"]))
def test_bad_one_unit_runs_are_refused_and_leave_the_image_untouched(case, arch,
                                                                    how):
    descriptor, starts, counts, seed = case
    layout = flat_layout(descriptor, arch)
    memory, base = filled(layout, arch, seed)
    ctx = context(memory, arch)
    columns = translate.collect_runs(ctx, layout, base, starts, counts)
    starts, data = starts.copy(), columns.data
    if how == "past":
        starts[-1] = layout.prim_count
    elif how == "below":
        starts[0] = -1
    else:
        data = data[:-1] if how == "short" else data + b"\x00"
    before = memory.load(base, layout.local_size)
    with pytest.raises(WireFormatError):
        translate.apply_runs(ctx, layout, base,
                             RunColumns(starts, counts, columns.lens, data))
    assert memory.load(base, layout.local_size) == before


# -- the client's batch hooks ---------------------------------------------------------

def node_type():
    link = PointerDescriptor(target_name="node_t")
    node = RecordDescriptor("node_t", [
        Field("key", INT), Field("w", DOUBLE),
        Field("label", StringDescriptor(32)), Field("next", link)])
    link.target = node
    return node


class World:
    def __init__(self, writer_arch, reader_arch=None):
        self.hub = InProcHub()
        self.server = InterWeaveServer("h", sink=self.hub)
        self.hub.register_server("h", self.server)
        self.writer = InterWeaveClient("w", writer_arch, self.hub.connect,
                                       metrics=MetricsRegistry())
        if reader_arch is not None:
            self.reader = InterWeaveClient("r", reader_arch, self.hub.connect,
                                           metrics=MetricsRegistry())


@pytest.mark.parametrize("arch", ARCHS, ids=lambda arch: arch.name)
def test_client_batch_hooks_match_the_scalar_hooks(arch):
    world = World(arch)
    client = world.writer
    one, two = client.open_segment("h/one"), client.open_segment("h/two")
    client.wl_acquire(one)
    client.wl_acquire(two)
    nodes = client.malloc(one, ArrayDescriptor(node_type(), 20), name="nodes")
    lone = client.malloc(one, INT)
    wide = client.malloc(two, RecordDescriptor(
        "s32", [Field(f"f{k}", INT) for k in range(32)]), name="wide")
    many = [client.malloc(two, ArrayDescriptor(INT, 4)) for _ in range(40)]
    label = nodes[3].field_accessor("label")
    addresses = ([nodes.element_accessor(k).address for k in range(20)]
                 + [nodes[k].field_accessor("next").address for k in range(20)]
                 + [label.address, label.address + 5, lone.address, wide.address,
                    wide.field_accessor("f16").address]
                 + [block.element_accessor(k % 4).address
                    for k, block in enumerate(many)])
    scalar = [client._pointer_to_mip(address).encode("utf-8")
              for address in addresses]
    assert client._pointers_to_mips(addresses) == scalar
    assert client._index[1][2], "the batch went through the block index"
    named = [b"h/one#nodes", b"h/one#nodes#7", b"h/two#wide#16", b"h/one#01#5"]
    assert list(client._mips_to_pointers(scalar + named)) == [
        client._mip_to_pointer(text.decode("utf-8")) for text in scalar + named]
    for bad, error in [(b"h/one#1#80", TypeDescriptorError), (b"h/one", MIPError),
                       (b"h/one#1#x", MIPError), (b"h/one#999", BlockError),
                       (b"h/one#1#" + b"9" * 30, TypeDescriptorError),
                       (b"h/one#\xff", UnicodeDecodeError)]:
        with pytest.raises(error):  # each the scalar hook's own error
            client._mips_to_pointers(scalar + [bad])
        with pytest.raises(error):
            client._mip_to_pointer(bad.decode("utf-8"))
    with pytest.raises(MIPError):
        client._pointers_to_mips(addresses + [nodes.address - 4])  # a block header
    # the block set changes: nothing derived from the old one may be served
    client.free(two, many[8])
    with pytest.raises(MIPError):
        client._pointers_to_mips(addresses)
    with pytest.raises(BlockError):
        client._mips_to_pointers(scalar)
    client.malloc(two, ArrayDescriptor(INT, 4))  # same chunk, a new serial
    fresh = [client._pointer_to_mip(address).encode("utf-8")
             for address in addresses]
    assert fresh != scalar
    assert client._pointers_to_mips(addresses) == fresh
    resolved = list(addresses)
    resolved[41] = label.address  # a MIP names the unit, not the byte in it
    assert list(client._mips_to_pointers(fresh)) == resolved


def test_out_of_date_index_is_not_rebuilt_for_a_small_batch():
    client = World(X86_32).writer
    segment = client.open_segment("h/many")
    client.wl_acquire(segment)
    blocks = [client.malloc(segment, ArrayDescriptor(INT, 4)) for _ in range(100)]
    addresses = [block.element_accessor(1).address for block in blocks]
    texts = client._pointers_to_mips(addresses)
    built = client._index
    client.free(segment, blocks.pop())
    # 20 pointers do not pay for walking 99 blocks: the scalar hooks answer
    assert client._pointers_to_mips(addresses[:20]) == texts[:20]
    assert list(client._mips_to_pointers(texts[:20])) == addresses[:20]
    with pytest.raises(MIPError):
        client._pointers_to_mips(addresses[80:])
    with pytest.raises(BlockError):
        client._mips_to_pointers(texts[80:])
    assert client._index is built
    assert client._pointers_to_mips(addresses[:99]) == texts[:99]
    assert client._index is not built
    with pytest.raises(MIPError):
        client._pointers_to_mips(addresses)


def test_hidden_and_resurrected_blocks_are_never_served_from_an_old_index():
    """A transaction's deferred free unlinks a block without freeing it,
    and abort links it back: both must outdate the block index."""
    client = World(SPARC_V9).writer
    segment = client.open_segment("h/tx")
    client.wl_acquire(segment)
    blocks = [client.malloc(segment, ArrayDescriptor(INT, 4)) for _ in range(30)]
    client.wl_release(segment)
    addresses = [block.element_accessor(2).address for block in blocks]
    texts = client._pointers_to_mips(addresses)
    client.tx_begin(segment)
    client.free(segment, blocks[7])
    with pytest.raises(MIPError):  # hidden: also rebuilds the index without it
        client._pointers_to_mips(addresses)
    with pytest.raises(BlockError):
        client._mips_to_pointers(texts)
    client.tx_abort(segment)
    assert client._pointers_to_mips(addresses) == texts
    assert list(client._mips_to_pointers(texts)) == addresses
    client.tx_begin(segment)
    client.free(segment, blocks[7])
    client.tx_commit(segment)
    with pytest.raises(MIPError):
        client._pointers_to_mips(addresses)
    with pytest.raises(BlockError):
        client._mips_to_pointers(texts)


def test_pointer_into_a_closed_segment_reopens_it():
    """Closing a segment unmaps its blocks without freeing them; a later
    update carrying pointers into it must fetch it again, not be answered
    with addresses in unmapped memory."""
    world = World(X86_32, ALPHA)
    writer, reader = world.writer, world.reader
    target = writer.open_segment("h/target")
    writer.wl_acquire(target)
    ints = writer.malloc(target, ArrayDescriptor(INT, 16), name="ints")
    writer.wl_release(target)
    links = writer.open_segment("h/links")
    cached = reader.open_segment("h/links", create=False)
    array = None
    for shift in (0, 1, 2):
        writer.wl_acquire(links)
        if array is None:
            array = writer.malloc(
                links, ArrayDescriptor(PointerDescriptor(INT, "int"), 128), name="p")
        for index in range(128):  # the same 16 MIP texts every round
            array[index] = ints.element_accessor((index + shift) % 16)
        writer.wl_release(links)
        reader.rl_acquire(cached)
        opened = reader.segments["h/target"]
        block = opened.heap.block_by_name("ints")
        view = reader.accessor_for(cached, "p")
        assert [view[index].address for index in range(128)] == [
            block.address + 4 * ((index + shift) % 16) for index in range(128)]
        reader.rl_release(cached)
        if shift == 1:  # the index now holds the target's block
            reader.close_segment(opened)
            assert "h/target" not in reader.segments


# -- end to end: every architecture writes, another one reads ------------------------------

def relinked_segment(world, batched):
    """Two write sections over 100 pointer-rich records and a read of
    each; returns what the reader holds, what the server holds, and
    the swizzle counts of each party."""
    writer, reader = world.writer, world.reader
    served = [get_registry().counter(name).value for name in SWIZZLES]
    with nullcontext() if batched is None else forced(batched):
        other = writer.open_segment("h/other")
        writer.wl_acquire(other)
        ints = writer.malloc(other, ArrayDescriptor(INT, 16), name="ints")
        writer.wl_release(other)
        segment = writer.open_segment("h/list")
        cached = reader.open_segment("h/list", create=False)
        images = []
        array = None
        for salt in (0, 1):
            writer.wl_acquire(segment)
            if array is None:
                array = writer.malloc(segment, ArrayDescriptor(node_type(), 100),
                                      name="nodes")
            for index in range(salt, 100, 1 + 2 * salt):
                record = array[index]
                record.key = index + salt
                record.label = "café " * (index % 5) + str(salt)
                record.next = [None, array.element_accessor((7 * index + salt) % 100),
                               ints.element_accessor(index % 16)][(index + salt) % 3]
            writer.wl_release(segment)
            reader.rl_acquire(cached)
            block = cached.heap.block_by_name("nodes")
            images.append(reader.memory.load(block.address, block.size))
            target = reader.accessor_for(cached, "nodes")[1 + salt].next
            images.append(None if target is None else target.address - block.address)
            reader.rl_release(cached)
    state = world.server.segments["h/list"].state
    return (images, state.read_block_wire(1),
            [client.metrics.counter(name).value
             for client in (writer, reader) for name in SWIZZLES],
            [get_registry().counter(name).value - before
             for name, before in zip(SWIZZLES, served)])


@pytest.mark.parametrize("writer,reader", list(zip(ARCHS, ARCHS[1:] + ARCHS[:1])),
                         ids=lambda arch: arch.name)
def test_sections_end_the_same_on_either_path(writer, reader):
    reference = relinked_segment(World(writer, reader), batched=False)
    assert relinked_segment(World(writer, reader), batched=None) == reference
    assert relinked_segment(World(writer, reader), batched=True) == reference
