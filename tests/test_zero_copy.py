"""The zero-copy diff data plane: equivalence, lifetime, and accounting.

The wire path (single-buffer backpatched encode, memoryview decode,
``RunColumns`` end to end) must encode a diff the same whether it was
built from ``DiffRun`` objects or from columns, reject every truncation,
and never hand out a view whose backing buffer can be mutated or
recycled under it.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WireFormatError
from repro.obs.metrics import get_registry
from repro.types import INT, ArrayDescriptor, encode_descriptor
from repro.wire import RunColumns, decode_segment_diff, encode_segment_diff
from repro.wire.diff import BlockDiff, DiffRun, SegmentDiff


def _random_segment_diff(rng: random.Random) -> SegmentDiff:
    """A structurally valid diff exercising every block-diff shape."""
    block_diffs = []
    for serial in range(1, rng.randint(2, 6)):
        kind = rng.choice(["plain", "named_new", "freed", "empty"])
        runs = []
        if kind != "freed":
            cursor = 0
            for _ in range(rng.randint(0, 8)):
                cursor += rng.randint(0, 20)
                count = rng.randint(1, 16)
                data = rng.randbytes(count * 4)
                runs.append(DiffRun(cursor, count, data))
                cursor += count
        if kind == "named_new":
            block_diffs.append(BlockDiff(
                serial=serial, runs=runs, is_new=True, type_serial=7,
                name=f"block-{serial}", version=rng.randint(0, 9)))
        elif kind == "freed":
            block_diffs.append(BlockDiff(serial=serial, freed=True))
        else:
            block_diffs.append(BlockDiff(serial=serial, runs=runs,
                                         version=rng.randint(0, 9)))
    new_types = []
    if rng.random() < 0.5:
        new_types.append((7, encode_descriptor(ArrayDescriptor(INT, 4))))
    return SegmentDiff("host/seg", rng.randint(1, 5), 6, block_diffs,
                       new_types=new_types)


def _as_columns(block_diff: BlockDiff) -> BlockDiff:
    """The same block diff built from hand-assembled RunColumns."""
    runs = block_diff.runs
    columns = RunColumns(
        np.array([run.prim_start for run in runs], np.int64),
        np.array([run.prim_count for run in runs], np.int64),
        np.array([len(run.data) for run in runs], np.int64),
        b"".join(bytes(run.data) for run in runs))
    return BlockDiff(block_diff.serial, columns=columns,
                     is_new=block_diff.is_new, freed=block_diff.freed,
                     type_serial=block_diff.type_serial, name=block_diff.name,
                     version=block_diff.version)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31))
def test_diffrun_input_and_columns_input_encode_identically(seed):
    """``BlockDiff(runs=[DiffRun...])`` is normalized to columns once, at
    construction; it must encode to the same bytes as the same runs
    handed over as ``RunColumns``, and both must round-trip to an equal
    object (memoryview payloads compare by value)."""
    diff = _random_segment_diff(random.Random(seed))
    columnar = SegmentDiff(diff.segment, diff.from_version, diff.to_version,
                           [_as_columns(bd) for bd in diff.block_diffs],
                           diff.new_types)
    assert columnar == diff
    wire = encode_segment_diff(diff)
    assert encode_segment_diff(columnar) == wire
    assert decode_segment_diff(wire) == diff


def test_columnar_roundtrip_from_columns():
    """A diff built straight from RunColumns (the collect fast path)
    encodes and decodes like its run-list equivalent."""
    starts = np.array([0, 10, 40], dtype=np.int64)
    counts = np.array([2, 1, 4], dtype=np.int64)
    lens = counts * 4
    data = bytes(range(28))
    columns = RunColumns(starts, counts, lens, data)
    columnar = SegmentDiff("s", 1, 2, [BlockDiff(3, columns=columns)])
    listed = SegmentDiff("s", 1, 2, [BlockDiff(serial=3, runs=[
        DiffRun(0, 2, data[0:8]),
        DiffRun(10, 1, data[8:12]),
        DiffRun(40, 4, data[12:28])])])
    assert encode_segment_diff(columnar) == encode_segment_diff(listed)
    assert decode_segment_diff(encode_segment_diff(columnar)) == listed


def test_every_truncation_rejected():
    """Cutting the encoded diff anywhere must raise, never mis-decode."""
    diff = _random_segment_diff(random.Random(1234))
    wire = encode_segment_diff(diff)
    for cut in range(len(wire)):
        with pytest.raises(WireFormatError):
            decode_segment_diff(wire[:cut])


def test_decoded_views_alias_immutable_buffer():
    """Runs decoded from bytes are memoryview slices of that buffer
    (zero copies), and retaining them keeps the buffer alive."""
    diff = SegmentDiff("s", 1, 2, [BlockDiff(serial=1, runs=[
        DiffRun(0, 4, b"\x01\x02\x03\x04" * 4),
        DiffRun(20, 1, b"\xaa\xbb\xcc\xdd")])])
    wire = encode_segment_diff(diff)
    decoded = decode_segment_diff(wire)
    runs = list(decoded.block_diffs[0].runs)
    assert all(isinstance(run.data, memoryview) for run in runs)
    assert all(run.data.obj is wire for run in runs)
    del wire, diff  # the views must pin the encoded buffer
    assert bytes(runs[0].data) == b"\x01\x02\x03\x04" * 4
    assert bytes(runs[1].data) == b"\xaa\xbb\xcc\xdd"


def test_decode_from_mutable_buffer_materializes():
    """Decoding from a mutable buffer (a reused receive buffer) must
    copy the payloads out — later mutation cannot corrupt the diff."""
    diff = SegmentDiff("s", 1, 2, [BlockDiff(serial=1, runs=[
        DiffRun(0, 4, b"\x11\x22\x33\x44" * 4)])])
    buffer = bytearray(encode_segment_diff(diff))
    decoded = decode_segment_diff(buffer)
    buffer[:] = b"\x00" * len(buffer)  # recycle the buffer
    (run,) = list(decoded.block_diffs[0].runs)
    assert bytes(run.data) == b"\x11\x22\x33\x44" * 4


def test_materialize_detaches_and_counts_copies():
    """materialize() converts every view to owned bytes and records the
    copied bytes in wire.bytes_copied."""
    diff = SegmentDiff("s", 1, 2, [BlockDiff(serial=1, runs=[
        DiffRun(0, 8, bytes(range(32)))])])
    decoded = decode_segment_diff(encode_segment_diff(diff))
    counter = get_registry().counter("wire.bytes_copied")
    before = counter.value
    decoded.materialize()
    assert counter.value - before >= 32
    for block_diff in decoded.block_diffs:
        for run in block_diff.runs:
            assert isinstance(run.data, bytes)
    assert decoded == diff


# ---------------------------------------------------------------------------
# one representation end to end: no DiffRun objects, no copies, same counters
# ---------------------------------------------------------------------------

class _RelayWorld:
    """Origin (+ optional caching relay) on one in-process hub, a
    little-endian writer and a big-endian reader of one int array."""

    WORDS = 50_000

    def __init__(self, relay: bool):
        from repro import InProcHub, InterWeaveClient, InterWeaveServer
        from repro.arch import SPARC_V9, X86_32
        from repro.proxy import CachingProxy

        self.hub = InProcHub()
        self.origin = InterWeaveServer("h", sink=self.hub)
        if relay:
            self.hub.register_server("h-origin", self.origin)
            self.hub.register_server("h", CachingProxy(
                "h", connector=self.hub.connect, origin="h-origin",
                sink=self.hub))
        else:
            self.hub.register_server("h", self.origin)
        self.writer = InterWeaveClient("w", X86_32, self.hub.connect)
        self.reader = InterWeaveClient("r", SPARC_V9, self.hub.connect)
        self.wseg = self.writer.open_segment("h/a")
        self.writer.wl_acquire(self.wseg)
        self.array = self.writer.malloc(
            self.wseg, ArrayDescriptor(INT, self.WORDS), name="a")
        self.values = np.arange(self.WORDS, dtype=np.int64)
        self.array.write_values(self.values.tolist())
        self.writer.wl_release(self.wseg)
        self.rseg = self.reader.open_segment("h/a", create=False)
        assert self.read() == self.values.tolist()

    def write_every(self, stride: int, salt: int) -> int:
        """Rewrite every ``stride``-th word; returns how many changed."""
        self.values[::stride] += salt
        self.writer.wl_acquire(self.wseg)
        self.array.write_values(self.values.tolist())
        self.writer.wl_release(self.wseg)
        return len(self.values[::stride])

    def read(self) -> list:
        self.reader.rl_acquire(self.rseg)
        values = self.reader.accessor_for(self.rseg, "a").read_values().tolist()
        self.reader.rl_release(self.rseg)
        return values


@pytest.mark.parametrize("relay", [False, True], ids=["direct", "relay"])
def test_large_update_builds_no_diffrun_and_copies_nothing_at_apply(
        monkeypatch, relay):
    """Regression: the client's apply once called ``apply_runs`` without
    the columns, so every large update built one ``DiffRun`` per run and
    re-joined the payload.  With one representation, a 12.5k-run write
    release -> server (-> relay) -> read acquire builds no ``DiffRun``
    anywhere, and applying a diff decoded from immutable ``bytes`` does
    not move ``wire.bytes_copied``."""
    import repro.client.client as client_module

    world = _RelayWorld(relay)
    built = []
    original_init = DiffRun.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original_init(self, *args, **kwargs)

    copied = get_registry().counter("wire.bytes_copied")
    applies = []
    original_apply = client_module.apply_update

    def metered_apply(tctx, heap, registry, diff, *args, **kwargs):
        before = copied.value
        original_apply(tctx, heap, registry, diff, *args, **kwargs)
        applies.append((diff.block_diffs[0].columns.run_count,
                        copied.value - before))

    monkeypatch.setattr(DiffRun, "__init__", counting_init)
    monkeypatch.setattr(client_module, "apply_update", metered_apply)
    runs = world.write_every(4, salt=7)  # gaps of 3 words: nothing splices
    assert runs >= 10_000
    assert world.read() == world.values.tolist()
    assert built == []
    assert applies == [(runs, 0)]


#: what the cycle below moved at f650dcc, except for the codec rows.
#: ``wire.bytes_copied`` was 581 there — 100 bytes more, the payload of the
#: 25-run update that the client's apply re-joined (the bug pinned above),
#: and 58 more, the four pointer runs (two at the server, two at the
#: reader) whose payload the per-unit apply copied wholesale before
#: copying each unit out of the copy.  Then it was 423, three payload
#: copies per release (the writer's encode, the server's re-encode after
#: apply, the reply's encode of the decoded cache hit), with six encodes
#: and six decodes of 1845 bytes.  Now only the writer encodes (2 of 615
#: bytes) and only the server's release and the reader decode (4 of
#: 1230): the server stamps the release's received bytes (615 copied) and
#: splices the cached buffer into the read reply (615 more), so 141 + 615
#: + 615 bytes are copied.
RECORDED_COUNTERS = {
    "client.collect.runs": 2,
    "client.collect.nodiff_runs": 0,
    "client.collect.diff_runs": 30,
    "client.collect.rle_bytes": 141,
    "client.collect.modified_units": 30,
    "wire.bytes_copied": 1371,
    "wire.swizzle.pointers_to_mips": 2,
    "wire.swizzle.mips_to_pointers": 4,  # server's MIP store + reader
    "wire.diff.encoded": 2,
    "wire.diff.encoded_bytes": 615,
    "wire.diff.decoded": 4,
    "wire.diff.decoded_bytes": 1230,
    "wire.diff.runs_encoded": 30,
}


def test_data_plane_counters_match_recorded_values():
    """Counting a diff's runs reads ``columns.run_count``, never the
    object view — and the numbers are the ones recorded above for this
    fixed cycle (the data-plane rows as the ``DiffRun``-list
    implementation produced them at f650dcc)."""
    from repro.types import PointerDescriptor

    world = _RelayWorld(relay=False)
    world.writer.wl_acquire(world.wseg)
    pointer = world.writer.malloc(world.wseg, PointerDescriptor(INT, "int"),
                                  name="p")
    pointer.set(world.array.element_accessor(1))
    world.writer.wl_release(world.wseg)
    world.read()
    registry = get_registry()
    before = {name: registry.counter(name).value for name in RECORDED_COUNTERS}
    for stride in (2000, 20_000):  # 25 runs: gather/scatter; 3: per-run loop
        world.values[::stride] += 1
        world.writer.wl_acquire(world.wseg)
        world.array.write_values(world.values.tolist())
        pointer.set(world.array.element_accessor(stride))
        world.writer.wl_release(world.wseg)
        assert world.read() == world.values.tolist()
        target = world.reader.accessor_for(world.rseg, "p").get()
        assert target.get() == world.values[stride]
    moved = {name: registry.counter(name).value - before[name]
             for name in RECORDED_COUNTERS}
    assert moved == RECORDED_COUNTERS, moved


@pytest.mark.parametrize("records", [4, 200], ids=["per-unit", "batched"])
def test_applying_strings_and_pointers_materializes_nothing(records):
    """Regression: the per-unit apply copied a run's whole payload out
    of the receive buffer before copying every unit out of that copy —
    once per run, so a 225-run diff of 18.4 KB moved 91.8 KB.  On either
    side of the batched crossover, ``apply_runs`` over a payload view
    leaves ``wire.bytes_copied`` where it was."""
    from repro.arch import SPARC_V9
    from repro.memory import AddressSpace
    from repro.types import (Field, PointerDescriptor, RecordDescriptor,
                             StringDescriptor, flat_layout)
    from repro.wire import TranslationContext
    from repro.wire.translate import apply_runs, collect_runs

    record = RecordDescriptor("r", [Field("key", INT),
                                    Field("label", StringDescriptor(16)),
                                    Field("next", PointerDescriptor(INT, "int"))])
    layout = flat_layout(ArrayDescriptor(record, records), SPARC_V9)
    memory = AddressSpace()
    base = memory.map_region(4)
    ctx = TranslationContext(memory, SPARC_V9,
                             swizzle=lambda addresses: [b"h/s#%d" % address
                                                        for address in addresses],
                             unswizzle=lambda texts: [int(text[4:])
                                                      for text in texts])
    for index in range(records):
        at = base + index * layout.instance_size
        memory.store(at + 4, b"label-%d\x00" % index)
        memory.store(at + 24, (index + 1).to_bytes(8, "big"))
    runs = list(range(0, layout.prim_count, 6))  # one run per other record
    columns = collect_runs(ctx, layout, base, runs, [3] * len(runs))
    received = RunColumns(columns.starts, columns.counts, columns.lens,
                          memoryview(columns.data))
    copied = get_registry().counter("wire.bytes_copied")
    before = copied.value
    apply_runs(ctx, layout, base, received)
    assert copied.value == before


# -- allocator policy -----------------------------------------------------------

_MMAP_PROBE = """
import ctypes
{prelude}
libc = ctypes.CDLL(None)
class Info(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]
libc.mallinfo2.restype = Info
before = libc.mallinfo2().hblks
buffer = bytearray(4 << 20)
print(libc.mallinfo2().hblks - before)
"""


def _mmapped_chunks_for_4mib(prelude: str, **env) -> int:
    """How many mmap'd chunks a fresh interpreter spends on one 4 MiB
    buffer after running ``prelude``."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    clean = {key: value for key, value in os.environ.items()
             if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"}
    result = subprocess.run(
        [sys.executable, "-c", _MMAP_PROBE.format(prelude=prelude)],
        env=dict(clean, PYTHONPATH=src, **env),
        capture_output=True, text=True, timeout=60)
    if "mallinfo2" in result.stderr:
        pytest.skip("no glibc mallinfo2 on this platform")
    assert result.returncode == 0, result.stderr
    return int(result.stdout)


def test_importing_repro_pins_malloc_thresholds():
    """MB-scale temporaries come from the retained heap, not from a fresh
    mmap that is faulted in and unmapped again every critical section —
    unless the environment already chose a malloc policy."""
    assert _mmapped_chunks_for_4mib("") == 1  # glibc's default: mmap it
    assert _mmapped_chunks_for_4mib("import repro") == 0
    assert _mmapped_chunks_for_4mib(
        "import repro", MALLOC_MMAP_THRESHOLD_="131072") == 1
