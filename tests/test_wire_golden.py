"""Golden-bytes compatibility: the diff codec's output is pinned.

``GOLDEN_HEX`` was generated at commit ``f650dcc`` — the last one with
the ``DiffRun``-list representation, the rows encoder and the legacy data
plane toggle — by running, with ``PYTHONPATH=src``::

    import struct
    from repro.types import (INT, ArrayDescriptor, Field, PointerDescriptor,
                             RecordDescriptor, StringDescriptor, TypeRegistry)
    from repro.wire import BlockDiff, DiffRun, SegmentDiff, encode_segment_diff

    <ints, text and golden_diffs exactly as defined below>

    for name, diff in golden_diffs().items():
        print(f'    "{name}": "{encode_segment_diff(diff).hex()}",')

Bytes on the wire, in the WAL and in the DiffCache are the same encoded
segment diff, so pinning ``encode_segment_diff`` pins all three; the WAL
replay below proves the pinned bytes still mean the same segment.
"""

import struct

import pytest

from repro import InterWeaveServer
from repro.server.wal import WriteAheadLog
from repro.types import (INT, ArrayDescriptor, Field, PointerDescriptor,
                         RecordDescriptor, StringDescriptor, TypeRegistry)
from repro.wire import (BlockDiff, DiffRun, SegmentDiff, decode_segment_diff,
                        encode_segment_diff)

GOLDEN_HEX = {
    "records": (
        "0000000b686f73742f676f6c64656e0000000000000001000000020000000100"
        "00000f000000020400000001000000a001030000000200000032000000040500"
        "02000372656300056c6162656c0000000100046e65787400000002020000000c"
        "03000000030003696e7401030000000300000001050000000100000001000000"
        "04696e74730000028c0000000100000000000000a00000028000000000000000"
        "0100000002000000030000000400000005000000060000000700000008000000"
        "090000000a0000000b0000000c0000000d0000000e0000000f00000010000000"
        "1100000012000000130000001400000015000000160000001700000018000000"
        "190000001a0000001b0000001c0000001d0000001e0000001f00000020000000"
        "2100000022000000230000002400000025000000260000002700000028000000"
        "290000002a0000002b0000002c0000002d0000002e0000002f00000030000000"
        "3100000032000000330000003400000035000000360000003700000038000000"
        "390000003a0000003b0000003c0000003d0000003e0000003f00000040000000"
        "4100000042000000430000004400000045000000460000004700000048000000"
        "490000004a0000004b0000004c0000004d0000004e0000004f00000050000000"
        "5100000052000000530000005400000055000000560000005700000058000000"
        "590000005a0000005b0000005c0000005d0000005e0000005f00000060000000"
        "6100000062000000630000006400000065000000660000006700000068000000"
        "690000006a0000006b0000006c0000006d0000006e0000006f00000070000000"
        "7100000072000000730000007400000075000000760000007700000078000000"
        "790000007a0000007b0000007c0000007d0000007e0000007f00000080000000"
        "8100000082000000830000008400000085000000860000008700000088000000"
        "890000008a0000008b0000008c0000008d0000008e0000008f00000090000000"
        "9100000092000000930000009400000095000000960000009700000098000000"
        "990000009a0000009b0000009c0000009d0000009e0000009f00000002050000"
        "00010000000200000004686561640000002b0000000100000000000000020000"
        "001f00000005636166c3a900000012686f73742f676f6c64656e23696e747323"
        "3700000003010000000100000002000000200000000200000000000000010000"
        "00040000000100000001000000040000000000000000"
    ),
    "one_run": (
        "0000000b686f73742f676f6c64656e0000000100000002000000000000000100"
        "00000100000000020000001000000001000000050000000100000004fffffff9"
    ),
    "scattered": (
        "0000000b686f73742f676f6c64656e0000000200000003000000000000000100"
        "0000010000000003000002040000001a00000000000000010000000400000006"
        "00000002000000080000000c000000030000000c000000120000000100000004"
        "0000001800000002000000080000001e000000030000000c0000002400000001"
        "000000040000002a000000020000000800000030000000030000000c00000036"
        "00000001000000040000003c000000020000000800000042000000030000000c"
        "0000004800000001000000040000004e00000002000000080000005400000003"
        "0000000c0000005a000000010000000400000060000000020000000800000066"
        "000000030000000c0000006c0000000100000004000000720000000200000008"
        "00000078000000030000000c0000007e00000001000000040000008400000002"
        "000000080000008a000000030000000c00000090000000010000000400000096"
        "000000020000000800000000000003e8000003e9000007d0000007d1000007d2"
        "00000bb800000fa000000fa100001388000013890000138a0000177000001b58"
        "00001b5900001f4000001f4100001f4200002328000027100000271100002af8"
        "00002af900002afa00002ee0000032c8000032c9000036b0000036b1000036b2"
        "00003a9800003e8000003e8100004268000042690000426a0000465000004a38"
        "00004a3900004e2000004e2100004e2200005208000055f0000055f1000059d8"
        "000059d9000059da00005dc0000061a8000061a9"
    ),
    "tombstone": (
        "0000000b686f73742f676f6c64656e0000000300000004000000000000000100"
        "00000302000000040000000000000000"
    ),
}


def ints(*values):
    return struct.pack(f">{len(values)}i", *values)

def text(value):
    return struct.pack(">I", len(value)) + value

def golden_diffs():
    registry = TypeRegistry()
    array = registry.register(ArrayDescriptor(INT, 160))
    record = registry.register(RecordDescriptor("rec", [
        Field("label", StringDescriptor(12)),
        Field("next", PointerDescriptor(INT, "int"))]))
    types = [(array, registry.encoded(array)), (record, registry.encoded(record))]
    return {
        "records": SegmentDiff("host/golden", 0, 1, [
            BlockDiff(serial=1, is_new=True, type_serial=array, name="ints",
                      runs=[DiffRun(0, 160, ints(*range(160)))], version=1),
            BlockDiff(serial=2, is_new=True, type_serial=record, name="head",
                      runs=[DiffRun(0, 2, text(b"caf\xc3\xa9") + text(b"host/golden#ints#7"))],
                      version=1),
            BlockDiff(serial=3, is_new=True, type_serial=record,
                      runs=[DiffRun(0, 1, text(b"")), DiffRun(1, 1, text(b""))],
                      version=1)],
            new_types=types),
        "one_run": SegmentDiff("host/golden", 1, 2, [
            BlockDiff(serial=1, runs=[DiffRun(5, 1, ints(-7))], version=2)]),
        "scattered": SegmentDiff("host/golden", 2, 3, [
            BlockDiff(serial=1, version=3, runs=[
                DiffRun(6 * k, 1 + k % 3, ints(*range(1000 * k, 1000 * k + 1 + k % 3)))
                for k in range(26)])]),
        "tombstone": SegmentDiff("host/golden", 3, 4, [
            BlockDiff(serial=3, freed=True, version=4)]),
    }


@pytest.mark.parametrize("name", list(GOLDEN_HEX))
def test_encoding_is_byte_identical(name):
    golden = bytes.fromhex(GOLDEN_HEX[name])
    diff = golden_diffs()[name]
    assert encode_segment_diff(diff) == golden
    decoded = decode_segment_diff(golden)
    assert decoded == diff
    assert encode_segment_diff(decoded) == golden  # a fixed point


def test_wal_built_from_golden_bytes_replays(tmp_path):
    """A WAL holding the pinned bytes recovers to the same version and
    content the diffs describe."""
    wal = WriteAheadLog(str(tmp_path), fsync=False)
    for version, name in enumerate(GOLDEN_HEX):
        wal.append("host/golden", version, version + 1,
                   bytes.fromhex(GOLDEN_HEX[name]), timestamp=float(version))
    wal.close()

    server = InterWeaveServer("host", wal_dir=str(tmp_path), wal_fsync=False)
    try:
        assert server.recover_segments() == {"host/golden": (4, 0)}
        state = server.segments["host/golden"].state
    finally:
        server.close()
    assert state.version == 4
    expected = list(range(160))
    expected[5] = -7
    for k in range(26):
        width = 1 + k % 3
        expected[6 * k:6 * k + width] = range(1000 * k, 1000 * k + width)
    assert state.read_block_wire(1) == ints(*expected)
    assert state.read_block_wire(2) == (text(b"caf\xc3\xa9")
                                        + text(b"host/golden#ints#7"))
    assert sorted(state.blocks) == [1, 2]
    assert state.freed_log == [(4, 3)]
