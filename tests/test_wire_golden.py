"""Golden-bytes compatibility: the diff codec's and the message codec's
output is pinned.

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

``GOLDEN_MESSAGE_HEX`` was generated at commit ``2718318`` — the last one
where each of the 30 message classes hand-wrote ``encode_body`` and
``decode_body`` — by running, with ``PYTHONPATH=src``::

    from repro.wire.messages import encode_message

    <golden_messages exactly as defined below>

    for name, message in golden_messages().items():
        print(f'    "{name}": "{encode_message(message).hex()}",')

It holds at least one fixture per registered tag, the optional diff of
tags 3 / 65 / 67 both present and absent, a non-empty diff-entry list for
tags 11 / 15 / 75, and every ``REPL_*`` kind of tag 14.
``tests/conformance/`` decodes the same corpus with a codec built from
``docs/PROTOCOL.md`` §5.

``GOLDEN_POINTER_HEX`` was generated at commit ``37e0a32`` — the last one
where every string and pointer unit was translated by the per-unit loop —
by printing ``pointer_golden_diffs(X86_32)`` (defined below) as hex, after
checking that SPARC-V9, Alpha and MIPS writers produced the same bytes.

``GOLDEN_WAL_HEX`` was generated at commit ``b5bbfb9`` by appending
``GOLDEN_HEX["one_run"]`` as version 1 -> 2 at timestamp 2.5 to a fresh
``WriteAheadLog`` and printing the segment file as hex: the header
(magic, format version, segment name) and one frame (length, CRC, record
kind, versions, timestamp, diff).
"""

import struct

import pytest

from repro import InterWeaveServer
from repro.arch import ALPHA, MIPS32, SPARC_V9, X86_32
from repro.server.wal import REC_DIFF, WriteAheadLog, _encode_header, _frame, read_wal
from repro.types import (INT, ArrayDescriptor, Field, PointerDescriptor,
                         RecordDescriptor, StringDescriptor, TypeRegistry)
from repro.wire import (BlockDiff, DiffRun, SegmentDiff, decode_segment_diff,
                        encode_segment_diff)
from repro.wire import messages as m

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

GOLDEN_POINTER_HEX = {
    "create": (
        "0000000b686f73742f676f6c64656e0000000000000000000000010000000100"
        "00004f0000000604000000010000002405000400046e6f646500036b65790000"
        "00020001770000000300056c6162656c0000000400046e657874000000050103"
        "0106020000000c030000000100046e6f64650000000100000001050000000000"
        "000001000000056e6f646573000004e3000000010000000000000090000004d7"
        "0000000000000000000000000000000000000000000000013fe0000000000000"
        "000000016100000010686f73742f676f6c64656e2331233238000000023ff000"
        "000000000000000005636166c3a90000000e686f73742f6f7468657223312332"
        "000000033ff80000000000000000000b30313233343536373839610000000000"
        "0000044000000000000000000000046e6f646500000011686f73742f676f6c64"
        "656e233123313132000000054004000000000000000000000000000e686f7374"
        "2f6f746865722331233500000006400800000000000000000001610000000000"
        "000007400c00000000000000000005636166c3a900000010686f73742f676f6c"
        "64656e23312335320000000840100000000000000000000b3031323334353637"
        "3839610000000e686f73742f6f74686572233123380000000940120000000000"
        "00000000046e6f6465000000000000000a401400000000000000000000000000"
        "11686f73742f676f6c64656e2331233133360000000b40160000000000000000"
        "0001610000000f686f73742f6f7468657223312331310000000c401800000000"
        "000000000005636166c3a9000000000000000d401a0000000000000000000b30"
        "3132333435363738396100000010686f73742f676f6c64656e23312337360000"
        "000e401c000000000000000000046e6f64650000000f686f73742f6f74686572"
        "23312331340000000f401e000000000000000000000000000000000010402000"
        "0000000000000000016100000010686f73742f676f6c64656e23312331360000"
        "0011402100000000000000000005636166c3a90000000f686f73742f6f746865"
        "7223312331370000001240220000000000000000000b30313233343536373839"
        "6100000000000000134023000000000000000000046e6f646500000011686f73"
        "742f676f6c64656e233123313030000000144024000000000000000000000000"
        "000f686f73742f6f746865722331233230000000154025000000000000000000"
        "01610000000000000016402600000000000000000005636166c3a90000001068"
        "6f73742f676f6c64656e23312334300000001740270000000000000000000b30"
        "313233343536373839610000000f686f73742f6f746865722331233233000000"
        "184028000000000000000000046e6f6465000000000000001940290000000000"
        "000000000000000011686f73742f676f6c64656e2331233132340000001a402a"
        "00000000000000000001610000000f686f73742f6f7468657223312332360000"
        "001b402b00000000000000000005636166c3a9000000000000001c402c000000"
        "0000000000000b303132333435363738396100000010686f73742f676f6c6465"
        "6e23312336340000001d402d000000000000000000046e6f64650000000f686f"
        "73742f6f7468657223312332390000001e402e00000000000000000000000000"
        "000000001f402f00000000000000000001610000000f686f73742f676f6c6465"
        "6e2331233400000020403000000000000000000005636166c3a90000000f686f"
        "73742f6f7468657223312333320000002140308000000000000000000b303132"
        "333435363738396100000000000000224031000000000000000000046e6f6465"
        "00000010686f73742f676f6c64656e2331233838000000234031800000000000"
        "000000000000000f686f73742f6f746865722331233335"
    ),
    "rewrite": (
        "0000000b686f73742f676f6c64656e0000000100000000000000000000000100"
        "000001000000000000000343000000120000000400000004000000270000000c"
        "00000004000000280000001400000004000000150000001c000000040000002d"
        "0000002400000004000000250000002c00000004000000190000003400000004"
        "000000270000003c000000040000002600000044000000040000001f0000004c"
        "00000004000000230000005400000004000000290000005c0000000400000018"
        "0000006400000004000000240000006c000000040000002f0000007400000004"
        "000000140000007c00000004000000280000008400000004000000280000008c"
        "0000000400000015000003e93ff800000000000000000005636166c3a9000000"
        "0e686f73742f6f7468657223312332000003eb4004000000000000000000046e"
        "6f646500000010686f73742f676f6c64656e2331233838000003ed400c000000"
        "000000000000016100000000000003ef40120000000000000000000b30313233"
        "343536373839610000000e686f73742f6f7468657223312338000003f1401600"
        "00000000000000000000000011686f73742f676f6c64656e2331233131320000"
        "03f3401a00000000000000000005636166c3a900000000000003f5401e000000"
        "000000000000046e6f64650000000f686f73742f6f7468657223312331340000"
        "03f74021000000000000000000016100000011686f73742f676f6c64656e2331"
        "23313336000003f940230000000000000000000b303132333435363738396100"
        "000000000003fb4025000000000000000000000000000f686f73742f6f746865"
        "722331233230000003fd402700000000000000000005636166c3a90000001068"
        "6f73742f676f6c64656e2331233136000003ff4029000000000000000000046e"
        "6f64650000000000000401402b00000000000000000001610000000f686f7374"
        "2f6f74686572233123323600000403402d0000000000000000000b3031323334"
        "35363738396100000010686f73742f676f6c64656e233123343000000405402f"
        "0000000000000000000000000000000004074030800000000000000000056361"
        "66c3a90000000f686f73742f6f74686572233123333200000409403180000000"
        "0000000000046e6f646500000010686f73742f676f6c64656e23312336340000"
        "040b4032800000000000000000016100000000"
    ),
}

GOLDEN_WAL_HEX = (
    "4957574c000000010000000b686f73742f676f6c64656e000000550948fbed00"
    "00000001000000024004000000000000000000400000000b686f73742f676f6c"
    "64656e0000000100000002000000000000000100000001000000000200000010"
    "00000001000000050000000100000004fffffff9")

GOLDEN_MESSAGE_HEX = {
    "open_segment": "010000000b686f73742f676f6c64656e01000000026331",
    "open_segment_no_create": "010000000b686f73742f676f6c64656e0000000000",
    "lock_acquire": (
        "020000000b686f73742f676f6c64656e01000000026331000000050140080000"
        "000000004029000000000000"
    ),
    "lock_acquire_defaults": (
        "020000000b686f73742f676f6c64656e0000000005636166c3a9000000000000"
        "000000000000000000000000000000"
    ),
    "lock_release_read": "030000000b686f73742f676f6c64656e0000000002633100",
    "lock_release_write": (
        "030000000b686f73742f676f6c64656e0100000002633101000000400000000b"
        "686f73742f676f6c64656e000000010000000200000000000000010000000100"
        "000000020000001000000001000000050000000100000004fffffff9"
    ),
    "fetch": "040000000b686f73742f676f6c64656e0000000263310000000400",
    "fetch_meta_only": "040000000b686f73742f676f6c64656e0000000263310000000001",
    "subscribe": "050000000b686f73742f676f6c64656e00000002633101",
    "unsubscribe": "050000000b686f73742f676f6c64656e00000002633100",
    "delete_segment": "060000000b686f73742f676f6c64656e000000026331",
    "get_stats": "07000000026331",
    "directory_lookup": "080000000b686f73742f676f6c64656e000000026331",
    "directory_update": (
        "0904000000086f726967696e2d310000000b686f73742f676f6c64656e000000"
        "0561646d696e"
    ),
    "migrate_out": "0a0000000b686f73742f676f6c64656e0000000821636c7573746572",
    "migrate_in": (
        "0b0000000b686f73742f676f6c64656e0000000b00636865636b706f696e7400"
        "0000020000000100000002000000400000000b686f73742f676f6c64656e0000"
        "0001000000020000000000000001000000010000000002000000100000000100"
        "0000050000000100000004fffffff90000000300000004000000300000000b68"
        "6f73742f676f6c64656e00000003000000040000000000000001000000030200"
        "00000400000000000000000000000821636c7573746572"
    ),
    "migrate_in_no_diffs": "0b0000000b686f73742f676f6c64656e000000000000000000000000",
    "migrate_commit": (
        "0c0000000b686f73742f676f6c64656e000000086f726967696e2d3100000100"
        "000000070000000821636c7573746572"
    ),
    "migrate_abort": "0d0000000b686f73742f676f6c64656e0000000821636c7573746572",
    "replicate_diff": (
        "0e000000000b686f73742f676f6c64656e000000010000000240934a00000000"
        "00000000400000000b686f73742f676f6c64656e000000010000000200000000"
        "0000000100000001000000000200000010000000010000000500000001000000"
        "04fffffff900000000000000000000000000000005217265706c"
    ),
    "replicate_lease": (
        "0e010000000b686f73742f676f6c64656e000000000000000000000000000000"
        "00000000000000000263314058d0000000000000000005217265706c"
    ),
    "replicate_promote": (
        "0e02000000000000000000000000000000000000000000000000000000000000"
        "00000000000000000005217265706c"
    ),
    "replicate_catchup": (
        "0f0000000b686f73742f676f6c64656e000000040000000b00636865636b706f"
        "696e74000000020000000100000002000000400000000b686f73742f676f6c64"
        "656e000000010000000200000000000000010000000100000000020000001000"
        "000001000000050000000100000004fffffff900000003000000040000003000"
        "00000b686f73742f676f6c64656e000000030000000400000000000000010000"
        "00030200000004000000000000000000000005217265706c"
    ),
    "open_segment_reply": "400100000007",
    "lock_acquire_reply": "410100000006403e00000000000000",
    "lock_acquire_reply_diff": (
        "410100000003000000000000000001000002340000000b686f73742f676f6c64"
        "656e000000020000000300000000000000010000000100000000030000020400"
        "00001a0000000000000001000000040000000600000002000000080000000c00"
        "0000030000000c00000012000000010000000400000018000000020000000800"
        "00001e000000030000000c0000002400000001000000040000002a0000000200"
        "00000800000030000000030000000c0000003600000001000000040000003c00"
        "0000020000000800000042000000030000000c00000048000000010000000400"
        "00004e000000020000000800000054000000030000000c0000005a0000000100"
        "00000400000060000000020000000800000066000000030000000c0000006c00"
        "0000010000000400000072000000020000000800000078000000030000000c00"
        "00007e00000001000000040000008400000002000000080000008a0000000300"
        "00000c0000009000000001000000040000009600000002000000080000000000"
        "0003e8000003e9000007d0000007d1000007d200000bb800000fa000000fa100"
        "001388000013890000138a0000177000001b5800001b5900001f4000001f4100"
        "001f4200002328000027100000271100002af800002af900002afa00002ee000"
        "0032c8000032c9000036b0000036b1000036b200003a9800003e8000003e8100"
        "004268000042690000426a0000465000004a3800004a3900004e2000004e2100"
        "004e2200005208000055f0000055f1000059d8000059d9000059da00005dc000"
        "0061a8000061a9"
    ),
    "lock_acquire_reply_denied": "410000000000000000000000000000",
    "lock_release_reply": "4200000007",
    "fetch_reply": "430000000900",
    "fetch_reply_diff": (
        "430000000401000000300000000b686f73742f676f6c64656e00000003000000"
        "0400000000000000010000000302000000040000000000000000"
    ),
    "subscribe_reply": "4401",
    "notify_invalidate": "450000000b686f73742f676f6c64656e0000000a",
    "delete_segment_reply": "4601",
    "get_stats_reply": (
        "470000002b7b226d657472696373223a207b7d2c2022736572766572223a207b"
        "226e616d65223a2022686f7374227d7d"
    ),
    "directory_lookup_reply": "48000000086f726967696e2d31000000000000000701",
    "directory_update_reply": "49018000000000000001",
    "redirect_reply": (
        "4a0000000b686f73742f676f6c64656e000000086f726967696e2d3100000000"
        "00000007"
    ),
    "migrate_out_reply": (
        "4b000000040000000b00636865636b706f696e74000000020000000100000002"
        "000000400000000b686f73742f676f6c64656e00000001000000020000000000"
        "0000010000000100000000020000001000000001000000050000000100000004"
        "fffffff90000000300000004000000300000000b686f73742f676f6c64656e00"
        "0000030000000400000000000000010000000302000000040000000000000000"
    ),
    "migrate_out_reply_no_diffs": "4b000000000000000b00636865636b706f696e7400000000",
    "migrate_ack": "4c00",
    "replicate_ack": "4d0100000002",
    "replicate_nack": "4d0000000001",
    "error_reply": "7f000000117365676d656e74206e6f7420666f756e64",
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


def golden_messages():
    diffs = golden_diffs()
    one_run = bytes.fromhex(GOLDEN_HEX["one_run"])
    entries = [(1, 2, one_run), (3, 4, bytes.fromhex(GOLDEN_HEX["tombstone"]))]
    return {
        # requests
        "open_segment": m.OpenSegmentRequest("host/golden", True, "c1"),
        "open_segment_no_create": m.OpenSegmentRequest("host/golden", False),
        "lock_acquire": m.LockAcquireRequest(
            "host/golden", m.LOCK_WRITE, "c1", 5, m.COHERENCE_DELTA, 3.0, 12.5),
        "lock_acquire_defaults": m.LockAcquireRequest(
            "host/golden", m.LOCK_READ, "caf\u00e9", 0),
        "lock_release_read": m.LockReleaseRequest("host/golden", m.LOCK_READ, "c1"),
        "lock_release_write": m.LockReleaseRequest(
            "host/golden", m.LOCK_WRITE, "c1", diffs["one_run"]),
        "fetch": m.FetchRequest("host/golden", "c1", 4),
        "fetch_meta_only": m.FetchRequest("host/golden", "c1", 0, meta_only=True),
        "subscribe": m.SubscribeRequest("host/golden", "c1", True),
        "unsubscribe": m.SubscribeRequest("host/golden", "c1", False),
        "delete_segment": m.DeleteSegmentRequest("host/golden", "c1"),
        "get_stats": m.GetStatsRequest("c1"),
        "directory_lookup": m.DirectoryLookupRequest("host/golden", "c1"),
        "directory_update": m.DirectoryUpdateRequest(
            m.DIR_MIGRATE, "origin-1", "host/golden", "admin"),
        "migrate_out": m.MigrateOutRequest("host/golden", "!cluster"),
        "migrate_in": m.MigrateInRequest(
            "host/golden", b"\x00checkpoint", entries, "!cluster"),
        "migrate_in_no_diffs": m.MigrateInRequest("host/golden", b""),
        "migrate_commit": m.MigrateCommitRequest(
            "host/golden", "origin-1", 2 ** 40 + 7, "!cluster"),
        "migrate_abort": m.MigrateAbortRequest("host/golden", "!cluster"),
        "replicate_diff": m.ReplicateAppendRequest(
            m.REPL_DIFF, "host/golden", 1, 2, 1234.5, one_run, client_id="!repl"),
        "replicate_lease": m.ReplicateAppendRequest(
            m.REPL_LEASE, "host/golden", writer="c1", lease_expiry=99.25,
            client_id="!repl"),
        "replicate_promote": m.ReplicateAppendRequest(
            m.REPL_PROMOTE, client_id="!repl"),
        "replicate_catchup": m.ReplicateCatchupRequest(
            "host/golden", 4, b"\x00checkpoint", entries, "!repl"),
        # replies
        "open_segment_reply": m.OpenSegmentReply(True, 7),
        "lock_acquire_reply": m.LockAcquireReply(True, 6, 30.0),
        "lock_acquire_reply_diff": m.LockAcquireReply(
            True, 3, 0.0, diffs["scattered"]),
        "lock_acquire_reply_denied": m.LockAcquireReply(False),
        "lock_release_reply": m.LockReleaseReply(7),
        "fetch_reply": m.FetchReply(9),
        "fetch_reply_diff": m.FetchReply(4, diffs["tombstone"]),
        "subscribe_reply": m.SubscribeReply(True),
        "notify_invalidate": m.NotifyInvalidate("host/golden", 10),
        "delete_segment_reply": m.DeleteSegmentReply(True),
        "get_stats_reply": m.GetStatsReply('{"metrics": {}, "server": {"name": "host"}}'),
        "directory_lookup_reply": m.DirectoryLookupReply("origin-1", 7, True),
        "directory_update_reply": m.DirectoryUpdateReply(True, 2 ** 63 + 1),
        "redirect_reply": m.RedirectReply("host/golden", "origin-1", 7),
        "migrate_out_reply": m.MigrateOutReply(4, b"\x00checkpoint", entries),
        "migrate_out_reply_no_diffs": m.MigrateOutReply(0, b"\x00checkpoint"),
        "migrate_ack": m.MigrateAck(False),
        "replicate_ack": m.ReplicateAck(True, 2),
        "replicate_nack": m.ReplicateAck(False, 1),
        "error_reply": m.ErrorReply("segment not found"),
    }


def pointer_golden_diffs(arch):
    """The two write diffs of a pointer/string block, as a writer on
    ``arch`` collects them: the creation of 36 ``{int; double;
    string<12>; node*}`` records (144 units in one run) and a rewrite of
    every second record (18 runs of 4 units), with empty, full and
    non-ASCII labels and NULL, intra-block and cross-segment pointers."""
    from repro import InProcHub, InterWeaveClient, InterWeaveServer
    from repro.types import DOUBLE

    hub = InProcHub()
    hub.register_server("host", InterWeaveServer("host", sink=hub))
    client = InterWeaveClient("w", arch, hub.connect)
    other = client.open_segment("host/other")
    client.wl_acquire(other)
    ints = client.malloc(other, ArrayDescriptor(INT, 40), name="ints")
    client.wl_release(other)
    link = PointerDescriptor(target_name="node")
    node = RecordDescriptor("node", [
        Field("key", INT), Field("w", DOUBLE),
        Field("label", StringDescriptor(12)), Field("next", link)])
    link.target = node
    labels = ["", "a", "caf\u00e9", "0123456789a", "node"]
    segment = client.open_segment("host/golden")

    def write(array, index, salt):
        record = array[index]
        record.key = 1000 * salt + index
        record.w = index * 0.5 + salt
        record.label = labels[(index + salt) % len(labels)]
        record.next = [None, array.element_accessor((index * 7 + salt) % 36),
                       ints.element_accessor((index + salt) % 40)][(index + salt) % 3]

    encoded = {}
    client.wl_acquire(segment)
    array = client.malloc(segment, ArrayDescriptor(node, 36), name="nodes")
    for index in range(36):
        write(array, index, salt=0)
    encoded["create"] = encode_segment_diff(client._collect(segment)[0])
    client.wl_release(segment)
    client.wl_acquire(segment)
    for index in range(1, 36, 2):
        write(array, index, salt=1)
    encoded["rewrite"] = encode_segment_diff(client._collect(segment)[0])
    client.wl_release(segment)
    return encoded


@pytest.mark.parametrize("arch", [X86_32, SPARC_V9, ALPHA, MIPS32],
                         ids=lambda arch: arch.name)
def test_pointer_string_diffs_are_byte_identical_on_every_writer(arch):
    """Strings and MIPs leave every architecture in the same bytes, on
    whichever translation path the run set takes."""
    diffs = pointer_golden_diffs(arch)
    assert {name: data.hex() for name, data in diffs.items()} == GOLDEN_POINTER_HEX
    decoded = decode_segment_diff(diffs["rewrite"]).block_diffs[0].columns
    assert decoded.starts.tolist() == [4 * index for index in range(1, 36, 2)]
    assert decoded.counts.tolist() == [4] * 18


@pytest.mark.parametrize("name", list(GOLDEN_HEX))
def test_encoding_is_byte_identical(name):
    golden = bytes.fromhex(GOLDEN_HEX[name])
    diff = golden_diffs()[name]
    assert encode_segment_diff(diff) == golden
    decoded = decode_segment_diff(golden)
    assert decoded == diff
    assert encode_segment_diff(decoded) == golden  # a fixed point


def test_every_registered_tag_has_a_golden_message():
    assert set(GOLDEN_MESSAGE_HEX) == set(golden_messages())
    assert ({type(message).TAG for message in golden_messages().values()}
            == set(m._REGISTRY))


@pytest.mark.parametrize("name", list(GOLDEN_MESSAGE_HEX))
def test_message_encoding_is_byte_identical(name):
    golden = bytes.fromhex(GOLDEN_MESSAGE_HEX[name])
    message = golden_messages()[name]
    assert m.encode_message(message) == golden
    decoded = m.decode_message(golden)
    assert decoded == message
    assert m.encode_message(decoded) == golden  # a fixed point


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


def test_wal_file_bytes_are_byte_identical(tmp_path):
    """The on-disk WAL — header, frame and record kind — is pinned: a
    fresh log holding one diff is the golden file, and the golden file
    decodes to that record and re-encodes to itself."""
    golden = bytes.fromhex(GOLDEN_WAL_HEX)
    wal = WriteAheadLog(str(tmp_path / "new"), fsync=False)
    wal.append("host/golden", 1, 2, bytes.fromhex(GOLDEN_HEX["one_run"]),
               timestamp=2.5)
    wal.close()
    with open(wal.path_for("host/golden"), "rb") as handle:
        assert handle.read() == golden
    path = tmp_path / "golden.iwwal"
    path.write_bytes(golden)
    name, (record,), valid = read_wal(str(path))
    assert (name, valid) == ("host/golden", len(golden))
    assert (record.kind, record.from_version, record.to_version,
            record.timestamp) == (REC_DIFF, 1, 2, 2.5)
    assert decode_segment_diff(record.payload) == golden_diffs()["one_run"]
    assert _encode_header(name) + _frame(record) == golden
