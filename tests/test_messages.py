"""Tests for protocol message encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WireFormatError
from repro.obs import get_registry
from repro.wire import messages as wire_messages
from repro.wire.diff import BlockDiff, DiffRun, SegmentDiff
from repro.wire.messages import (
    _REGISTRY,
    COHERENCE_DELTA,
    DIR_MIGRATE,
    DIR_PIN,
    LOCK_READ,
    LOCK_WRITE,
    REPL_DIFF,
    REPL_LEASE,
    TEXT,
    U32,
    DeleteSegmentReply,
    DeleteSegmentRequest,
    DirectoryLookupReply,
    DirectoryLookupRequest,
    DirectoryUpdateReply,
    DirectoryUpdateRequest,
    ErrorReply,
    FetchReply,
    FetchRequest,
    GetStatsReply,
    GetStatsRequest,
    LockAcquireReply,
    LockAcquireRequest,
    LockReleaseReply,
    LockReleaseRequest,
    Message,
    MigrateAbortRequest,
    MigrateAck,
    MigrateCommitRequest,
    MigrateInRequest,
    MigrateOutReply,
    MigrateOutRequest,
    NotifyInvalidate,
    OpenSegmentReply,
    OpenSegmentRequest,
    RedirectReply,
    ReplicateAck,
    ReplicateAppendRequest,
    ReplicateCatchupRequest,
    SubscribeReply,
    SubscribeRequest,
    decode_message,
    encode_message,
)
from tests.conformance import doc_codec
from tests.conformance.test_protocol_doc_messages import DOC, field_values
from tests.test_wire_diff import diff_runs

SAMPLES = [
    OpenSegmentRequest("host/seg", create=True, client_id="c1"),
    OpenSegmentReply(existed=False, version=0),
    LockAcquireRequest("host/seg", LOCK_WRITE, "c1", 5,
                       COHERENCE_DELTA, 3.0, 12.5),
    LockAcquireReply(granted=True, version=6, diff=None),
    LockAcquireReply(granted=True, version=6, diff=SegmentDiff(
        "host/seg", 5, 6,
        [BlockDiff(serial=1, runs=[DiffRun(0, 1, b"\x2a")], version=6)])),
    LockAcquireReply(granted=False),
    LockReleaseRequest("host/seg", LOCK_READ, "c1"),
    LockReleaseRequest("host/seg", LOCK_WRITE, "c1",
                       diff=SegmentDiff("host/seg", 6, 0)),
    LockReleaseReply(version=7),
    FetchRequest("host/seg", "c1", 4),
    FetchReply(version=9, diff=None),
    SubscribeRequest("host/seg", "c1", enable=True),
    SubscribeReply(enabled=True),
    NotifyInvalidate("host/seg", 10),
    ErrorReply("segment not found"),
    DirectoryLookupRequest("host/seg", client_id="c1"),
    DirectoryLookupReply(origin="origin-1", generation=7, pinned=True),
    DirectoryUpdateRequest(DIR_PIN, origin="origin-1", segment="host/seg",
                           client_id="admin"),
    DirectoryUpdateRequest(DIR_MIGRATE, origin="origin-0",
                           segment="host/seg", client_id="admin"),
    DirectoryUpdateReply(ok=True, generation=8),
    RedirectReply("host/seg", origin="origin-1", generation=7),
    MigrateOutRequest("host/seg", client_id="!cluster"),
    MigrateOutReply(version=4, payload=b"\x00checkpoint",
                    diffs=[(3, 4, b"\x01diff")]),
    MigrateInRequest("host/seg", payload=b"\x00checkpoint",
                     diffs=[(3, 4, b"\x01diff")], client_id="!cluster"),
    MigrateCommitRequest("host/seg", target="origin-1", generation=8,
                         client_id="!cluster"),
    MigrateAbortRequest("host/seg", client_id="!cluster"),
    MigrateAck(ok=True),
    DeleteSegmentRequest("host/seg", "c1"),
    DeleteSegmentReply(deleted=True),
    GetStatsRequest(client_id="c1"),
    GetStatsReply(payload='{"metrics": {}}'),
    ReplicateAppendRequest(REPL_DIFF, "host/seg", 3, 4, 12.5, b"\x01diff",
                           client_id="!repl"),
    ReplicateAppendRequest(REPL_LEASE, "host/seg", writer="c1",
                           lease_expiry=42.0, client_id="!repl"),
    ReplicateCatchupRequest("host/seg", 4, b"\x00checkpoint",
                            diffs=[(3, 4, b"\x01diff")], client_id="!repl"),
    ReplicateAck(ok=False, version=3),
]


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_roundtrip(message):
    assert decode_message(encode_message(message)) == message


def test_every_registered_tag_has_a_sample():
    assert {type(m) for m in SAMPLES} == set(_REGISTRY.values())


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_every_proper_prefix_is_rejected_cleanly(message):
    """Truncation anywhere — inside a length word, a blob, a diff — is a
    WireFormatError, never an IndexError / struct.error / ValueError."""
    data = encode_message(message)
    for cut in range(len(data)):
        with pytest.raises(WireFormatError):
            decode_message(data[:cut])


def test_unknown_tag_rejected():
    with pytest.raises(WireFormatError):
        decode_message(b"\x63")


def test_trailing_bytes_rejected():
    data = encode_message(LockReleaseReply(version=1))
    with pytest.raises(WireFormatError):
        decode_message(data + b"!")


def test_truncated_rejected():
    data = encode_message(SAMPLES[2])
    with pytest.raises(WireFormatError):
        decode_message(data[:-4])


def test_tags_are_unique():
    types = {type(m) for m in SAMPLES}
    tags = [cls.TAG for cls in types]
    assert len(set(tags)) == len(tags)


def test_fields_has_one_kind_per_dataclass_field():
    for cls in _REGISTRY.values():
        assert [name for name, _ in cls.FIELDS] == list(cls.__dataclass_fields__)


def test_a_malformed_declaration_fails_at_class_definition():
    before = dict(_REGISTRY)
    with pytest.raises(TypeError):
        @wire_messages.message(200, TEXT)  # one kind, two fields
        class TooFewKinds(Message):
            segment: str
            version: int
    with pytest.raises(TypeError):
        @wire_messages.message(200, TEXT, U32, U32)
        class TooManyKinds(Message):
            segment: str
            version: int
    with pytest.raises(ValueError):
        @wire_messages.message(LockReleaseReply.TAG, U32)  # tag already taken
        class Squatter(Message):
            version: int
    assert _REGISTRY == before


def _bytes_copied_by(message):
    counter = get_registry().counter("wire.bytes_copied")
    before = counter.value
    encode_message(message)
    return counter.value - before


def test_only_the_replication_ship_counts_as_a_payload_copy():
    """``wire.bytes_copied`` moves by exactly the shipped payload, once,
    when a ReplicateAppendRequest is encoded — and not at all for the
    plain blobs of the migration / catchup messages."""
    payload = b"\x5a" * 300
    entries = [(1, 2, payload)]
    assert _bytes_copied_by(
        ReplicateAppendRequest(REPL_DIFF, "host/seg", 1, 2, 0.0, payload)) == 300
    assert _bytes_copied_by(ReplicateAppendRequest(REPL_LEASE, "host/seg")) == 0
    assert _bytes_copied_by(MigrateOutReply(2, payload, entries)) == 0
    assert _bytes_copied_by(MigrateInRequest("host/seg", payload, entries)) == 0
    assert _bytes_copied_by(
        ReplicateCatchupRequest("host/seg", 2, payload, entries)) == 0


_segment_diffs = st.builds(
    SegmentDiff,
    segment=st.text(min_size=1, max_size=12),
    from_version=st.integers(0, 2**31),
    to_version=st.integers(0, 2**31),
    block_diffs=st.lists(st.builds(
        BlockDiff, serial=st.integers(1, 2**31),
        runs=st.lists(diff_runs, max_size=3),
        version=st.integers(0, 2**31)), max_size=3))

#: one strategy per field-kind token; a message strategy is its FIELDS walked
KIND_VALUES = {
    "u8": st.integers(0, 2**8 - 1),
    "u32": st.integers(0, 2**32 - 1),
    "u64": st.integers(0, 2**64 - 1),
    "f64": st.floats(allow_nan=False),
    "bool": st.booleans(),
    "text": st.text(max_size=20),
    "blob": st.binary(max_size=40),
    "opt_diff": st.none() | _segment_diffs,
    "diff_entries": st.lists(st.tuples(st.integers(0, 2**32 - 1),
                                       st.integers(0, 2**32 - 1),
                                       st.binary(max_size=40)), max_size=3),
}

_messages = st.sampled_from(sorted(_REGISTRY)).flatmap(
    lambda tag: st.builds(_REGISTRY[tag], *[
        KIND_VALUES[kind.name] for _, kind in _REGISTRY[tag].FIELDS]))


@settings(max_examples=300, deadline=None)
@given(_messages)
def test_roundtrip_property_agrees_with_the_doc_codec(message):
    wire = encode_message(message)
    decoded = decode_message(wire)
    assert decoded == message
    assert encode_message(decoded) == wire
    # the codec built from docs/PROTOCOL.md reads and writes the same bytes
    assert doc_codec.decode(DOC, wire) == (message.TAG, field_values(message))
    assert doc_codec.encode(DOC, message.TAG, field_values(message)) == wire


def test_message_sizes_are_modest():
    """Control messages should be tens of bytes, not kilobytes."""
    for message in SAMPLES:
        if getattr(message, "diff", None) is None:
            assert len(encode_message(message)) < 120
