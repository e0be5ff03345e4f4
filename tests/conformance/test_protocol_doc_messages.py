"""docs/PROTOCOL.md §5 is executable: a codec built from the document
(``doc_codec``) must agree with ``repro.wire.messages`` on the schema and
on every byte of the golden corpus."""

import ast

import pytest

from repro.wire import SegmentDiff, encode_segment_diff
from repro.wire.messages import _REGISTRY, decode_message, encode_message
from tests.conformance import doc_codec
from tests.test_wire_golden import GOLDEN_MESSAGE_HEX

DOC = doc_codec.parse_messages()


def field_values(message):
    """A ``repro`` message as the value list the doc codec speaks: one
    value per field, a segment diff as its encoded bytes."""
    values = [getattr(message, name) for name, _ in message.FIELDS]
    return [encode_segment_diff(value) if isinstance(value, SegmentDiff)
            else value for value in values]


def test_doc_codec_imports_nothing_from_repro():
    tree = ast.parse(open(doc_codec.__file__, encoding="utf-8").read())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported == {"re", "struct", "pathlib"}


def test_documented_tags_are_exactly_the_registered_tags():
    assert sorted(DOC) == sorted(_REGISTRY)


@pytest.mark.parametrize("tag", sorted(_REGISTRY))
def test_documented_body_matches_the_schema(tag):
    cls = _REGISTRY[tag]
    doc_name, cells = DOC[tag]
    assert cls.__name__ in (doc_name, doc_name + "Request")
    assert [kind for kind, _ in cells] == [kind.name for _, kind in cls.FIELDS]
    # the two compound kinds have no name cell in the doc
    assert [name for _, name in cells if name is not None] == [
        name for name, kind in cls.FIELDS
        if kind.name not in ("opt_diff", "diff_entries")]


@pytest.mark.parametrize("name", list(GOLDEN_MESSAGE_HEX))
def test_doc_codec_agrees_on_the_golden_corpus(name):
    golden = bytes.fromhex(GOLDEN_MESSAGE_HEX[name])
    tag, values = doc_codec.decode(DOC, golden)
    message = decode_message(golden)
    assert tag == message.TAG
    assert values == field_values(message)
    assert doc_codec.encode(DOC, tag, values) == golden


def test_doc_codec_canonicalizes_booleans_like_the_implementation():
    """§5's boolean rule: any non-zero byte is true, encoders emit 0/1."""
    ack = bytes([76, 2])  # MigrateAck, ok = 2
    tag, values = doc_codec.decode(DOC, ack)
    assert values == [True] == field_values(decode_message(ack))
    assert (doc_codec.encode(DOC, tag, values) == bytes([76, 1])
            == encode_message(decode_message(ack)))


def test_a_cell_outside_the_grammar_is_refused():
    with pytest.raises(ValueError):
        doc_codec.parse_messages(
            "\n## 5. Messages\n| 1 | Open | u16 flags |\n## 6. x")
    with pytest.raises(ValueError):
        doc_codec.parse_messages(
            "\n## 5. Messages\n| 1 | A | u8 x |\n| 1 | B | u8 y |\n## 6. x")
