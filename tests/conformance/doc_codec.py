"""A second message codec, built from ``docs/PROTOCOL.md`` §5 alone.

Nothing here imports ``repro``: the message tables are parsed out of the
document and drive a ``struct``-only encoder/decoder, so a disagreement
with ``repro.wire.messages`` is either a doc bug or a codec bug.  A
segment diff is an opaque blob here, exactly as §5 describes it.

A decoded message is ``(tag, [value, ...])`` with one value per body
cell: ``int`` / ``float`` / ``bool`` / ``str`` / ``bytes``, ``None`` or
``bytes`` for an ``opt_diff``, and a list of ``(from, to, bytes)`` for
``diff_entries``.
"""

import re
import struct
from pathlib import Path

PROTOCOL_MD = Path(__file__).resolve().parents[2] / "docs" / "PROTOCOL.md"

_ROW = re.compile(r"^\| (\d+) \| (\w+)(?: \([^)]*\))? \| (.+) \|$")
_TYPED = re.compile(r"^(u8|u32|u64|f64|bool|blob) (\w+)(?: \([^)]*\))?$")
_TEXT = re.compile(r"^(\w+)\(text\)$")
_OPT_DIFF = "u8 has_diff, [blob segment_diff]"


def parse_messages(markdown=None):
    """``{tag: (message name, [(kind, field name or None), ...])}`` from
    the two message tables of §5."""
    if markdown is None:
        markdown = PROTOCOL_MD.read_text(encoding="utf-8")
    section = markdown.split("\n## 5. Messages\n")[1].split("\n## 6. ")[0]
    messages = {}
    for line in section.splitlines():
        row = _ROW.match(line)
        if row is None:
            continue
        tag, name, body = int(row.group(1)), row.group(2), row.group(3)
        if tag in messages:
            raise ValueError(f"tag {tag} documented twice")
        cells = body.replace(_OPT_DIFF, "opt_diff").split(", ")
        messages[tag] = (name, [_parse_cell(cell) for cell in cells])
    return messages


def _parse_cell(cell):
    if cell in ("opt_diff", "diff_entries"):
        return cell, None
    typed = _TYPED.match(cell)
    if typed:
        return typed.group(1), typed.group(2)
    text = _TEXT.match(cell)
    if text:
        return "text", text.group(1)
    raise ValueError(f"body cell outside the §5 grammar: {cell!r}")


_FIXED = {"u8": ">B", "u32": ">I", "u64": ">Q", "f64": ">d"}


def _put(kind, value):
    if kind in _FIXED:
        return struct.pack(_FIXED[kind], value)
    if kind == "bool":
        return b"\x01" if value else b"\x00"
    if kind == "text":
        value = value.encode("utf-8")
    if kind in ("text", "blob"):
        return struct.pack(">I", len(value)) + value
    if kind == "opt_diff":
        return b"\x00" if value is None else b"\x01" + _put("blob", value)
    assert kind == "diff_entries", kind
    return struct.pack(">I", len(value)) + b"".join(
        struct.pack(">II", start, end) + _put("blob", diff)
        for start, end, diff in value)


def _get(kind, data, at):
    if kind in _FIXED:
        (value,) = struct.unpack_from(_FIXED[kind], data, at)
        return value, at + struct.calcsize(_FIXED[kind])
    if kind == "bool":
        return data[at] != 0, at + 1
    if kind in ("text", "blob"):
        length, at = _get("u32", data, at)
        value = data[at:at + length]
        if len(value) != length:
            raise ValueError("truncated")
        return (value.decode("utf-8") if kind == "text" else value), at + length
    if kind == "opt_diff":
        return _get("blob", data, at + 1) if data[at] else (None, at + 1)
    assert kind == "diff_entries", kind
    count, at = _get("u32", data, at)
    entries = []
    for _ in range(count):
        start, end = struct.unpack_from(">II", data, at)
        diff, at = _get("blob", data, at + 8)
        entries.append((start, end, diff))
    return entries, at


def encode(messages, tag, values):
    _, cells = messages[tag]
    assert len(values) == len(cells)
    return bytes([tag]) + b"".join(
        _put(kind, value) for (kind, _), value in zip(cells, values))


def decode(messages, data):
    tag, at, values = data[0], 1, []
    for kind, _ in messages[tag][1]:
        value, at = _get(kind, data, at)
        values.append(value)
    if at != len(data):
        raise ValueError("trailing bytes")
    return tag, values
