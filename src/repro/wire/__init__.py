"""Machine-independent wire format: MIPs, diffs, translation, messages."""

from repro.wire.codec import Reader, Writer, count_bytes_copied
from repro.wire.diff import (
    BlockDiff,
    DiffRun,
    RunColumns,
    SegmentDiff,
    decode_segment_diff,
    encode_segment_diff,
)
from repro.wire.mip import MIP, format_mip, parse_mip
from repro.wire.translate import (
    TranslationContext,
    apply_block,
    apply_range,
    collect_block,
    collect_range,
    wire_size_of_range,
)
from repro.wire import messages

__all__ = [
    "BlockDiff",
    "DiffRun",
    "MIP",
    "Reader",
    "RunColumns",
    "SegmentDiff",
    "TranslationContext",
    "Writer",
    "apply_block",
    "apply_range",
    "collect_block",
    "collect_range",
    "count_bytes_copied",
    "decode_segment_diff",
    "encode_segment_diff",
    "format_mip",
    "messages",
    "parse_mip",
    "wire_size_of_range",
]
