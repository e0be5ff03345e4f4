"""The InterWeave server: wire-format segment store, locks, diffs, cache."""

from repro.server.checkpoint import (
    decode_checkpoint,
    encode_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.server.coherence import ClientView, SegmentCoherence
from repro.server.diff_cache import DiffCache
from repro.server.segment_state import (
    SERVER_ARCH,
    SUBBLOCK_UNITS,
    ServerBlock,
    ServerSegment,
)
from repro.server.server import InterWeaveServer
from repro.server.version_list import VersionList
from repro.server.wal import SegmentWAL, WALRecord, WriteAheadLog, read_wal, replay_records

__all__ = [
    "ClientView",
    "DiffCache",
    "InterWeaveServer",
    "SERVER_ARCH",
    "SUBBLOCK_UNITS",
    "SegmentCoherence",
    "SegmentWAL",
    "ServerBlock",
    "ServerSegment",
    "VersionList",
    "WALRecord",
    "WriteAheadLog",
    "decode_checkpoint",
    "encode_checkpoint",
    "read_checkpoint",
    "read_wal",
    "replay_records",
    "write_checkpoint",
]
