"""Composing cached diffs into multi-version updates.

The server "maintains a cache of diffs that it has received recently from
clients ... these cached diffs can often be used to respond to future
requests, avoiding redundant collection overhead."  The exact-match case
(forwarding one writer's diff to one reader) is trivial; this module
handles the relaxed-coherence case: a client that skipped x versions needs
an update covering a *range* of versions, and a chain of cached
single-step diffs can be composed into one — preserving the precision of
the original client diffs, where rebuilding from subblock versions would
round every change up to whole subblocks.

Composition rules, per block serial (applied oldest diff first):

- runs accumulate in order (appliers process runs sequentially, so a later
  overlapping run correctly overwrites an earlier one);
- an older run is dropped when a newer diff contains a run that fully
  covers its range (the common repeated-counter-update case — this is
  what shrinks Delta(x) updates below x stacked diffs);
- a ``freed`` tombstone cancels all older state for the serial; a
  re-creation (``is_new``) after a free replaces the tombstone;
- newly created blocks keep their creation record, with later runs merged
  after the creation's full-content run;
- ``new_types`` are the union (deduplicated by serial).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import ServerError
from repro.wire import (BlockDiff, RunColumns, SegmentDiff,
                        count_bytes_copied, decode_segment_diff)


def _covered(old: RunColumns, new: RunColumns) -> np.ndarray:
    """Mask of ``old`` runs fully covered by some single ``new`` run.

    Sort the new runs by start once and keep a running maximum of their
    ends — among new runs starting at or before an old run, one covers
    it iff that prefix's max end reaches the old run's end.  searchsorted
    finds the prefix for all old runs at once.
    """
    if not new.run_count:
        return np.zeros(old.run_count, bool)
    order = np.argsort(new.starts, kind="stable")
    starts = new.starts[order]
    prefix_max_end = np.maximum.accumulate((new.starts + new.counts)[order])
    prefix = np.searchsorted(starts, old.starts, side="right") - 1
    return ((prefix >= 0)
            & (prefix_max_end[np.maximum(prefix, 0)] >= old.starts + old.counts))


def _merge_columns(old: RunColumns, new: RunColumns) -> RunColumns:
    """``old``'s runs that ``new`` does not cover, then ``new``'s."""
    keep = ~_covered(old, new)
    payload = np.frombuffer(old.data, np.uint8)[np.repeat(keep, old.lens)]
    data = b"".join((payload.data, new.data))
    count_bytes_copied(len(data))
    return RunColumns(np.concatenate((old.starts[keep], new.starts)),
                      np.concatenate((old.counts[keep], new.counts)),
                      np.concatenate((old.lens[keep], new.lens)), data)


def _merge_block(accumulated: Optional[BlockDiff], incoming: BlockDiff) -> BlockDiff:
    if incoming.freed:
        return BlockDiff(serial=incoming.serial, freed=True,
                         version=incoming.version)
    if accumulated is not None and accumulated.freed:
        # a serial freed and then re-created cannot be expressed as one
        # BlockDiff; the caller falls back to rebuilding from subblocks
        raise ServerError(f"serial {incoming.serial} re-created within range")
    if accumulated is None or incoming.is_new:
        # first sight, or re-creation after a free: the newer record stands
        # (block diffs are never mutated in place, so sharing is safe)
        return incoming
    return BlockDiff(
        serial=accumulated.serial,
        columns=_merge_columns(accumulated.columns, incoming.columns),
        is_new=accumulated.is_new,
        type_serial=accumulated.type_serial,
        name=accumulated.name,
        version=max(accumulated.version, incoming.version),
    )


def compose_diffs(parts: List[SegmentDiff]) -> SegmentDiff:
    """Compose a chain of diffs (oldest first) into one equivalent diff."""
    if not parts:
        raise ServerError("cannot compose an empty diff chain")
    for earlier, later in zip(parts, parts[1:]):
        if earlier.to_version != later.from_version:
            raise ServerError(
                f"diff chain broken: ...->{earlier.to_version} then "
                f"{later.from_version}->...")
        if earlier.segment != later.segment:
            raise ServerError("diff chain mixes segments")
    merged_blocks: Dict[int, BlockDiff] = {}
    order: List[int] = []  # first-seen order keeps creations before uses
    types: Dict[int, bytes] = {}
    for part in parts:
        for serial, encoded in part.new_types:
            types.setdefault(serial, encoded)
        for block_diff in part.block_diffs:
            if block_diff.serial not in merged_blocks:
                order.append(block_diff.serial)
            merged_blocks[block_diff.serial] = _merge_block(
                merged_blocks.get(block_diff.serial), block_diff)
    return SegmentDiff(
        segment=parts[0].segment,
        from_version=parts[0].from_version,
        to_version=parts[-1].to_version,
        block_diffs=[merged_blocks[serial] for serial in order],
        new_types=sorted(types.items()),
    )


def compose_from_cache(cache, segment: str, from_version: int,
                       to_version: int,
                       max_span: int = 64) -> Optional[SegmentDiff]:
    """Stitch cached diffs into one ``from_version -> to_version`` update.

    Walks the cache greedily (longest cached step first) and composes the
    chain; returns None when no complete chain exists, when the range is
    wider than ``max_span`` (probing a long chain costs more than the
    caller's fallback), or when a serial was freed and re-created within
    the range.  Used by the origin server (falling back to a rebuild from
    subblock versions) and by the caching proxy (falling back to
    forwarding the request upstream).
    """
    if to_version - from_version > max_span:
        return None
    parts = []
    at = from_version
    while at < to_version:
        step = None
        for to in range(to_version, at, -1):
            encoded = cache.get(segment, at, to)
            if encoded is not None:
                step = decode_segment_diff(encoded)
                break
        if step is None:
            return None  # chain broken
        parts.append(step)
        at = step.to_version
    try:
        return compose_diffs(parts)
    except ServerError:
        return None
