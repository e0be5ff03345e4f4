"""Client diff application: wire format -> local format.

The inverse of diff collection: given a wire-format update from the
server, the library uses type descriptors to identify the local-format
bytes that correspond to each primitive-data change and rewrites them,
unswizzling MIPs back into local machine addresses.

Application runs in two passes.  The first materializes structure —
freeing tombstoned blocks and allocating newly created ones — so that the
second pass, which writes data, can unswizzle MIPs that point at blocks
appearing later in the same diff (a linked-list head updated to point at
a node created in the same critical section is the canonical case).

Two of the paper's optimizations live here:

- **locality layout**: when a segment is cached for the first time, new
  blocks are allocated grouped by the version in which they were last
  modified, so data written together sits together in memory;
- **last-block prediction**: mapping a diff's serial numbers to blocks
  normally costs a ``blk_number_tree`` search; because blocks modified
  together tend to be modified together again — and because the locality
  layout placed them consecutively — the next diffed block is predicted
  to be the next block in memory, and the tree is searched only on a miss.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import BlockError, TypeDescriptorError
from repro.memory.heap import BlockInfo, SegmentHeap
from repro.types import TypeRegistry, flat_layout
from repro.wire import SegmentDiff, TranslationContext
from repro.wire.translate import apply_runs


class ApplyStats:
    """Prediction effectiveness counters (for the ablation bench)."""

    __slots__ = ("prediction_hits", "prediction_misses")

    def __init__(self):
        self.prediction_hits = 0
        self.prediction_misses = 0


def apply_update(tctx: TranslationContext, heap: SegmentHeap,
                 registry: TypeRegistry, diff: SegmentDiff,
                 first_cache: bool,
                 stats: Optional[ApplyStats] = None,
                 use_prediction: bool = True,
                 locality_layout: bool = True,
                 coalesce_layouts: bool = True) -> None:
    """Apply ``diff`` to the cached copy held in ``heap``."""
    stats = stats or ApplyStats()
    for serial, encoded in diff.new_types:
        registry.register_with_serial(serial, encoded)

    # -- pass 0: a full transfer replaces the cache ------------------------------
    if diff.is_full and not first_cache:
        # the server compacted past our version: anything it did not send
        # no longer exists (frees we never heard about)
        mentioned = {bd.serial for bd in diff.block_diffs if not bd.freed}
        for block in list(heap.blocks()):
            if block.serial not in mentioned:
                heap.free(block)

    # -- pass 1: structure -------------------------------------------------------
    for block_diff in diff.block_diffs:
        if block_diff.freed:
            try:
                block = heap.block_by_serial(block_diff.serial)
            except BlockError:
                continue  # freed before we ever cached it
            heap.free(block)

    creations = [bd for bd in diff.block_diffs
                 if bd.is_new and bd.serial not in heap.blk_number_tree]
    if first_cache and locality_layout:
        # blocks modified in the same write critical section (same version)
        # are placed contiguously, in the hope they are accessed together
        creations.sort(key=lambda bd: (bd.version, bd.serial))
    for block_diff in creations:
        descriptor = registry.lookup(block_diff.type_serial)
        heap.allocate(descriptor, block_diff.type_serial, name=block_diff.name,
                      serial=block_diff.serial, version=block_diff.version)

    # -- pass 2: data ---------------------------------------------------------------
    predicted: Optional[BlockInfo] = None
    for block_diff in diff.block_diffs:
        if block_diff.freed:
            continue
        block = _resolve_block(heap, block_diff.serial, predicted, stats,
                               use_prediction)
        if block_diff.is_new:
            expected = registry.lookup(block_diff.type_serial)
            if block.descriptor != expected:
                raise TypeDescriptorError(
                    f"block {block.serial}: wire type does not match cached type")
        layout = flat_layout(block.descriptor, tctx.arch, coalesce_layouts)
        apply_runs(tctx, layout, block.address, block_diff.columns)
        block.version = max(block.version, block_diff.version)
        predicted = _next_block_in_memory(block)


def _resolve_block(heap: SegmentHeap, serial: int, predicted: Optional[BlockInfo],
                   stats: ApplyStats, use_prediction: bool) -> BlockInfo:
    """Serial -> block, trying the last-block prediction before the tree."""
    if use_prediction and predicted is not None and predicted.serial == serial:
        stats.prediction_hits += 1
        return predicted
    if use_prediction:
        stats.prediction_misses += 1
    return heap.block_by_serial(serial)


def _next_block_in_memory(block: BlockInfo) -> Optional[BlockInfo]:
    """The next consecutive block in the client's memory layout."""
    hit = block.subsegment.blk_addr_tree.successor(block.address)
    return hit[1] if hit is not None else None
