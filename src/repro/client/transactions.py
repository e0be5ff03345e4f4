"""Transactional write sessions.

The paper closes with "we are incorporating transaction support into
InterWeave and studying the interplay of transactions, RPC, and global
shared state."  This module is that extension: a write critical section
that can *abort*, rolling the cached copy back to its pre-transaction
state, instead of shipping its diff.

The machinery is exactly the machinery modification tracking already
pays for:

- the twins created on write faults are pristine pre-transaction page
  images, so rollback is "copy every twin back over its page";
- blocks created inside the transaction are simply freed;
- frees requested inside the transaction are *deferred* (the block is
  hidden from lookups but its storage and metadata survive) and only
  executed at commit — so an abort can resurrect them bit-for-bit.

A transaction therefore forces diffing mode (no-diff mode keeps no twins
and could not roll back).  Commit is a normal write release: the diff the
server receives is indistinguishable from a plain critical section, so
transactions compose with every coherence model and with other clients
unchanged.
"""

from __future__ import annotations

from typing import List

from repro.errors import LockError
from repro.memory.heap import BlockInfo
from repro.wire.messages import LOCK_WRITE, LockReleaseRequest


class TransactionState:
    """Per-segment bookkeeping for an open transaction."""

    __slots__ = ("deferred_frees",)

    def __init__(self):
        self.deferred_frees: List[BlockInfo] = []


def begin(client, segment) -> None:
    """Open a transactional write critical section."""
    if segment.lock_mode is not None:
        raise LockError(f"segment {segment.name!r} is already locked")
    client.wl_acquire(segment)
    if not segment.session_diffed:
        # transactions need twins for rollback: force this session (and
        # only this session) back into diffing mode
        segment.session_diffed = True
        for subsegment in segment.heap.subsegments:
            subsegment.drop_twins()
            client.memory.protect_range(subsegment.base, subsegment.size)
    segment.transaction = TransactionState()


def defer_free(client, segment, block: BlockInfo) -> None:
    """Hide a block until commit; abort brings it back untouched."""
    segment.heap.unlink(block)
    segment.transaction.deferred_frees.append(block)


def commit(client, segment) -> None:
    """Execute deferred frees and release the write lock normally."""
    transaction = segment.transaction
    segment.transaction = None
    heap = segment.heap
    for block in transaction.deferred_frees:
        # re-link just long enough for the ordinary free path to run
        heap.link(block)
        heap.free(block)
        segment.freed.append(block.serial)
    client.wl_release(segment)


def abort(client, segment) -> None:
    """Roll back every modification and release the lock empty-handed."""
    if segment.lock_mode != LOCK_WRITE or segment.transaction is None:
        raise LockError(f"segment {segment.name!r} has no open transaction")
    transaction = segment.transaction
    segment.transaction = None
    memory = client.memory
    heap = segment.heap

    # 1. restore every twinned page (pre-transaction images), a run of
    #    pages per copy; twinned pages are writable, so nothing faults
    for subsegment in heap.subsegments:
        page_size = subsegment.page_size
        for first, stop in subsegment.twinned_runs():
            memory.store(subsegment.base + first * page_size, memoryview(
                subsegment.twins)[first * page_size:stop * page_size])
        subsegment.drop_twins()
        memory.unprotect_range(subsegment.base, subsegment.size)

    # 2. unwind creations (their metadata references die with them)
    for block in segment.created:
        heap.free(block)
    segment.created = []

    # 3. resurrect deferred frees
    for block in transaction.deferred_frees:
        heap.link(block)
    segment.freed = []

    # 4. release the server-side write lock without a diff
    client._rpc(segment.channel, LockReleaseRequest(
        segment.name, LOCK_WRITE, client.client_id, None))
    segment.lock_mode = None
    segment.lease_duration = 0.0
    segment.lease_acquired_at = None
    segment.poller.on_local_write(segment.version, client.clock.now())
