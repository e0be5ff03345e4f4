"""The InterWeave client library.

A client process links this library to map cached copies of segments into
its (simulated) address space and access them with ordinary reads and
writes.  The library owns:

- the process's simulated memory, heap, and SIGSEGV-equivalent fault
  handler (twin creation for modification tracking);
- the cached-segment table with per-segment metadata (Figure 2);
- the reader/writer lock protocol against each segment's server,
  including coherence-model validation and the adaptive
  polling/notification protocol;
- diff collection at write-release and diff application at acquire;
- pointer swizzling between local addresses and MIPs, across segments.

Reader locks are local once the cached copy is "recent enough" for the
segment's coherence model; writer locks are arbitrated by the server,
which serializes writers and hands the new version number back at release.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Union

import numpy as np

from repro.arch import Architecture
from repro.client.apply import ApplyStats, apply_update
from repro.client.collect import CollectTimers, collect_write_diff
from repro.client.nodiff import NoDiffController
from repro.coherence import AdaptivePoller, CoherencePolicy, full
from repro.client.routing import Resolver, StaticResolver
from repro.errors import (
    BlockError,
    LockError,
    MIPError,
    SegmentError,
    ServerError,
    TransportError,
    WrongServerError,
)
from repro.memory import (
    Accessor,
    AccessorContext,
    AddressSpace,
    BlockInfo,
    Heap,
    SegmentHeap,
    make_accessor,
)
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import Tracer
from repro.transport.base import Channel
from repro.types import TypeDescriptor, TypeRegistry, descriptor_at, flat_layout
from repro.util.clock import Clock, VirtualClock, WallClock
from repro.wire import TranslationContext, format_mip, parse_mip
from repro.wire.messages import (
    LOCK_READ,
    LOCK_WRITE,
    DeleteSegmentReply,
    DeleteSegmentRequest,
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
    NotifyInvalidate,
    OpenSegmentReply,
    OpenSegmentRequest,
    RedirectReply,
    SubscribeReply,
    SubscribeRequest,
    decode_message,
    encode_message,
)


@dataclass
class ClientOptions:
    """Feature switches; the ablation benchmarks flip these individually."""

    enable_nodiff: bool = True
    enable_splicing: bool = True
    enable_isomorphic: bool = True  # coalesced translation layouts
    enable_prediction: bool = True  # last-block searches
    enable_locality_layout: bool = True
    enable_notifications: bool = True
    #: send a mostly-modified block whole instead of as many runs; None
    #: disables (the paper's per-block no-diff adaptation)
    block_full_threshold: float = 0.75
    lock_retry_interval: float = 0.001
    lock_max_retries: int = 100000
    #: WrongServer redirects a single operation may chase before giving
    #: up (a migration moves a segment once; chains only appear when it
    #: moves again mid-retry)
    redirect_max_follows: int = 4
    #: when a server becomes unreachable, drop the cached binding and ask
    #: the resolver again — if the cluster failed the segment over to a
    #: promoted backup, the re-resolved server differs and the operation
    #: is retried there transparently
    failover_reresolve: bool = True


@dataclass
class ClientStats:
    """Aggregated instrumentation across all segments."""

    collect: CollectTimers = field(default_factory=CollectTimers)
    apply: ApplyStats = field(default_factory=ApplyStats)
    updates_applied: int = 0
    diffs_sent: int = 0
    validations_skipped: int = 0
    validations_sent: int = 0
    lock_denials_seen: int = 0
    twins_created: int = 0
    redirects_followed: int = 0
    failovers_followed: int = 0


class Segment:
    """Client-side state for one cached segment (a segment-table entry)."""

    def __init__(self, name: str, heap: SegmentHeap, channel: Channel,
                 can_push: bool, metrics: Optional[MetricsRegistry] = None):
        self.name = name
        self.heap = heap
        self.registry = TypeRegistry()
        self.channel = channel  # the cached connection to the server
        self.version = 0
        self.has_data = False
        self.policy: CoherencePolicy = full()
        self.poller = AdaptivePoller(can_push, metrics=metrics)
        self.nodiff = NoDiffController()
        self.lock_mode: Optional[int] = None
        #: write-lease grant from the server: duration and the local clock
        #: instant it was granted (renewed implicitly by any request we
        #: send for this segment)
        self.lease_duration = 0.0
        self.lease_acquired_at: Optional[float] = None
        self.session_diffed = True
        self.created: List[BlockInfo] = []
        self.freed: List[int] = []
        self.transaction = None  # TransactionState when a tx is open
        #: type serials the server has already seen (via us or via updates)
        self.server_known_types: Set[int] = set()

    def __repr__(self):
        return f"Segment({self.name!r} v{self.version})"


#: batch size up to which looping over the scalar swizzle hooks (one AVL
#: descent each) beats one array pass over the block index.  Measured,
#: scalar vs indexed microseconds, pointers into int arrays: 8 pointers
#: 28 vs 33, 16: 54 vs 34; into 4-field records: 16: 51 vs 69, 32: 101
#: vs 73, 256: 795 vs 132 (unswizzling alike).
_SCALAR_SWIZZLE_MAX = 16


def _locked(method):
    """Serialize one public API call against the client's metadata.

    The client is designed for one application thread per client object
    (as the paper's per-process library is); this lock makes individual
    calls atomic so auxiliary threads (notification handlers, monitors)
    cannot observe torn metadata.  It is *not* held across critical
    sections — lock/unlock pairing remains the application's job.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._api_lock:
            return method(self, *args, **kwargs)

    return wrapper


class InterWeaveClient:
    """One client process: its memory, cached segments, and server links.

    ``connector(server_name, client_id)`` opens a channel to the named
    server; an :class:`~repro.transport.InProcHub`\'s ``connect`` method is
    the usual value.  ``resolver`` decides which server a segment name
    routes to — by default a :class:`~repro.client.routing.StaticResolver`,
    which keeps the paper's rule that the server is the first path
    component of the segment's URL (``"host/name"`` is served by
    ``"host"``); a :class:`~repro.cluster.DirectoryResolver` routes
    through a cluster's segment directory instead.  Either way, a
    WrongServer redirect updates the resolver's binding and the request
    is retried at the origin the redirect named.
    """

    def __init__(self, client_id: str, arch: Architecture,
                 connector: Callable[[str, str], Channel],
                 clock: Optional[Clock] = None,
                 options: Optional[ClientOptions] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 resolver: Optional[Resolver] = None):
        self.client_id = client_id
        self.arch = arch
        self.connector = connector
        self.resolver = resolver or StaticResolver()
        self.clock = clock or WallClock()
        self.options = options or ClientOptions()
        self.stats = ClientStats()
        self.metrics = metrics or get_registry()
        #: structured tracing over the client's clock (deterministic under
        #: VirtualClock); disabled tracers cost one attribute check per span
        self.tracer = tracer or Tracer(clock=self.clock, capacity=512)
        self._m_twins = self.metrics.counter(
            "client.twins_created", "pristine page copies made on write faults")
        self._m_updates_applied = self.metrics.counter(
            "client.updates_applied", "server update diffs applied to the cache")
        self._m_diffs_sent = self.metrics.counter(
            "client.diffs_sent", "write diffs shipped at release")
        self._m_validations_sent = self.metrics.counter(
            "client.validations_sent", "read validations that hit the server")
        self._m_validations_skipped = self.metrics.counter(
            "client.validations_skipped", "read acquires satisfied locally")
        self._m_lock_denials = self.metrics.counter(
            "client.lock_denials_seen", "write lock denials observed")
        self._m_redirects = self.metrics.counter(
            "client.redirects_followed",
            "WrongServer redirects chased to a new origin")
        self._m_failovers = self.metrics.counter(
            "client.failovers_followed",
            "unreachable-server operations retried at a re-resolved origin")
        self._api_lock = threading.RLock()
        self.memory = AddressSpace(metrics=self.metrics)
        self.memory.fault_handler = self._on_write_fault
        self.heap_root = Heap(self.memory)
        self.segments: Dict[str, Segment] = {}
        self._channels: Dict[str, Channel] = {}
        self.accessor_context = AccessorContext(self.memory, arch)
        self.tctx = TranslationContext(
            self.memory, arch,
            swizzle=self._pointers_to_mips,
            unswizzle=self._mips_to_pointers,
            metrics=self.metrics)
        #: _block_index's arrays, with the heap epoch they hold for
        self._index = (0, ((), (), [], {}, (), []))

    # ------------------------------------------------------------------
    # segment management
    # ------------------------------------------------------------------

    @staticmethod
    def server_of(segment_name: str, default: Optional[str] = None) -> str:
        """Static URL-prefix routing (no instance state consulted).

        ``default`` routes bare names (no '/') to a fixed server; without
        it they raise, as malformed URLs always have.  Instances route
        through ``self.resolver`` instead — this stays for callers that
        need the parse rule by itself.
        """
        return StaticResolver(default_server=default).resolve(segment_name)

    def _channel_for(self, segment_name: str) -> Channel:
        server = self.resolver.resolve(segment_name)
        channel = self._channels.get(server)
        if channel is None:
            channel = self.connector(server, self.client_id)
            if channel.can_push:
                channel.set_notification_handler(self._on_notification)
            channel.reconnect_listener = functools.partial(
                self._on_channel_reconnected, server)
            self._channels[server] = channel
        return channel

    def _on_channel_reconnected(self, server: str) -> None:
        """A channel re-established a lost connection: notifications may
        have been missed and the server may have forgotten subscriptions,
        so every segment served over it falls back to polling."""
        for name, segment in self.segments.items():
            try:
                routed = self.resolver.resolve(name)
            except SegmentError:
                continue
            if routed == server:
                segment.poller.on_disconnect()

    @_locked
    def open_segment(self, name: str, create: bool = True) -> Segment:
        """Open (or create) a segment; returns the opaque handle.

        The copy is reserved but contains no data until the first lock.
        """
        segment = self.segments.get(name)
        if segment is not None:
            return segment
        reply = self._rpc_named(name, OpenSegmentRequest(name, create,
                                                         self.client_id))
        if not isinstance(reply, OpenSegmentReply):
            raise ServerError(f"unexpected reply {type(reply).__name__}")
        channel = self._channel_for(name)
        heap = SegmentHeap(name, self.heap_root, self.arch)
        segment = Segment(name, heap, channel, channel.can_push,
                          metrics=self.metrics)
        self.segments[name] = segment
        return segment

    @_locked
    def close_segment(self, segment: Segment) -> None:
        """Discard the cached copy: unmap its memory and forget its state.

        The server copy is untouched; reopening the segment starts a fresh
        cache.  The segment must not be locked, and no accessor into it may
        be used afterwards (as with any unmapping).
        """
        if segment.lock_mode is not None:
            raise LockError(f"segment {segment.name!r} is locked")
        if self.segments.get(segment.name) is not segment:
            raise SegmentError(f"segment {segment.name!r} is not open here")
        for subsegment in segment.heap.subsegments:
            self.heap_root._unregister(subsegment)
            self.memory.unmap_region(subsegment.base, subsegment.num_pages)
        del self.segments[segment.name]

    @_locked
    def delete_segment(self, name: str) -> bool:
        """Destroy the segment at its server (administrative operation).

        Returns True if the server held the segment.  The local cache, if
        any, is closed first.  Other clients' caches become orphaned: their
        next validation fails with a server error.
        """
        segment = self.segments.get(name)
        if segment is not None:
            self.close_segment(segment)
        reply = self._rpc_named(name, DeleteSegmentRequest(name, self.client_id))
        if not isinstance(reply, DeleteSegmentReply):
            raise ServerError(f"unexpected reply {type(reply).__name__}")
        return reply.deleted

    @_locked
    def server_stats(self, server: str) -> dict:
        """Fetch a live stats snapshot from a server (see ``repro.obs``).

        ``server`` is the server part of a segment URL (everything before
        the first '/').  Returns the decoded JSON payload: a ``server``
        section (name and segment table) and a ``metrics`` section (the
        server's metrics-registry snapshot).  Purely observational.
        """
        channel = self._channels.get(server)
        if channel is None:
            channel = self._channel_for(f"{server}/stats")
        reply = self._rpc(channel, GetStatsRequest(self.client_id))
        if not isinstance(reply, GetStatsReply):
            raise ServerError(f"unexpected reply {type(reply).__name__}")
        return reply.to_dict()

    @_locked
    def session_state(self) -> dict:
        """Introspect this client's sessions: channel health and segment
        protocol state.

        Purely observational (no server round trips).  ``channels`` maps
        server name to the transport's :meth:`~repro.transport.Channel.health`
        snapshot — for TCP channels that includes broken/reconnect/retry
        state.  ``segments`` maps segment name to its cached version,
        lock mode, adaptive-poller state, and write-lease status
        (``lease_remaining`` is computed against this client's clock and
        is conservative: the server renews the lease on every request the
        writer sends).
        """
        now = self.clock.now()
        segments = {}
        for name, segment in self.segments.items():
            lease_remaining = None
            if segment.lock_mode == LOCK_WRITE and segment.lease_acquired_at is not None:
                lease_remaining = max(
                    0.0, segment.lease_duration - (now - segment.lease_acquired_at))
            segments[name] = {
                "version": segment.version,
                "has_data": segment.has_data,
                "lock_mode": segment.lock_mode,
                "subscribed": segment.poller.subscribed,
                "invalidated": segment.poller.invalidated,
                "lease_remaining": lease_remaining,
            }
        return {
            "client_id": self.client_id,
            "channels": {server: channel.health()
                         for server, channel in self._channels.items()},
            "segments": segments,
        }

    @_locked
    def close(self) -> None:
        """Release every cached segment and close every channel."""
        for segment in list(self.segments.values()):
            if segment.lock_mode is not None:
                raise LockError(
                    f"segment {segment.name!r} is still locked; release it first")
        for segment in list(self.segments.values()):
            self.close_segment(segment)
        for channel in self._channels.values():
            channel.close()
        self._channels.clear()
        self.resolver.close()

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    @_locked
    def malloc(self, segment: Segment, descriptor: TypeDescriptor,
               name: Optional[str] = None) -> Accessor:
        """Allocate a typed block in the segment (requires the write lock)."""
        self._require_write(segment, "IW_malloc")
        type_serial = segment.registry.register(descriptor)
        block = segment.heap.allocate(descriptor, type_serial, name=name)
        size = descriptor.local_size(self.arch)
        if size:
            self.memory.store(block.address, bytes(size))
        segment.created.append(block)
        return make_accessor(self.accessor_context, descriptor, block.address)

    @_locked
    def free(self, segment: Segment, target: Union[Accessor, BlockInfo, int]) -> None:
        """Free a block (requires the write lock)."""
        self._require_write(segment, "IW_free")
        if isinstance(target, Accessor):
            block = segment.heap.block_spanning(target.address)
            if block is None or block.address != target.address:
                raise BlockError("accessor does not reference a block start")
        elif isinstance(target, BlockInfo):
            block = target
        else:
            block = segment.heap.block_by_serial(target)
        if block in segment.created:
            segment.heap.free(block)
            segment.created.remove(block)  # never reached the server
        elif segment.transaction is not None:
            # inside a transaction: hide the block, free only at commit
            from repro.client import transactions

            transactions.defer_free(self, segment, block)
        else:
            segment.heap.free(block)
            segment.freed.append(block.serial)

    def accessor_for(self, segment: Segment,
                     block: Union[BlockInfo, int, str]) -> Accessor:
        """An accessor for an existing block, by info, serial, or name."""
        if isinstance(block, int):
            block = segment.heap.block_by_serial(block)
        elif isinstance(block, str):
            block = segment.heap.block_by_name(block)
        return make_accessor(self.accessor_context, block.descriptor, block.address)

    # ------------------------------------------------------------------
    # coherence configuration
    # ------------------------------------------------------------------

    def set_coherence(self, segment: Segment, policy: CoherencePolicy) -> None:
        """Change the segment's coherence model (dynamic, per the paper)."""
        segment.policy = policy

    # ------------------------------------------------------------------
    # reader/writer locks
    # ------------------------------------------------------------------

    @_locked
    def rl_acquire(self, segment: Segment) -> None:
        """Acquire a read lock: validate the cached copy, update if stale."""
        if segment.lock_mode is not None:
            raise LockError(f"segment {segment.name!r} is already locked")
        self._validate(segment)
        segment.lock_mode = LOCK_READ

    @_locked
    def rl_release(self, segment: Segment) -> None:
        if segment.lock_mode != LOCK_READ:
            raise LockError(f"segment {segment.name!r} holds no read lock")
        segment.lock_mode = None

    @_locked
    def wl_acquire(self, segment: Segment) -> None:
        """Acquire the (server-arbitrated, exclusive) write lock."""
        if segment.lock_mode is not None:
            raise LockError(f"segment {segment.name!r} is already locked")
        with self.tracer.span("client.wl_acquire", segment=segment.name) as span:
            request = LockAcquireRequest(
                segment.name, LOCK_WRITE, self.client_id, segment.version,
                segment.policy.kind, segment.policy.param, self.clock.now())
            retries = 0
            while True:
                reply = self._rpc_segment(segment, request)
                if not isinstance(reply, LockAcquireReply):
                    raise ServerError(f"unexpected reply {type(reply).__name__}")
                if reply.granted:
                    break
                self.stats.lock_denials_seen += 1
                self._m_lock_denials.inc()
                retries += 1
                if retries > self.options.lock_max_retries:
                    raise LockError(f"write lock on {segment.name!r} unavailable")
                self._backoff()
            span.set_attr("retries", retries)
            span.set_attr("updated", reply.diff is not None)
            segment.lease_duration = reply.lease_remaining
            segment.lease_acquired_at = self.clock.now()
            if reply.diff is not None:
                self._apply(segment, reply.diff)
            segment.poller.on_validated(reply.version, reply.diff is not None,
                                        self.clock.now())
            self._begin_write_session(segment)
            segment.lock_mode = LOCK_WRITE

    @_locked
    def wl_release(self, segment: Segment) -> None:
        """Release the write lock, shipping the collected diff."""
        if segment.lock_mode != LOCK_WRITE:
            raise LockError(f"segment {segment.name!r} holds no write lock")
        with self.tracer.span("client.wl_release", segment=segment.name) as span:
            self._wl_release_traced(segment, span)

    def _wl_release_traced(self, segment: Segment, span) -> None:
        diff, modified_units = self._collect(segment)
        payload = diff if (diff.block_diffs or diff.new_types) else None
        span.set_attr("payload_bytes",
                      0 if payload is None else payload.payload_bytes())
        # the write session ends only once the server answered: if the
        # RPC dies (origin crash, failover blackout) the subsegments keep
        # their twins, so a retried release re-collects the same
        # modifications instead of shipping an empty diff and silently
        # dropping the committed section
        reply = self._rpc_segment(segment, LockReleaseRequest(
            segment.name, LOCK_WRITE, self.client_id, payload))
        self._end_write_session(segment)
        if not isinstance(reply, LockReleaseReply):
            raise ServerError(f"unexpected reply {type(reply).__name__}")
        if payload is not None:
            self.stats.diffs_sent += 1
            self._m_diffs_sent.inc()
            segment.version = reply.version
            segment.has_data = True
            segment.server_known_types.update(serial for serial, _ in diff.new_types)
            self._stamp_written_blocks(segment, diff, reply.version)
        total_units = self._total_units(segment)
        fraction = modified_units / total_units if total_units else 0.0
        segment.nodiff.on_release(fraction, segment.session_diffed)
        segment.poller.on_local_write(reply.version, self.clock.now())
        segment.created = []
        segment.freed = []
        segment.lock_mode = None
        segment.lease_duration = 0.0
        segment.lease_acquired_at = None

    # ------------------------------------------------------------------
    # transactions (the paper's future-work extension)
    # ------------------------------------------------------------------

    @_locked
    def tx_begin(self, segment: Segment) -> None:
        """Open a transactional write critical section (abortable)."""
        from repro.client import transactions

        transactions.begin(self, segment)

    @_locked
    def tx_commit(self, segment: Segment) -> None:
        """Commit: ship the diff exactly like a normal write release."""
        from repro.client import transactions

        if segment.transaction is None:
            raise LockError(f"segment {segment.name!r} has no open transaction")
        transactions.commit(self, segment)

    @_locked
    def tx_abort(self, segment: Segment) -> None:
        """Abort: roll the cached copy back and release the lock."""
        from repro.client import transactions

        transactions.abort(self, segment)

    # ------------------------------------------------------------------
    # pointer swizzling (public bootstrap API)
    # ------------------------------------------------------------------

    @_locked
    def ptr_to_mip(self, target: Union[Accessor, int]) -> str:
        """Create a MIP naming the data an accessor (or address) refers to."""
        address = target.address if isinstance(target, Accessor) else target
        return self._pointer_to_mip(address)

    @_locked
    def mip_to_ptr(self, text: str) -> Accessor:
        """Resolve a MIP to a typed accessor, caching the segment if needed."""
        mip = parse_mip(text)
        segment = self._ensure_cached(mip.segment)
        block = self._block_of(segment, mip.block)
        descriptor = descriptor_at(block.descriptor, mip.offset)
        if mip.offset == 0:
            address = block.address
        else:
            layout = flat_layout(block.descriptor, self.arch,
                                 self.options.enable_isomorphic)
            _, _, local = layout.prim_to_local(mip.offset)
            address = block.address + local
        return make_accessor(self.accessor_context, descriptor, address)

    # ------------------------------------------------------------------
    # internals: validation and updates
    # ------------------------------------------------------------------

    def _validate(self, segment: Segment) -> None:
        from repro.wire.messages import COHERENCE_TEMPORAL

        temporal_bound = (segment.policy.param
                          if segment.policy.kind == COHERENCE_TEMPORAL else None)
        if not segment.poller.must_contact_server(
                temporal_bound=temporal_bound, now=self.clock.now()):
            self.stats.validations_skipped += 1
            self._m_validations_skipped.inc()
            return
        request = LockAcquireRequest(
            segment.name, LOCK_READ, self.client_id, segment.version,
            segment.policy.kind, segment.policy.param, self.clock.now())
        reply = self._rpc_segment(segment, request)
        if not isinstance(reply, LockAcquireReply):
            raise ServerError(f"unexpected reply {type(reply).__name__}")
        self.stats.validations_sent += 1
        self._m_validations_sent.inc()
        if reply.diff is not None:
            self._apply(segment, reply.diff)
        segment.poller.on_validated(reply.version, reply.diff is not None,
                                    self.clock.now())
        if self.options.enable_notifications and segment.poller.wants_subscription():
            sub = self._rpc_segment(segment, SubscribeRequest(
                segment.name, self.client_id, True))
            if isinstance(sub, SubscribeReply) and sub.enabled:
                segment.poller.on_subscribed()
        elif segment.poller.wants_unsubscription():
            # writes are outpacing reads: pushes cost more than they save
            self._rpc_segment(segment, SubscribeRequest(
                segment.name, self.client_id, False))
            segment.poller.on_unsubscribed()

    def _apply(self, segment: Segment, diff) -> None:
        with self.tracer.span("client.apply_update", segment=segment.name,
                              to_version=diff.to_version):
            apply_update(self.tctx, segment.heap, segment.registry, diff,
                         first_cache=not segment.has_data,
                         stats=self.stats.apply,
                         use_prediction=self.options.enable_prediction,
                         locality_layout=self.options.enable_locality_layout,
                         coalesce_layouts=self.options.enable_isomorphic)
        segment.server_known_types.update(serial for serial, _ in diff.new_types)
        segment.version = diff.to_version
        segment.has_data = True
        self.stats.updates_applied += 1
        self._m_updates_applied.inc()

    def _collect(self, segment: Segment):
        unknown = [serial for serial, _ in segment.registry.items()
                   if serial not in segment.server_known_types]
        return collect_write_diff(
            self.tctx, segment.heap, segment.version,
            segment.created, segment.freed, unknown,
            use_diffing=segment.session_diffed,
            splice=self.options.enable_splicing,
            coalesce_layouts=self.options.enable_isomorphic,
            timers=self.stats.collect,
            registry=segment.registry,
            block_full_threshold=self.options.block_full_threshold,
            metrics=self.metrics)

    def _stamp_written_blocks(self, segment: Segment, diff, version: int) -> None:
        for block_diff in diff.block_diffs:
            if block_diff.freed:
                continue
            try:
                segment.heap.block_by_serial(block_diff.serial).version = version
            except BlockError:
                pass

    # ------------------------------------------------------------------
    # internals: write sessions and fault handling
    # ------------------------------------------------------------------

    def _begin_write_session(self, segment: Segment) -> None:
        segment.created = []
        segment.freed = []
        segment.nodiff.enabled = self.options.enable_nodiff
        segment.session_diffed = segment.nodiff.use_diffing_next()
        if segment.session_diffed:
            for subsegment in segment.heap.subsegments:
                subsegment.drop_twins()
                self.memory.protect_range(subsegment.base, subsegment.size)

    def _end_write_session(self, segment: Segment) -> None:
        for subsegment in segment.heap.subsegments:
            subsegment.drop_twins()
            self.memory.unprotect_range(subsegment.base, subsegment.size)

    def _on_write_fault(self, space: AddressSpace, first_page: int, count: int) -> bool:
        """The library's SIGSEGV handler: twin the pages — a run within one
        mapping, so within one subsegment — and re-enable writes."""
        address = first_page * space.page_size
        subsegment = self.heap_root.find_subsegment(address)
        if subsegment is None:
            return False
        segment = self.segments.get(subsegment.segment_heap.name)
        if segment is None or segment.lock_mode != LOCK_WRITE:
            return False  # writing shared data without a write lock
        twinned = subsegment.twin_pages(
            space, (address - subsegment.base) // space.page_size, count)
        self.stats.twins_created += twinned
        self._m_twins.inc(twinned)
        space.unprotect_range(address, count * space.page_size)
        return True

    # ------------------------------------------------------------------
    # internals: swizzling hooks (used during translation)
    # ------------------------------------------------------------------

    def _pointer_to_mip(self, address: int) -> str:
        subsegment = self.heap_root.find_subsegment(address)
        if subsegment is None:
            raise MIPError(f"address {address:#x} is not in any shared segment")
        heap = subsegment.segment_heap
        block = heap.block_spanning(address)
        if block is None:
            raise MIPError(f"address {address:#x} does not fall in a block")
        layout = flat_layout(block.descriptor, self.arch,
                             self.options.enable_isomorphic)
        unit = layout.local_to_prim(address - block.address)
        if unit is None:
            raise MIPError(f"address {address:#x} points into alignment padding")
        return format_mip(heap.name, block.serial, unit[0])

    def _mip_to_pointer(self, text: str) -> int:
        mip = parse_mip(text)
        segment = self._ensure_cached(mip.segment)
        block = self._block_of(segment, mip.block)
        if mip.offset == 0:
            return block.address
        layout = flat_layout(block.descriptor, self.arch,
                             self.options.enable_isomorphic)
        _, _, local = layout.prim_to_local(mip.offset)
        return block.address + local

    def _block_index(self, batch: int):
        """Every cached block of every segment in address order, for
        swizzling ``batch`` pointers at once: address bounds as arrays,
        each block's MIP head ``segment#serial`` and the head's position,
        and one layout per type of each segment with each block's index
        into them.  None when a loop over the scalar hooks is cheaper: for
        a handful of pointers, or when the index is out of date and the
        batch is too small to pay for walking every block (measured: 0.7
        microseconds a block against 3.3 a pointer — 64 pointers after
        a malloc among 16,384 blocks cost 11.7 ms rebuilding, 0.23 not)."""
        if batch <= _SCALAR_SWIZZLE_MAX:
            return None
        epoch, index = self._index
        if epoch != self.heap_root.epoch:
            subsegments = [subsegment for _, subsegment
                           in self.heap_root.subseg_addr_tree.items()]
            if 4 * batch < sum(len(subsegment.blk_addr_tree)
                               for subsegment in subsegments):
                return None
            blocks = [block for subsegment in subsegments
                      for _, block in subsegment.blk_addr_tree.items()]
            layouts, groups = [], {}  # a segment's type serial names one layout
            for block in blocks:
                key = (block.subsegment.segment_heap, block.type_serial)
                if key not in groups:
                    groups[key] = len(layouts)
                    layouts.append(flat_layout(block.descriptor, self.arch,
                                               self.options.enable_isomorphic))
            heads = [f"{block.subsegment.segment_heap.name}#{block.serial}".encode("utf-8")
                     for block in blocks]
            index = (
                np.array([block.address for block in blocks], np.int64),
                np.array([block.end for block in blocks], np.int64),
                heads, {head: position for position, head in enumerate(heads)},
                np.array([groups[block.subsegment.segment_heap, block.type_serial]
                          for block in blocks], np.int64),
                layouts)
            self._index = (self.heap_root.epoch, index)
        return index if index[2] else None

    def _pointers_to_mips(self, addresses: List[int]) -> List[bytes]:
        index = self._block_index(len(addresses))
        if index is None:
            return [self._pointer_to_mip(address).encode("utf-8")
                    for address in addresses]
        starts, ends, heads, _, groups, layouts = index
        addresses = np.array(addresses, np.int64)
        at = np.searchsorted(starts, addresses, side="right") - 1
        inside = (at >= 0) & (addresses < ends[at])
        prims = np.full(at.size, -1, np.int64)
        group_of = np.where(inside, groups[at], -1)
        for group, layout in enumerate(layouts):
            members = np.flatnonzero(group_of == group)
            prims[members] = layout.units_at(addresses[members] - starts[at[members]])
        if prims.min() < 0:
            raise MIPError(f"address {int(addresses[prims.argmin()]):#x} is not "
                           "in a block of a shared segment, or points into padding")
        return [heads[block] + b"#%d" % prim if prim else heads[block]
                for block, prim in zip(at.tolist(), prims.tolist())]

    def _mips_to_pointers(self, texts: List[bytes]) -> List[int]:
        index = self._block_index(len(texts))
        if index is None:
            return [self._mip_to_pointer(text.decode("utf-8")) for text in texts]
        starts, _, _, where, groups, layouts = index
        at = list(map(where.get, texts))  # hits name a block's first unit
        prims = [0] * len(texts)
        rest = []  # a block name, a segment not cached yet, or malformed
        for position, text in enumerate(texts):
            if at[position] is None:
                head, _, prim = text.rpartition(b"#")
                at[position] = where.get(head)
                if at[position] is None or not prim.isdigit() or len(prim) > 18:
                    at[position] = 0
                    rest.append(position)
                else:
                    prims[position] = int(prim)
        at, prims = np.array(at, np.int64), np.array(prims, np.int64)
        pointers = starts[at]
        inner = np.flatnonzero(prims)
        for group, layout in enumerate(layouts):
            members = inner[groups[at[inner]] == group]
            which, local = layout.locate_units(prims[members])
            rest.extend(members[which < 0].tolist())  # for the hook's own error
            pointers[members] += local
        pointers = pointers.tolist()
        for position in rest:
            pointers[position] = self._mip_to_pointer(texts[position].decode("utf-8"))
        return pointers

    def _ensure_cached(self, segment_name: str) -> Segment:
        segment = self.segments.get(segment_name)
        if segment is None:
            segment = self.open_segment(segment_name, create=False)
        if not segment.has_data and not segment.heap.blk_number_tree:
            reply = self._rpc_segment(segment, FetchRequest(
                segment.name, self.client_id, 0, meta_only=True))
            if not isinstance(reply, FetchReply):
                raise ServerError(f"unexpected reply {type(reply).__name__}")
            if reply.diff is not None:
                # structure only: reserves space, leaves version at 0 so the
                # first lock still pulls real data
                apply_update(self.tctx, segment.heap, segment.registry,
                             reply.diff, first_cache=True,
                             stats=self.stats.apply,
                             use_prediction=self.options.enable_prediction,
                             locality_layout=self.options.enable_locality_layout,
                             coalesce_layouts=self.options.enable_isomorphic)
                segment.server_known_types.update(
                    serial for serial, _ in reply.diff.new_types)
        return segment

    @staticmethod
    def _block_of(segment: Segment, block_ref: Union[int, str]) -> BlockInfo:
        if isinstance(block_ref, int):
            return segment.heap.block_by_serial(block_ref)
        return segment.heap.block_by_name(block_ref)

    # ------------------------------------------------------------------
    # internals: transport
    # ------------------------------------------------------------------

    def _rpc(self, channel: Channel, request: Message) -> Message:
        reply = decode_message(channel.request(encode_message(request)))
        if isinstance(reply, ErrorReply):
            raise ServerError(reply.message)
        if isinstance(reply, RedirectReply):
            raise WrongServerError(reply.segment, reply.origin,
                                   reply.generation)
        return reply

    def _failed_over(self, name: str) -> bool:
        """A server became unreachable: drop the cached binding and ask
        the resolver whether the segment now lives somewhere else.

        Returns True only when the re-resolved server *differs* — the
        cluster promoted a backup (or rebound the segment) and a retry
        there can succeed.  When the name still resolves to the dead
        server there is nothing to fail over to, and the transport error
        propagates (retry policies below this layer already handled
        transient blips).
        """
        if not self.options.failover_reresolve:
            return False
        try:
            before = self.resolver.resolve(name)
        except SegmentError:
            return False
        self.resolver.invalidate(name)
        try:
            after = self.resolver.resolve(name)
        except (SegmentError, TransportError):
            return False
        if after == before:
            return False
        self.stats.failovers_followed += 1
        self._m_failovers.inc()
        return True

    def _rpc_named(self, name: str, request: Message) -> Message:
        """An RPC routed by segment name, chasing WrongServer redirects:
        each redirect teaches the resolver the new binding, and the
        request is re-sent over the channel the name now resolves to.
        An unreachable server additionally triggers one failover
        re-resolve (see :meth:`_failed_over`)."""
        last: Optional[WrongServerError] = None
        failed_over = False
        for _ in range(max(1, self.options.redirect_max_follows)):
            try:
                return self._rpc(self._channel_for(name), request)
            except WrongServerError as exc:
                last = exc
                self.stats.redirects_followed += 1
                self._m_redirects.inc()
                self.resolver.on_redirect(exc.segment, exc.origin,
                                          exc.generation)
            except TransportError:
                if failed_over or not self._failed_over(name):
                    raise
                failed_over = True
        raise last

    def _rpc_segment(self, segment: Segment, request: Message) -> Message:
        """An RPC over a cached segment's channel, chasing redirects.

        On a redirect the segment's cached channel is rebound to the new
        origin, and the poller falls back to polling — the new origin
        has no subscription for us, so trusting push freshness across a
        migration would serve stale reads forever.  An unreachable
        server gets the same treatment after a successful failover
        re-resolve: rebind the channel and drop push trust.
        """
        last: Optional[WrongServerError] = None
        failed_over = False
        for _ in range(1 + max(0, self.options.redirect_max_follows)):
            try:
                return self._rpc(segment.channel, request)
            except WrongServerError as exc:
                last = exc
                self.stats.redirects_followed += 1
                self._m_redirects.inc()
                self.resolver.on_redirect(exc.segment, exc.origin,
                                          exc.generation)
            except TransportError:
                if failed_over or not self._failed_over(segment.name):
                    raise
                failed_over = True
            segment.channel = self._channel_for(segment.name)
            segment.poller.on_disconnect()
        raise last

    def _on_notification(self, data: bytes) -> None:
        # runs on whatever thread the transport delivers pushes on; the
        # poller update below is the only state it touches
        message = decode_message(data)
        if isinstance(message, NotifyInvalidate):
            segment = self.segments.get(message.segment)
            if segment is not None:
                segment.poller.on_notify(message.version)

    def _backoff(self) -> None:
        if isinstance(self.clock, VirtualClock):
            self.clock.advance(self.options.lock_retry_interval)
        else:
            time.sleep(self.options.lock_retry_interval)

    def _require_write(self, segment: Segment, operation: str) -> None:
        if segment.lock_mode != LOCK_WRITE:
            raise LockError(f"{operation} requires the write lock on {segment.name!r}")

    @staticmethod
    def _total_units(segment: Segment) -> int:
        return sum(block.descriptor.prim_count for block in segment.heap.blocks())
