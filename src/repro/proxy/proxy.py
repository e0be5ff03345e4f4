"""A caching relay tier between readers and an origin server.

The paper's server stores segments in wire format so updates need no
per-client translation, and it caches encoded diffs because "cached
diffs can often be used to respond to future requests".  Both properties
make a *relay* cheap: encoded ``SegmentDiff``s are immutable and
composable, so a middle tier can answer read traffic from cached bytes
without ever decoding data — and relaxed coherence means a reply that is
a bounded step behind the origin is still a correct reply.

:class:`CachingProxy` is a :class:`~repro.transport.Dispatcher`:
downstream, readers connect to it exactly as to a server (in-process
hub or TCP — the proxy neither knows nor cares).
Upstream it acts as a single client of the origin, using whatever
connector it is given (typically a
:class:`~repro.transport.MuxConnectionPool`, whose channels share one
socket, read by whichever forwarding thread is waiting for a reply).

What is answered locally vs forwarded (see docs/PROTOCOL.md §"Relay
tier"):

- **read-lock validations** and **fetches** whose coherence bound the
  proxy's cached version provably satisfies (Full/Delta/Temporal,
  evaluated at the proxy with the same
  :class:`~repro.server.coherence.SegmentCoherence` machinery the origin
  uses), including the update diff when the cached diff chain covers the
  client's version range;
- **subscriptions** and **read-lock releases** — pure bookkeeping;
- everything else is forwarded verbatim: opens, write-lock traffic,
  deletes, meta-only fetches, Diff-coherence validations (their bound
  needs the origin's authoritative modified-units accounting), and any
  read the proxy cannot prove fresh or cannot serve from cached bytes.

Freshness has two sources.  When the upstream transport can push, the
proxy subscribes once per segment; each invalidation push triggers **one**
upstream refresh (a read validation on the proxy's own channel) whose
result is cached and then fanned out to every local subscriber — one
origin round trip amortized over N readers.  When upstream cannot push,
the proxy trusts its version for a configurable ``max_staleness`` window
after the last upstream contact; the first request past the window pays
one single-flight refresh on behalf of everyone.  Writes forwarded
through the proxy teach it the new version synchronously (and their
diffs are cached for the read fan-out), so a write-through topology
never waits out the window.

End-to-end semantics survive the extra hop: each downstream client's
forwarded traffic rides a dedicated upstream channel (its own nonce and
sequence space), so origin-side lease attribution and reply-cache
deduplication key on a stable per-client identity, while the proxy-side
transport's own reply cache makes downstream retries replay rather than
re-forward.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from typing import Callable, Dict, Optional, Union

from repro.client.routing import Resolver
from repro.coherence import CoherencePolicy
from repro.errors import (
    InterWeaveError,
    SegmentError,
    ServerError,
    TransportError,
)
from repro.obs.metrics import MetricsRegistry, OwnerCounters, get_registry
from repro.server.coherence import SegmentCoherence
from repro.server.compose import compose_from_cache
from repro.server.diff_cache import DiffCache
from repro.transport.base import Channel, Dispatcher, NotificationSink, NullSink
from repro.util.clock import Clock, WallClock
from repro.wire import SegmentDiff, encode_segment_diff
from repro.wire.diff import stamped_wire
from repro.wire.messages import (
    COHERENCE_DIFF,
    COHERENCE_FULL,
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

_log = logging.getLogger(__name__)

#: cap on how many learned version timestamps a relay entry retains
_TIMES_KEEP = 512

#: how many WrongServer redirects the relay chases per request before
#: handing the redirect downstream for the client's resolver to sort out
_REDIRECT_FOLLOWS = 4


class _SegmentRelay:
    """The proxy's per-segment state: version knowledge plus local views.

    ``version`` is the highest origin version the proxy has observed
    (reply, push, or refresh); ``data_version`` is the version its cached
    diff chain reaches — the two diverge between an invalidation push and
    the refresh it triggers.  ``lock`` (a leaf lock: never held across an
    upstream request or a downstream push) guards the scalar fields;
    ``refresh_lock`` single-flights upstream refreshes so a thundering
    herd of expired readers costs one origin round trip.
    """

    __slots__ = ("name", "version", "data_version", "fresh_until",
                 "learned_times", "times_floor", "coherence",
                 "upstream_subscribed", "lock", "refresh_lock")

    def __init__(self, name: str):
        self.name = name
        self.version = 0
        self.data_version = 0
        self.fresh_until = float("-inf")
        #: version -> proxy-clock instant it was first learned; the relay's
        #: stand-in for the origin's ``version_times`` (temporal coherence)
        self.learned_times: Dict[int, float] = {}
        #: versions at or below this have had their timestamps pruned
        self.times_floor = 0
        self.coherence = SegmentCoherence()
        self.upstream_subscribed = False
        self.lock = threading.Lock()
        self.refresh_lock = threading.Lock()


class CachingProxy(Dispatcher):
    """Serve read fan-out from a relay replica instead of the origin.

    ``name`` is the server name downstream clients address (segment names
    stay ``name/path`` end to end — the proxy is transparent).
    ``connector(origin, client_id)`` opens upstream channels to the real
    origin; ``origin`` defaults to ``name`` (the usual TCP topology, where
    names are resolved by the connector's address map).

    In a multi-origin cluster the default origin may answer with a
    WrongServer redirect after a segment migrates; the proxy chases it,
    learns the per-segment binding (newest generation wins), and opens
    upstream channels to the new origin, so downstream clients keep a
    single stable address while segments move behind the relay.

    ``max_staleness`` bounds how long the proxy may serve coherence
    decisions without hearing from the origin when upstream cannot push
    (with an upstream subscription, pushes keep it current instead).
    ``0`` forwards every first-touch decision — the proxy still
    deduplicates update bytes, just not round trips.

    ``resolver`` (typically a
    :class:`~repro.cluster.DirectoryResolver`) lets the relay survive an
    origin *failover*, not just a migration: when an upstream request
    dies with :class:`~repro.errors.TransportError`, the relay drops the
    resolver's cached binding, asks again, and — if the cluster promoted
    a backup — closes the dead channels, rebinds every affected segment,
    reopens its own and per-client channels against the new origin,
    re-subscribes for pushes, and re-pushes invalidations to local
    subscribers, so downstream readers never notice the machine loss.
    Without a resolver the relay keeps the old behavior: upstream
    transport errors surface downstream as typed errors.
    """

    def __init__(self, name: str,
                 connector: Callable[[str, str], Channel],
                 origin: Optional[str] = None,
                 sink: Optional[NotificationSink] = None,
                 clock: Optional[Clock] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 diff_cache_bytes: int = 16 * 1024 * 1024,
                 max_staleness: float = 0.05,
                 compose_limit: int = 64,
                 resolver: Optional[Resolver] = None):
        if max_staleness < 0:
            raise ServerError("max_staleness must be >= 0")
        self.name = name
        self.origin = origin if origin is not None else name
        self.connector = connector
        self.sink = sink or NullSink()
        self.clock = clock or WallClock()
        self.max_staleness = max_staleness
        self.compose_limit = compose_limit
        self.metrics = metrics or get_registry()
        self.diff_cache = DiffCache(diff_cache_bytes, metrics=self.metrics)
        #: this relay's own share of each ``proxy.*`` counter below
        self.stats = OwnerCounters(self, self.metrics, "proxy", {
            "hits": "reads answered from the relay cache",
            "forwards": "requests forwarded to the origin",
            "refreshes": "upstream refresh round trips",
            "notifications_pushed": "invalidations re-pushed to local subscribers",
            "redirects_followed":
                "WrongServer redirects chased to a migrated segment's new origin",
            "failovers_followed": "unreachable-upstream re-resolves that "
                                  "rebound the relay to a promoted origin",
        })
        self._counts = self.stats.parts
        self._m_requests = self.metrics.counter(
            "proxy.requests", "protocol requests dispatched by the relay")
        self._m_errors = self.metrics.counter(
            "proxy.errors", "relay requests answered with ErrorReply")
        self._m_dispatch = self.metrics.histogram(
            "proxy.dispatch_seconds", help="relay request handling latency")
        self._m_hit_rate = self.metrics.gauge(
            "proxy.hit_rate", "fraction of reads answered without the origin")
        self._m_fanout = self.metrics.gauge(
            "proxy.fanout_subscribers",
            "local subscribers registered across all segments")
        self._entries: Dict[str, _SegmentRelay] = {}
        self._table_lock = threading.Lock()
        #: one upstream channel per (origin, downstream client) pair
        #: (forwarded traffic keeps its own sequence space and lease
        #: identity), plus one proxy-owned channel per origin for
        #: refreshes and subscriptions
        self._up_channels: Dict[tuple, Channel] = {}
        self._channel_lock = threading.Lock()
        self._own_channels: Dict[str, Channel] = {}
        #: segment → (origin, binding generation), learned from
        #: WrongServer redirects; segments not listed live at the
        #: default origin
        self._bindings: Dict[str, tuple] = {}
        self._binding_lock = threading.Lock()
        self.resolver = resolver
        #: serializes failover rebinds (close dead channels, rewrite
        #: bindings) so two requests hitting the dead origin at once do
        #: the teardown exactly once
        self._failover_lock = threading.Lock()
        self._closed = False

    # -- upstream plumbing --------------------------------------------------------

    @property
    def _own_id(self) -> str:
        return f"{self.name}!!relay"

    def _origin_of(self, segment: Optional[str]) -> str:
        """Which origin currently serves ``segment``, by relay knowledge."""
        if segment is not None:
            with self._binding_lock:
                binding = self._bindings.get(segment)
            if binding is not None:
                return binding[0]
        return self.origin

    def _learn_binding(self, segment: str, origin: str,
                       generation: int) -> None:
        """A redirect said ``segment`` moved; newest generation wins."""
        with self._binding_lock:
            current = self._bindings.get(segment)
            if current is not None and generation < current[1]:
                return
            self._bindings[segment] = (origin, generation)
            changed = current is None or current[0] != origin
        if not changed:
            return
        entry = self._lookup(segment)
        if entry is not None:
            with entry.lock:
                # pushes from the old origin are dead and the new origin
                # has never heard of us: re-validate and re-subscribe
                entry.upstream_subscribed = False
                entry.fresh_until = float("-inf")

    def _own(self, origin: Optional[str] = None) -> Channel:
        origin = origin if origin is not None else self.origin
        with self._channel_lock:
            channel = self._own_channels.get(origin)
            if channel is None:
                channel = self.connector(origin, self._own_id)
                if channel.can_push:
                    channel.set_notification_handler(self._on_upstream_push)
                channel.reconnect_listener = self._on_upstream_reconnect
                self._own_channels[origin] = channel
        return channel

    def _client_channel(self, origin: str, client_id: str) -> Channel:
        with self._channel_lock:
            channel = self._up_channels.get((origin, client_id))
            if channel is None:
                # prefixed so that a hub co-hosting both tiers never
                # confuses a downstream client's channel with the relay's
                # upstream one for the same client id
                channel = self.connector(origin, f"{self.name}!{client_id}")
                self._up_channels[(origin, client_id)] = channel
        return channel

    def _own_request(self, request: Message,
                     segment: Optional[str] = None) -> Message:
        origin = self._origin_of(segment)
        failed_over = False
        for _follow in range(1 + _REDIRECT_FOLLOWS):
            try:
                raw = self._own(origin).request(encode_message(request))
            except TransportError:
                if failed_over or segment is None or \
                        not self._failed_over(segment):
                    raise
                failed_over = True
                origin = self._origin_of(segment)
                continue
            reply = decode_message(raw)
            if isinstance(reply, RedirectReply) and segment is not None:
                self._counts.redirects_followed.inc()
                self._learn_binding(reply.segment, reply.origin,
                                    reply.generation)
                origin = reply.origin
                continue
            if isinstance(reply, ErrorReply):
                raise ServerError(reply.message)
            return reply
        raise ServerError(
            f"redirect chase for {segment!r} exceeded "
            f"{_REDIRECT_FOLLOWS} hops")

    def _on_upstream_reconnect(self) -> None:
        """Pushes may have been lost while the upstream link was down:
        forget all freshness until each segment re-validates."""
        with self._table_lock:
            entries = list(self._entries.values())
        for entry in entries:
            with entry.lock:
                entry.upstream_subscribed = False
                entry.fresh_until = float("-inf")

    # -- failover re-resolution ---------------------------------------------------

    def _failed_over(self, segment: str) -> bool:
        """An upstream request died with TransportError: ask the resolver
        whether the segment now lives somewhere else (the relay-side
        mirror of the client's one-shot re-resolve).

        Returns True only when the re-resolved origin *differs* from the
        one the relay was using — the cluster promoted a backup (or
        rebound the segment) and a retry there can succeed.  The rebind
        itself (channel teardown, binding rewrite, re-subscription) is
        done by :meth:`_rebind_after_failover` before this returns, so
        the caller's retry already routes to the new origin.
        """
        if self.resolver is None or self._closed:
            return False
        dead = self._origin_of(segment)
        try:
            self.resolver.invalidate(segment)
            fresh = self.resolver.resolve(segment)
        except (SegmentError, TransportError):
            return False
        if fresh == dead:
            return False  # nothing to fail over to
        self._rebind_after_failover(dead, fresh)
        self._counts.failovers_followed.inc()
        _log.info("relay %r failed over %r: %r -> %r",
                  self.name, segment, dead, fresh)
        return True

    def _rebind_after_failover(self, dead: str, fresh: str) -> None:
        """Tear down everything that routes through ``dead`` and rebind
        it to the re-resolved origin.

        Order matters on hub-style transports that register channels by
        client id: the dead channels must be *closed first*, otherwise
        closing them after their replacements exist would deregister the
        replacements (same client id) and pushes would vanish silently.
        """
        reattach: list = []
        with self._failover_lock:
            # 1. close every channel pointed at the dead origin (before
            #    any replacement is opened — see docstring)
            with self._channel_lock:
                casualties = []
                own = self._own_channels.pop(dead, None)
                if own is not None:
                    casualties.append(own)
                for key in [k for k in self._up_channels if k[0] == dead]:
                    casualties.append(self._up_channels.pop(key))
            for channel in casualties:
                try:
                    channel.close()
                except Exception:  # noqa: BLE001 — best-effort teardown
                    pass
            # 2. rebind every segment the relay routes at the dead origin,
            #    re-resolving each (a promotion rebinds them all to the
            #    backup; a partial rebind may scatter them)
            with self._table_lock:
                known = list(self._entries)
            with self._binding_lock:
                affected = {segment for segment, (origin, _generation)
                            in self._bindings.items() if origin == dead}
            affected.update(s for s in known if self._origin_of(s) == dead)
            generation_of = getattr(self.resolver, "generation_of", None)
            for segment in sorted(affected):
                try:
                    self.resolver.invalidate(segment)
                    target = self.resolver.resolve(segment)
                except (SegmentError, TransportError):
                    target = fresh
                generation = 0
                if callable(generation_of):
                    try:
                        generation = int(generation_of(segment))
                    except (InterWeaveError, TypeError, ValueError):
                        generation = 0
                with self._binding_lock:
                    current = self._bindings.get(segment)
                    if current is not None:
                        # a stale redirect must never resurrect the dead
                        # origin, whatever generation the resolver knows
                        generation = max(generation, current[1] + 1)
                    self._bindings[segment] = (target, generation)
                entry = self._lookup(segment)
                if entry is not None:
                    with entry.lock:
                        # pushes from the dead origin are gone and the new
                        # origin has never heard of us: nothing is fresh
                        # until we re-validate and re-subscribe
                        entry.upstream_subscribed = False
                        entry.fresh_until = float("-inf")
                    if entry.coherence.subscriber_count():
                        reattach.append(entry)
        # 3. re-attach push fan-out asynchronously: refresh + re-subscribe
        #    each entry with local subscribers, then re-push invalidations.
        #    Not inline — the failover may have been detected *inside* a
        #    refresh (refresh_lock held), and the retried request itself
        #    re-subscribes its own segment on the way out.
        if reattach:
            threading.Thread(target=self._reattach, args=(reattach,),
                             name=f"proxy-reattach-{self.name}",
                             daemon=True).start()

    def _reattach(self, entries) -> None:
        for entry in entries:
            if self._closed:
                return
            try:
                self._refresh(entry, force=True)
            except InterWeaveError:
                _log.warning("failover re-attach refresh for %r failed",
                             entry.name, exc_info=True)
                continue
            self._push_local_invalidations(entry)

    # -- segment table ------------------------------------------------------------

    def _lookup(self, segment: str) -> Optional[_SegmentRelay]:
        with self._table_lock:
            return self._entries.get(segment)

    def _ensure_entry(self, segment: str) -> _SegmentRelay:
        with self._table_lock:
            entry = self._entries.get(segment)
            if entry is None:
                entry = _SegmentRelay(segment)
                self._entries[segment] = entry
        return entry

    def _drop_entry(self, segment: str) -> None:
        with self._table_lock:
            self._entries.pop(segment, None)
        self.diff_cache.invalidate_segment(segment)

    # -- dispatcher entry point ---------------------------------------------------

    def dispatch(self, client_id: str, data: bytes) -> bytes:
        started = time.perf_counter()
        self._m_requests.inc()
        try:
            request = decode_message(data)
            reply = self._handle(client_id, request, data)
        except InterWeaveError as exc:
            self._m_errors.inc()
            reply = ErrorReply(str(exc))
        except Exception as exc:  # noqa: BLE001 — must answer, not unwind
            self._m_errors.inc()
            _log.exception("unhandled exception relaying request from %r",
                           client_id)
            reply = ErrorReply(
                f"internal proxy error: {type(exc).__name__}: {exc}")
        self._m_dispatch.observe(time.perf_counter() - started)
        # a forwarded reply is already the origin's bytes
        return reply if isinstance(reply, bytes) else encode_message(reply)

    def _handle(self, client_id: str, request: Message,
                raw: bytes) -> Union[Message, bytes]:
        if isinstance(request, GetStatsRequest):
            return self._get_stats()
        if isinstance(request, SubscribeRequest):
            return self._subscribe(client_id, request)
        if isinstance(request, LockAcquireRequest) and request.mode == LOCK_READ:
            return self._validate_read(client_id, request, raw)
        if isinstance(request, LockReleaseRequest) and request.mode == LOCK_READ:
            return self._release_read(client_id, request, raw)
        if isinstance(request, FetchRequest) and not request.meta_only:
            return self._fetch(client_id, request, raw)
        # opens, write-lock traffic, deletes, meta-only fetches: the
        # origin is authoritative
        return self._forward(client_id, request, raw)

    # -- forwarding ---------------------------------------------------------------

    def _forward(self, client_id: str, request: Message,
                 raw: bytes) -> Union[Message, bytes]:
        """Send ``raw`` upstream; return the origin's reply bytes."""
        segment = getattr(request, "segment", None)
        origin = self._origin_of(segment)
        failed_over = False
        answer = None
        for _follow in range(1 + _REDIRECT_FOLLOWS):
            channel = self._client_channel(origin, client_id)
            try:
                answer = channel.request(raw)
                reply = decode_message(answer)
            except TransportError:
                if failed_over or segment is None or \
                        not self._failed_over(segment):
                    raise
                failed_over = True
                origin = self._origin_of(segment)
                continue
            if not (isinstance(reply, RedirectReply) and segment is not None):
                break
            self._counts.redirects_followed.inc()
            self._learn_binding(reply.segment, reply.origin, reply.generation)
            origin = reply.origin
        if answer is None:
            return ErrorReply(f"redirect chase for {segment!r} exceeded "
                              f"{_REDIRECT_FOLLOWS} hops")
        # a RedirectReply that survives the chase goes downstream: the
        # client's own resolver is the authority of last resort
        self._counts.forwards.inc()
        self._update_hit_rate()
        try:
            self._learn_from(client_id, request, reply)
        except InterWeaveError:
            # learning is an optimization; the reply is already correct
            _log.exception("proxy failed to absorb a forwarded reply")
        return answer

    def _learn_from(self, client_id: str, request: Message,
                    reply: Message) -> None:
        """Absorb whatever a forwarded reply reveals about the origin:
        the current version (freshness), update/write diffs (cache
        warm-up), and the client's resulting view (local staleness
        decisions)."""
        if isinstance(reply, ErrorReply):
            return
        now = self.clock.now()
        if isinstance(request, OpenSegmentRequest) and \
                isinstance(reply, OpenSegmentReply):
            entry = self._ensure_entry(request.segment)
            with entry.lock:
                self._observe_version(entry, reply.version, now)
        elif isinstance(request, LockAcquireRequest) and \
                isinstance(reply, LockAcquireReply):
            entry = self._ensure_entry(request.segment)
            policy = CoherencePolicy(request.coherence_kind,
                                     request.coherence_param)
            with entry.lock:
                self._observe_version(entry, reply.version, now)
                if reply.diff is not None:
                    self._absorb_diff(entry, reply.diff)
                if reply.granted:
                    if reply.diff is not None:
                        entry.coherence.on_client_updated(
                            client_id, reply.version, policy)
                    else:
                        self._sync_view(entry, client_id,
                                        request.client_version, policy)
        elif isinstance(request, LockReleaseRequest) and \
                isinstance(reply, LockReleaseReply) and \
                request.mode == LOCK_WRITE:
            entry = self._ensure_entry(request.segment)
            fanout = False
            with entry.lock:
                previous = entry.version
                self._observe_version(entry, reply.version, now)
                diff = request.diff
                if diff is not None and reply.version > diff.from_version and \
                        (diff.block_diffs or diff.new_types):
                    # stamp and cache the writer's bytes exactly as the
                    # origin does: they are the precise update every other
                    # reader of this segment needs next
                    self._absorb_diff(entry, diff, stamp=reply.version)
                    modified = sum(bd.covered_units()
                                   for bd in diff.block_diffs)
                    entry.coherence.on_new_version(modified)
                    entry.coherence.on_client_updated(
                        client_id, reply.version,
                        entry.coherence.view(client_id).policy)
                    fanout = reply.version > previous
            if fanout:
                # a write through the proxy re-propagates to local
                # subscribers even when upstream cannot push
                self._push_local_invalidations(entry)
        elif isinstance(request, FetchRequest) and isinstance(reply, FetchReply):
            entry = self._ensure_entry(request.segment)
            with entry.lock:
                self._observe_version(entry, reply.version, now)
                if reply.diff is not None:
                    self._absorb_diff(entry, reply.diff)
                    entry.coherence.on_client_updated(
                        client_id, reply.version,
                        entry.coherence.view(client_id).policy)
        elif isinstance(request, DeleteSegmentRequest) and \
                isinstance(reply, DeleteSegmentReply):
            if reply.deleted:
                self._drop_entry(request.segment)

    def _absorb_diff(self, entry: _SegmentRelay, diff: SegmentDiff,
                     stamp: Optional[int] = None) -> None:
        """Cache a diff's bytes as received, or stamped with the version a
        forwarded write release made; caller holds ``entry.lock``."""
        if stamp is None:
            to_version, encoded = diff.to_version, diff.wire
        else:
            to_version, encoded = stamp, stamped_wire(diff, stamp)
        self.diff_cache.put(entry.name, diff.from_version, to_version,
                            encoded)
        if diff.from_version <= entry.data_version:
            entry.data_version = max(entry.data_version, to_version)

    def _observe_version(self, entry: _SegmentRelay, version: int,
                         now: float) -> None:
        """An upstream reply or push named this origin version just now;
        caller holds ``entry.lock``."""
        if version > entry.version:
            entry.version = version
        entry.learned_times.setdefault(version, now)
        if len(entry.learned_times) > _TIMES_KEEP:
            keep = sorted(entry.learned_times)[len(entry.learned_times) // 2:]
            entry.times_floor = max(entry.times_floor, keep[0] - 1)
            entry.learned_times = {v: entry.learned_times[v] for v in keep}
        entry.fresh_until = max(entry.fresh_until, now + self.max_staleness)

    # -- freshness ----------------------------------------------------------------

    def _fresh(self, entry: _SegmentRelay, now: float) -> bool:
        """May ``entry.version`` be trusted as origin-current?

        Caller holds ``entry.lock``.  True within the staleness window of
        the last upstream contact, or while an upstream subscription is
        live *and* the last push has been fully absorbed (a failed
        refresh leaves ``data_version`` behind, which drops us back to
        demand refreshing until one succeeds — necessary because the
        origin suppresses further pushes until the relay revalidates).
        """
        if now <= entry.fresh_until:
            return True
        return (entry.upstream_subscribed
                and entry.data_version >= entry.version)

    def _ensure_fresh(self, entry: _SegmentRelay) -> None:
        with entry.lock:
            if self._fresh(entry, self.clock.now()):
                return
        self._refresh(entry)

    def _refresh(self, entry: _SegmentRelay, force: bool = False) -> None:
        """One upstream read validation, single-flighted per segment.

        Uses a read validation rather than a fetch because validation is
        the request that resets the origin's ``notified`` flag for the
        relay's subscription — without that, the origin would suppress
        every push after the first.
        """
        with entry.refresh_lock:
            with entry.lock:
                if not force and self._fresh(entry, self.clock.now()):
                    return  # another thread already paid for the refresh
                base = entry.data_version
            reply = self._own_request(LockAcquireRequest(
                entry.name, LOCK_READ, self._own_id, client_version=base,
                coherence_kind=COHERENCE_FULL), segment=entry.name)
            if not isinstance(reply, LockAcquireReply):
                raise ServerError(
                    f"origin answered a refresh with {type(reply).__name__}")
            self._counts.refreshes.inc()
            now = self.clock.now()
            with entry.lock:
                self._observe_version(entry, reply.version, now)
                if reply.diff is not None:
                    self._absorb_diff(entry, reply.diff)
                else:
                    entry.data_version = max(entry.data_version, reply.version)
            self._ensure_upstream_subscription(entry)

    def _ensure_upstream_subscription(self, entry: _SegmentRelay) -> None:
        """Subscribe the relay itself upstream (push transports only), so
        one origin push covers every local subscriber."""
        if not self._own(self._origin_of(entry.name)).can_push:
            return
        with entry.lock:
            if entry.upstream_subscribed:
                return
        reply = self._own_request(
            SubscribeRequest(entry.name, self._own_id, True),
            segment=entry.name)
        if isinstance(reply, SubscribeReply) and reply.enabled:
            with entry.lock:
                entry.upstream_subscribed = True

    # -- upstream pushes ----------------------------------------------------------

    def _on_upstream_push(self, data: bytes) -> None:
        """The origin invalidated a segment: refresh once, re-push to all
        local subscribers whose bound broke."""
        try:
            message = decode_message(data)
        except InterWeaveError:
            _log.warning("undecodable push from origin dropped")
            return
        if not isinstance(message, NotifyInvalidate):
            return
        entry = self._lookup(message.segment)
        if entry is None:
            return
        with entry.lock:
            self._observe_version(entry, message.version, self.clock.now())
        try:
            self._refresh(entry, force=True)
        except InterWeaveError:
            # decisions can still ride the pushed version number; data
            # requests will forward until a refresh succeeds
            _log.warning("refresh after invalidation push failed",
                         exc_info=True)
        self._push_local_invalidations(entry)

    def _push_local_invalidations(self, entry: _SegmentRelay) -> None:
        now = self.clock.now()
        with entry.lock:
            version = entry.version
            stale = entry.coherence.stale_subscribers(
                version, 0, now,
                lambda v: self._superseded_at(entry, v))
        if not stale:
            return
        message = encode_message(NotifyInvalidate(entry.name, version))
        for view in stale:
            if self.sink.push(view.client_id, message):
                if view.version < version:
                    view.notified = True
                self._counts.notifications_pushed.inc()

    # -- the staleness decision ---------------------------------------------------

    def _superseded_at(self, entry: _SegmentRelay,
                       client_version: int) -> Optional[float]:
        """When did ``client_version`` stop being current, by relay
        knowledge?  Caller holds ``entry.lock``.

        The relay learns versions later than the origin created them, so
        exact times are not always known.  The estimate errs toward
        *earlier* (more stale): if the successor's time is unknown, the
        earliest learn-time of any later version bounds it from above,
        and a version below the pruning floor is treated as superseded
        forever ago.
        """
        exact = entry.learned_times.get(client_version + 1)
        if exact is not None:
            return exact
        if client_version >= entry.version:
            return None  # still current
        if client_version < entry.times_floor:
            return float("-inf")
        later = [when for version, when in entry.learned_times.items()
                 if version > client_version]
        return min(later) if later else float("-inf")

    def _sync_view(self, entry: _SegmentRelay, client_id: str,
                   client_version: int, policy: CoherencePolicy) -> None:
        """Record policy/version without resetting the Diff counter
        (mirrors the origin's ``_sync_view``)."""
        view = entry.coherence.view(client_id)
        view.policy = policy
        view.version = client_version
        view.notified = False

    # -- locally served reads -----------------------------------------------------

    def _validate_read(self, client_id: str, request: LockAcquireRequest,
                       raw: bytes) -> Union[Message, bytes]:
        policy = CoherencePolicy(request.coherence_kind,
                                 request.coherence_param)
        if policy.kind == COHERENCE_DIFF:
            # the Diff bound is defined against the origin's authoritative
            # modified-units accounting; evaluating it here would be a guess
            return self._forward(client_id, request, raw)
        entry = self._lookup(request.segment)
        if entry is None:
            return self._forward(client_id, request, raw)
        try:
            self._ensure_fresh(entry)
        except InterWeaveError:
            return self._forward(client_id, request, raw)
        now = self.clock.now()
        with entry.lock:
            version = entry.version
            if request.client_version > version:
                stale = None  # client knows a newer version than the relay
            else:
                view = entry.coherence.view(client_id)
                if view.version != request.client_version:
                    # relay bookkeeping does not describe this cache
                    # (restart or first contact): be conservative
                    stale = request.client_version < version
                else:
                    view.policy = policy
                    stale = entry.coherence.is_stale(
                        view, version, 0, now,
                        self._superseded_at(entry, request.client_version))
        if stale is None:
            return self._forward(client_id, request, raw)
        if not stale:
            with entry.lock:
                self._sync_view(entry, client_id, request.client_version,
                                policy)
            self._count_hit()
            return LockAcquireReply(granted=True, version=version,
                                    lease_remaining=0.0, diff=None)
        diff = self._cached_update(entry, request.client_version, version)
        if diff is None:
            return self._forward(client_id, request, raw)
        with entry.lock:
            entry.coherence.on_client_updated(client_id, version, policy)
        self._count_hit()
        return LockAcquireReply(granted=True, version=version,
                                lease_remaining=0.0, diff=diff)

    def _fetch(self, client_id: str, request: FetchRequest,
               raw: bytes) -> Union[Message, bytes]:
        entry = self._lookup(request.segment)
        if entry is None:
            return self._forward(client_id, request, raw)
        try:
            self._ensure_fresh(entry)
        except InterWeaveError:
            return self._forward(client_id, request, raw)
        with entry.lock:
            version = entry.version
        if request.client_version > version:
            return self._forward(client_id, request, raw)
        if request.client_version >= version:
            self._count_hit()
            return FetchReply(version=version, diff=None)
        diff = self._cached_update(entry, request.client_version, version)
        if diff is None:
            return self._forward(client_id, request, raw)
        with entry.lock:
            view = entry.coherence.view(client_id)
            entry.coherence.on_client_updated(client_id, version, view.policy)
        self._count_hit()
        return FetchReply(version=version, diff=diff)

    def _release_read(self, client_id: str, request: LockReleaseRequest,
                      raw: bytes) -> Union[Message, bytes]:
        entry = self._lookup(request.segment)
        if entry is None:
            return self._forward(client_id, request, raw)
        with entry.lock:
            version = entry.version
        self._count_hit()
        return LockReleaseReply(version=version)

    def _cached_update(self, entry: _SegmentRelay, from_version: int,
                       to_version: int) -> Optional[bytes]:
        """The encoded update: cached bytes as they are, or a cached chain
        composed and encoded once for cache and reply; None → forward."""
        if from_version >= to_version:
            return None
        encoded = self.diff_cache.get(entry.name, from_version, to_version)
        if encoded is not None:
            return encoded
        diff = compose_from_cache(self.diff_cache, entry.name, from_version,
                                  to_version, max_span=self.compose_limit)
        if diff is None:
            return None
        encoded = encode_segment_diff(diff)
        self.diff_cache.put(entry.name, from_version, to_version, encoded)
        return encoded

    # -- subscriptions ------------------------------------------------------------

    def _subscribe(self, client_id: str, request: SubscribeRequest) -> Message:
        entry = self._lookup(request.segment)
        if entry is None:
            # a subscription is only meaningful for a segment the origin
            # has; open it (without creating) to materialize the relay entry
            reply = self._own_request(
                OpenSegmentRequest(request.segment, create=False,
                                   client_id=self._own_id),
                segment=request.segment)
            if not isinstance(reply, OpenSegmentReply):
                raise ServerError(
                    f"origin answered an open with {type(reply).__name__}")
            entry = self._ensure_entry(request.segment)
            with entry.lock:
                self._observe_version(entry, reply.version, self.clock.now())
        entry.coherence.subscribe(client_id, request.enable)
        if request.enable:
            self._ensure_upstream_subscription(entry)
        with self._table_lock:
            entries = list(self._entries.values())
        self._m_fanout.set(sum(e.coherence.subscriber_count()
                               for e in entries))
        return SubscribeReply(enabled=request.enable)

    # -- introspection ------------------------------------------------------------

    def _count_hit(self) -> None:
        self._counts.hits.inc()
        self._update_hit_rate()

    def _update_hit_rate(self) -> None:
        hits = self._counts.hits.value
        total = hits + self._counts.forwards.value
        if total:
            self._m_hit_rate.set(hits / total)

    def _get_stats(self) -> Message:
        return GetStatsReply(json.dumps(self.stats_snapshot(), sort_keys=True))

    def stats_snapshot(self) -> dict:
        """Mirror of the origin's snapshot shape (``server`` + ``metrics``
        sections, so the stats CLI renders a proxy unchanged) plus a
        ``proxy`` section with the relay-specific numbers."""
        with self._table_lock:
            entries = dict(self._entries)
        segments = {}
        for name, entry in entries.items():
            with entry.lock:
                segments[name] = {
                    "version": entry.version,
                    "data_version": entry.data_version,
                    "upstream_subscribed": entry.upstream_subscribed,
                    "subscribers": entry.coherence.subscriber_count(),
                }
        hits, forwards = self.stats.hits, self.stats.forwards
        with self._binding_lock:
            bindings = {segment: {"origin": origin, "generation": generation}
                        for segment, (origin, generation)
                        in sorted(self._bindings.items())}
        return {
            "server": {"name": self.name, "segments": segments},
            "proxy": {
                "origin": self.origin,
                "hits": hits,
                "forwards": forwards,
                "refreshes": self.stats.refreshes,
                "notifications_pushed": self.stats.notifications_pushed,
                "redirects_followed": self.stats.redirects_followed,
                "failovers_followed": self.stats.failovers_followed,
                "bindings": bindings,
                "hit_rate": hits / (hits + forwards) if hits + forwards else 0.0,
                "diff_cache_bytes": self.diff_cache.used_bytes,
            },
            "metrics": self.metrics.snapshot(),
        }

    def close(self) -> None:
        """Close every upstream channel (downstream transports are owned
        by whoever built them)."""
        if self._closed:
            return
        self._closed = True
        with self._channel_lock:
            channels = list(self._up_channels.values())
            channels.extend(self._own_channels.values())
            self._up_channels.clear()
            self._own_channels.clear()
        for channel in channels:
            try:
                channel.close()
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
