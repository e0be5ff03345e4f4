"""The server's diff cache.

The server keeps a cache of recently received or recently collected diffs.
A diff from version ``a`` to version ``b`` of a segment is immutable, so a
cached entry can answer any future request for the same (segment, a, b)
pair without re-collecting — the common case being one client's write diff
(a = b-1) forwarded verbatim to every other full-coherence reader.

The cache is LRU-bounded by total payload bytes.

The cache is shared by every segment the server hosts, and with
per-segment dispatch locking (see ``repro.server.server``) requests on
*different* segments hit it concurrently — so it carries its own lock.
All operations are short (dict lookups and byte-count arithmetic; payloads
are never copied), so one plain mutex is cheap even on the read path.

Retention invariant: entries must be immutable ``bytes`` the caller
hands over for keeps — the release path stores the *same* buffer the
WAL writes and the replication sender later ships, and decoders hand out
``memoryview`` slices over a cached entry (``compose_from_cache``), so
a mutable or recycled buffer here would alias live diff data.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

from repro.obs.metrics import MetricsRegistry, OwnerCounters, get_registry

Key = Tuple[str, int, int]  # (segment, from_version, to_version)


class DiffCache:
    """LRU cache of encoded segment diffs, bounded by byte budget.

    Thread-safe: callers may ``get``/``put``/``invalidate_segment``
    concurrently from any number of dispatch threads.

    Each cache counts its own hits, misses and evictions (experiments
    assert on one server's cache); the registry's ``diff_cache.*``
    counters sum them over every cache, so the stats CLI and benchmark
    sidecars see them alongside every other subsystem.
    """

    def __init__(self, capacity_bytes: int = 16 * 1024 * 1024,
                 metrics: Optional[MetricsRegistry] = None):
        if capacity_bytes < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Key, bytes]" = OrderedDict()
        self._bytes = 0
        self._counts = OwnerCounters(self, metrics or get_registry(), "diff_cache", {
            "hits": "encoded diffs served from a diff cache",
            "misses": "diff cache lookups that found nothing",
            "evictions": "entries evicted by the byte budget",
        }).parts

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self._bytes

    @property
    def hits(self) -> int:
        return self._counts.hits.value

    @property
    def misses(self) -> int:
        return self._counts.misses.value

    def get(self, segment: str, from_version: int, to_version: int) -> Optional[bytes]:
        key = (segment, from_version, to_version)
        with self._lock:
            encoded = self._entries.get(key)
            if encoded is not None:
                self._entries.move_to_end(key)
        if encoded is None:
            self._counts.misses.inc()
            return None
        self._counts.hits.inc()
        return encoded

    def peek(self, segment: str, from_version: int,
             to_version: int) -> Optional[bytes]:
        """The cached entry, or None, without counting a hit or miss or
        refreshing its LRU position: replication reads here, and the
        tallies measure reader traffic."""
        with self._lock:
            return self._entries.get((segment, from_version, to_version))

    def put(self, segment: str, from_version: int, to_version: int,
            encoded: bytes) -> None:
        if len(encoded) > self.capacity_bytes:
            return  # would evict everything for one oversized entry
        key = (segment, from_version, to_version)
        evictions = 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old)
            self._entries[key] = encoded
            self._bytes += len(encoded)
            while self._bytes > self.capacity_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted)
                evictions += 1
        if evictions:
            self._counts.evictions.inc(evictions)

    def entries_for(self, segment: str) -> "list[Tuple[int, int, bytes]]":
        """Snapshot every cached diff for one segment, LRU order.

        Used by live migration to re-seed the target origin's cache, so
        readers validating against the new server keep hitting encoded
        diffs instead of forcing rebuilds from subblock versions.
        """
        with self._lock:
            return [(from_v, to_v, encoded)
                    for (name, from_v, to_v), encoded in self._entries.items()
                    if name == segment]

    def invalidate_segment(self, segment: str) -> None:
        """Drop every entry for one segment (used on checkpoint restore)."""
        with self._lock:
            stale = [key for key in self._entries if key[0] == segment]
            for key in stale:
                self._bytes -= len(self._entries.pop(key))

    @property
    def hit_rate(self) -> float:
        hits = self._counts.hits.value
        total = hits + self._counts.misses.value
        return hits / total if total else 0.0
