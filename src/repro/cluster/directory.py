"""The segment directory: the cluster's authoritative name service.

A :class:`SegmentDirectory` owns the ``segment → origin`` map for a set
of origin servers.  Placement policy is a consistent-hash ring
(:class:`~repro.cluster.ring.HashRing`) with explicit per-segment *pin*
overrides; a binding is **materialized** the first time a segment is
looked up and is stable from then on — membership changes never silently
rebind a segment, because the data is still where it was.  Moving data
is what :class:`~repro.cluster.ClusterCoordinator` does, and it tells
the directory via :meth:`bind` once the bytes have landed.

Every binding carries a *generation* stamp from a directory-global
counter that bumps on every bind and membership change.  Generations
order redirects: a client holding a binding at generation g ignores any
redirect stamped older than g, so a laggard server's stale tombstone
can never send traffic backwards.

The directory is a :class:`~repro.transport.Dispatcher` speaking the
same codec as servers (DirectoryLookup / DirectoryUpdate / GetStats),
so it serves over an in-process hub or a TCP transport unchanged.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.cluster.ring import HashRing
from repro.errors import InterWeaveError, ServerError
from repro.obs.metrics import MetricsRegistry, OwnerCounters, get_registry
from repro.transport.base import Dispatcher
from repro.wire.messages import (
    DIR_ADD_ORIGIN,
    DIR_MIGRATE,
    DIR_PIN,
    DIR_REMOVE_ORIGIN,
    DIR_UNPIN,
    DirectoryLookupReply,
    DirectoryLookupRequest,
    DirectoryUpdateReply,
    DirectoryUpdateRequest,
    ErrorReply,
    GetStatsReply,
    GetStatsRequest,
    Message,
    decode_message,
    encode_message,
)


@dataclass
class _Binding:
    origin: str
    generation: int
    pinned: bool = False


class SegmentDirectory(Dispatcher):
    """Consistent-hash segment placement with pins and generations.

    ``migrator(segment, target)`` is an optional hook (installed by a
    :class:`~repro.cluster.ClusterCoordinator`) that performs a live
    migration when a ``DIR_MIGRATE`` update arrives over the wire; with
    no migrator attached such updates are rejected.
    """

    def __init__(self, name: str = "directory",
                 origins: Iterable[str] = (),
                 replicas: int = 64,
                 metrics: Optional[MetricsRegistry] = None):
        self.name = name
        self.metrics = metrics or get_registry()
        self.ring = HashRing(origins, replicas=replicas)
        self.migrator: Optional[Callable[[str, str], int]] = None
        self._bindings: Dict[str, _Binding] = {}
        self._generation = 1
        self._lock = threading.Lock()
        self._counts = OwnerCounters(self, self.metrics, "cluster", {
            "lookups": "directory lookups answered",
            "directory_updates": "membership/pin/migrate updates applied",
            "migrations_completed": "live migrations driven to commit",
        }).parts

    # -- bindings -----------------------------------------------------------------

    @property
    def generation(self) -> int:
        with self._lock:
            return self._generation

    def lookup(self, segment: str) -> Tuple[str, int, bool]:
        """Resolve ``segment`` → (origin, generation, pinned).

        First contact materializes the binding from the ring; it then
        stays put until an explicit :meth:`bind` (migration) changes it.
        """
        with self._lock:
            binding = self._bindings.get(segment)
            if binding is None:
                binding = _Binding(self.ring.lookup(segment),
                                   self._generation)
                self._bindings[segment] = binding
            self._counts.lookups.inc()
            return binding.origin, binding.generation, binding.pinned

    def bind(self, segment: str, origin: str, pinned: bool = True) -> int:
        """Rebind a segment (data has moved); returns the new generation.

        ``pinned`` marks the binding as an explicit override; rebalance
        leaves pinned segments alone even when the ring disagrees.
        """
        with self._lock:
            if origin not in self.ring:
                raise ServerError(f"unknown origin {origin!r}")
            self._generation += 1
            self._bindings[segment] = _Binding(origin, self._generation,
                                               pinned)
            return self._generation

    def pin(self, segment: str, origin: str) -> int:
        """Pin a segment's *future* placement (no data movement here —
        use the coordinator to move an already-materialized segment)."""
        return self.bind(segment, origin, pinned=True)

    def unpin(self, segment: str) -> int:
        """Drop a pin; the binding stays until a rebalance moves it."""
        with self._lock:
            binding = self._bindings.get(segment)
            if binding is None:
                raise ServerError(f"no binding for segment {segment!r}")
            binding.pinned = False
            self._generation += 1
            binding.generation = self._generation
            return self._generation

    # -- membership ---------------------------------------------------------------

    def add_origin(self, origin: str) -> int:
        with self._lock:
            self.ring.add(origin)
            self._generation += 1
            return self._generation

    def remove_origin(self, origin: str) -> int:
        """Remove an origin from the ring.

        Existing bindings to it stay (the data is still there) — run the
        coordinator's ``remove_origin``/``rebalance`` to drain it first.
        """
        with self._lock:
            if not self.ring.remove(origin):
                raise ServerError(f"unknown origin {origin!r}")
            self._generation += 1
            return self._generation

    def bindings_on(self, origin: str) -> List[str]:
        """Segments currently bound to ``origin``."""
        with self._lock:
            return sorted(name for name, binding in self._bindings.items()
                          if binding.origin == origin)

    def plan_rebalance(self) -> List[Tuple[str, str, str]]:
        """(segment, current origin, ring target) for every unpinned
        binding the current ring membership would place elsewhere."""
        with self._lock:
            plan = []
            for name in sorted(self._bindings):
                binding = self._bindings[name]
                if binding.pinned:
                    continue
                target = self.ring.lookup(name)
                if target != binding.origin:
                    plan.append((name, binding.origin, target))
            return plan

    def record_migration(self) -> None:
        """A coordinator drove one migration to commit."""
        self._counts.migrations_completed.inc()

    # -- dispatcher ---------------------------------------------------------------

    def dispatch(self, client_id: str, data: bytes) -> bytes:
        try:
            request = decode_message(data)
            reply = self._handle(client_id, request)
        except InterWeaveError as exc:
            reply = ErrorReply(str(exc))
        except Exception as exc:  # noqa: BLE001 — must answer, not unwind
            reply = ErrorReply(
                f"internal directory error: {type(exc).__name__}: {exc}")
        return encode_message(reply)

    def _handle(self, client_id: str, request) -> Message:
        if isinstance(request, DirectoryLookupRequest):
            origin, generation, pinned = self.lookup(request.segment)
            return DirectoryLookupReply(origin=origin, generation=generation,
                                        pinned=pinned)
        if isinstance(request, DirectoryUpdateRequest):
            return self._update(request)
        if isinstance(request, GetStatsRequest):
            return GetStatsReply(json.dumps(self.stats_snapshot(),
                                            sort_keys=True))
        raise ServerError(
            f"directory cannot handle {type(request).__name__}")

    def _update(self, request: DirectoryUpdateRequest) -> Message:
        if request.op == DIR_ADD_ORIGIN:
            generation = self.add_origin(request.origin)
        elif request.op == DIR_REMOVE_ORIGIN:
            generation = self.remove_origin(request.origin)
        elif request.op == DIR_PIN:
            generation = self.pin(request.segment, request.origin)
        elif request.op == DIR_UNPIN:
            generation = self.unpin(request.segment)
        elif request.op == DIR_MIGRATE:
            if self.migrator is None:
                raise ServerError("directory has no migration coordinator")
            generation = self.migrator(request.segment, request.origin)
        else:
            raise ServerError(f"unknown directory op {request.op}")
        self._counts.directory_updates.inc()
        return DirectoryUpdateReply(ok=True, generation=generation)

    # -- introspection ------------------------------------------------------------

    def stats_snapshot(self) -> dict:
        """Snapshot shaped like a server's (``server`` + ``metrics``
        sections, so the stats CLI renders it) plus the ``cluster``
        section the GetStats satellite specifies: ring membership, the
        binding generation, and migration/redirect tallies."""
        with self._lock:
            bindings = {name: {"origin": binding.origin,
                               "generation": binding.generation,
                               "pinned": binding.pinned}
                        for name, binding in sorted(self._bindings.items())}
            generation = self._generation
            origins = self.ring.origins
        return {
            "server": {"name": self.name, "segments": {}},
            "cluster": {
                "role": "directory",
                "origins": origins,
                "ring_replicas": self.ring.replicas,
                "generation": generation,
                "bindings": bindings,
                "pinned": sum(1 for b in bindings.values() if b["pinned"]),
                "lookups": self._counts.lookups.value,
                "updates": self._counts.directory_updates.value,
                "migrations_completed": self._counts.migrations_completed.value,
            },
            "metrics": self.metrics.snapshot(),
        }
