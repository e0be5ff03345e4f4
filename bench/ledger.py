"""The traced run: spans around every call into a layer, measured from
outside the program, and the per-layer metrics derived from them.

Three sources, in order of preference:

1. **what the program already measures** — registry counters and
   histograms: the driver's own (process-wide) registry for the two
   clients, and ``GetStats`` pulled from every server-side hop before
   and after a window.  Every *count* and every server-side *time* the
   program exposes comes from here, taken over an untraced window.
2. **spans the program already records** — the client ``Tracer``'s
   ``client.wl_acquire`` / ``client.wl_release`` / ``client.apply_update``
   and the client's collect timers.
3. **the benchmark's own spans** — the driver's sections, a recording
   :class:`~repro.transport.base.Channel` wrapper that times each RPC by
   message type, and in-process *probes* that replay the captured
   request/reply bytes through each layer's public entry point
   (``decode_message`` / ``encode_message``, ``InterWeaveServer.dispatch``,
   ``CachingProxy.dispatch``, ``ServerSegment.apply_client_diff`` /
   ``build_update``, ``encode_segment_diff``, ``WriteAheadLog.append``)
   on a shadow copy of the server that sees every request the real one
   saw, in order.  Probes run after the sections they explain, never
   inside them.

A traced run is: set-up → traced warm-up → traced window → untraced
window.  Times per section come from the traced window, counts and the
program's own histograms from the untraced one; the difference between
the two windows' section medians is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

from repro import (CachingProxy, InProcHub, InterWeaveServer, MetricsRegistry,
                   Tracer, WriteAheadLog, get_registry)
from repro.server.segment_state import ServerSegment
from repro.transport.base import Channel, Dispatcher
from repro.wire import encode_segment_diff
from repro.wire.messages import (FetchRequest, LockAcquireRequest,
                                 LockReleaseRequest, OpenSegmentRequest,
                                 SubscribeRequest, decode_message,
                                 encode_message)

import driver
from topology import SERVER_NAME

_REQUEST_NAMES = {cls.TAG: cls.__name__ for cls in (
    OpenSegmentRequest, LockAcquireRequest, LockReleaseRequest, FetchRequest,
    SubscribeRequest)}
#: the concurrent workload's probes run after its window; this many
#: requests (a gap-free prefix, so the shadow stays consistent) are
#: enough for stable medians
REPLAY_LIMIT = 6000
#: spans written to the trace file (all of them feed the metrics)
TRACE_FILE_SPANS = 20000


class Recorder:
    """Collects ``(rpc span id, client id, request, reply)`` from every
    client channel of a traced run, in completion order."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        #: off for the untraced window: requests pass straight through
        self.active = True
        self.calls: List[tuple] = []
        self._lock = threading.Lock()

    def wrap(self, connector):
        def connect(server_name: str, client_id: str) -> Channel:
            return RecordingChannel(connector(server_name, client_id),
                                    client_id, self)
        return connect

    def record(self, call: tuple) -> None:
        with self._lock:
            self.calls.append(call)

    def drain(self) -> List[tuple]:
        with self._lock:
            calls, self.calls = self.calls, []
        return calls


class RecordingChannel(Channel):
    """The benchmark's timing wrapper: one ``transport.rpc`` span per
    request, tagged by message type, and the bytes kept for the probes.
    Byte and request accounting stays with the wrapped channel."""

    def __init__(self, inner: Channel, client_id: str, recorder: Recorder):
        self.inner = inner
        super().__init__()
        self.stats = inner.stats
        self._client_id = client_id
        self._recorder = recorder

    can_push = property(lambda self: self.inner.can_push)

    @property
    def reconnect_listener(self):
        return self.inner.reconnect_listener

    @reconnect_listener.setter
    def reconnect_listener(self, listener) -> None:
        self.inner.reconnect_listener = listener

    def request(self, data: bytes) -> bytes:
        if not self._recorder.active:
            return self.inner.request(data)
        message = _REQUEST_NAMES.get(data[0], str(data[0]))
        with self._recorder.tracer.span(
                "transport.rpc", message=message, client=self._client_id,
                request_bytes=len(data)) as span:
            reply = self.inner.request(data)
            span.set_attr("reply_bytes", len(reply))
        self._recorder.record((span.span_id, self._client_id, data, reply))
        return reply

    def set_notification_handler(self, handler) -> None:
        self.inner.set_notification_handler(handler)

    def health(self) -> dict:
        return self.inner.health()

    def close(self) -> None:
        self.inner.close()


class _Spanned(Dispatcher):
    """A dispatcher whose every dispatch is one probe span, labelled
    with the request the shadow is replaying."""

    def __init__(self, inner: Dispatcher, shadow: "Shadow", name: str):
        self.inner = inner
        self.shadow = shadow
        self.name = name

    def dispatch(self, client_id: str, data: bytes) -> bytes:
        with self.shadow.probe(self.name):
            return self.inner.dispatch(client_id, data)


class Shadow:
    """An in-process copy of the serving side, fed every request the
    real servers saw so that its state (versions, block contents, diff
    cache) tracks theirs and each probe runs on realistic input."""

    def __init__(self, workload, tracer: Tracer, workdir: str):
        self.tracer = tracer
        self.segment_name = workload.segment_name
        #: (message type, rpc span id) of the request being replayed
        self.current = ("", None)
        # the shadow's own counters stay out of the driver's registry
        registry = MetricsRegistry()
        self.server = InterWeaveServer(
            SERVER_NAME, wal_dir=os.path.join(workdir, "shadow-server-wal"),
            wal_fsync=True, metrics=registry)
        self.origin = _Spanned(self.server, self, "server.dispatch")
        self.relay: Optional[_Spanned] = None
        self.proxy: Optional[CachingProxy] = None
        if workload.relay:
            hub = InProcHub()
            hub.register_server(SERVER_NAME, self.origin)
            self.proxy = CachingProxy(SERVER_NAME, connector=hub.connect,
                                      metrics=registry)
            self.relay = _Spanned(self.proxy, self, "proxy.dispatch")
        self.segment = ServerSegment(workload.segment_name)
        self.wal = WriteAheadLog(os.path.join(workdir, "shadow-probe-wal"),
                                 fsync=True, metrics=registry)

    def probe(self, name: str):
        message, explains = self.current
        return self.tracer.span(name, message=message, explains=explains,
                                probe=True)

    def replay(self, call: tuple) -> None:
        explains, client_id, request, reply = call
        self.current = (_REQUEST_NAMES.get(request[0], str(request[0])),
                        explains)
        with self.probe("wire.decode_request"):
            message = decode_message(request)
        with self.probe("wire.encode_request"):
            encode_message(message)
        (self.relay or self.origin).dispatch(client_id, request)
        with self.probe("wire.decode_reply"):
            answer = decode_message(reply)
        with self.probe("wire.encode_reply"):
            encode_message(answer)
        if isinstance(message, LockReleaseRequest) and message.diff is not None:
            self._replay_commit(message.diff)

    def _replay_commit(self, diff) -> None:
        """The pieces of a write release's dispatch, one span each."""
        from_version = diff.from_version
        with self.probe("server.apply"):
            version = self.segment.apply_client_diff(diff, now=time.monotonic())
        for block_diff in diff.block_diffs:
            block_diff.version = version
        diff.to_version = version
        with self.probe("wire.encode_diff"):
            encoded = encode_segment_diff(diff)
        with self.probe("server.wal_append"):
            self.wal.append(self.segment_name, from_version, version, encoded)
        with self.probe("server.update_build"):
            self.segment.build_update(from_version)

    def close(self) -> None:
        if self.proxy is not None:
            self.proxy.close()
        self.server.close()
        self.wal.close()


# -- registry arithmetic -------------------------------------------------------

def _delta(after: dict, before: dict) -> dict:
    """``after - before`` for two registry snapshots (gauges: ``after``)."""
    counters = {name: value - before["counters"].get(name, 0)
                for name, value in after["counters"].items()}
    histograms = {}
    for name, hist in after["histograms"].items():
        earlier = before["histograms"].get(name, {"count": 0, "sum": 0.0})
        histograms[name] = {"count": hist["count"] - earlier["count"],
                            "sum": hist["sum"] - earlier["sum"]}
    return {"counters": counters, "histograms": histograms,
            "gauges": dict(after["gauges"])}


class Window:
    """Registry movement over one window: the driver's registry under
    ``driver``, one entry per server-side hop from ``GetStats``."""

    def __init__(self, session: driver.Session):
        self._session = session
        self._before = self._snapshots()
        self.deltas: Dict[str, dict] = {}

    def _snapshots(self) -> Dict[str, dict]:
        snapshots = {hop: stats["metrics"]
                     for hop, stats in self._session.topology.stats().items()}
        snapshots["driver"] = get_registry().snapshot()
        return snapshots

    def close(self) -> None:
        after = self._snapshots()
        self.deltas = {hop: _delta(after[hop], self._before[hop])
                       for hop in after}

    def count(self, hop: str, name: str) -> float:
        return self.deltas.get(hop, {}).get("counters", {}).get(name, 0)

    def gauge(self, hop: str, name: str) -> float:
        return self.deltas.get(hop, {}).get("gauges", {}).get(name, 0.0)

    def hist(self, hop: str, name: str) -> dict:
        return self.deltas.get(hop, {}).get("histograms", {}).get(
            name, {"count": 0, "sum": 0.0})

    def mean_ms(self, hop: str, name: str) -> float:
        hist = self.hist(hop, name)
        return 1e3 * hist["sum"] / hist["count"] if hist["count"] else 0.0

    def total(self, name: str) -> float:
        """A counter summed over every server-side hop."""
        return sum(self.count(hop, name) for hop in self.deltas
                   if hop != "driver")


# -- span arithmetic -----------------------------------------------------------

_SECTIONS = ("driver.write_section", "driver.read_section")


class SectionTimes:
    """Per-section sums of span durations, keyed ``name[:message]``.

    A span belongs to the section span it descends from; a probe span
    belongs to the section of the RPC it explains."""

    def __init__(self, spans: List[dict], collect_times: List[tuple]):
        by_id = {span["span_id"]: span for span in spans}
        roots: Dict[int, Optional[int]] = {}

        def root_of(span_id: Optional[int]) -> Optional[int]:
            chain = []
            while span_id is not None and span_id not in roots:
                span = by_id.get(span_id)
                if span is None:
                    break
                chain.append(span_id)
                if span["name"] in _SECTIONS:
                    roots[span_id] = span_id
                    break
                span_id = span["attrs"].get("explains") or span["parent_id"]
            found = roots.get(span_id) if span_id is not None else None
            for member in chain:
                roots[member] = found
            return found

        self.durations: Dict[str, List[float]] = {name: [] for name in _SECTIONS}
        #: per section kind: [RPC spans, their summed seconds]
        self.rpcs: Dict[str, List[float]] = {name: [0, 0.0] for name in _SECTIONS}
        parts: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        order: Dict[str, List[int]] = {name: [] for name in _SECTIONS}
        for span in spans:
            if span["name"] in _SECTIONS:
                order[span["name"]].append(span["span_id"])
                self.durations[span["name"]].append(span["end"] - span["start"])
                continue
            root = root_of(span["span_id"])
            if root is None:
                continue
            message = span["attrs"].get("message")
            key = f"{span['name']}:{message}" if message else span["name"]
            seconds = span["end"] - span["start"]
            parts[root][key] += seconds
            if span["name"] == "transport.rpc":
                tally = self.rpcs[by_id[root]["name"]]
                tally[0] += 1
                tally[1] += seconds
        # the client's collect timers, read around each traced wl_release
        for root, word_diff, translate in collect_times:
            if root in by_id:
                parts[root]["client.collect.word_diff"] += word_diff
                parts[root]["client.collect.translate"] += translate
        self.parts = {name: [parts[root] for root in order[name]]
                      for name in _SECTIONS}

    def median_ms(self, section: str, *keys: str) -> float:
        """Median of the summed duration of ``keys`` over the sections in
        which any of them occurred (probe spans exist only for the
        sections that were replayed; an update is applied only by the
        reads that found one)."""
        values = [sum(row.get(key, 0.0) for key in keys)
                  for row in self.parts[section]
                  if any(key in row for key in keys)]
        return 1e3 * statistics.median(values) if values else 0.0

    def section_ms(self, section: str) -> float:
        values = self.durations[section]
        return 1e3 * statistics.median(values) if values else 0.0

    def rpc_overhead_ms(self, sections, dispatch: dict) -> float:
        """Mean per RPC of (client-observed wall − the serving hop's own
        dispatch time), over the RPCs of ``sections``; ``dispatch`` is
        that hop's dispatch histogram over the same window."""
        count = sum(self.rpcs[section][0] for section in sections)
        wall = sum(self.rpcs[section][1] for section in sections)
        return 1e3 * (wall - dispatch["sum"]) / count if count else 0.0


WRITE, READ = _SECTIONS
_RPC_ACQUIRE = "transport.rpc:LockAcquireRequest"
_RPC_RELEASE = "transport.rpc:LockReleaseRequest"


def _attributed_ms(times: SectionTimes, section: str) -> float:
    """Median per replayed section of the time some span or probe
    accounts for: the driver's modify, the client's collect phases and
    apply, every RPC's wall time (server dispatch plus transport), and
    the client-side encode of each request and decode of each reply."""
    named = ("memory.modify", "client.collect.word_diff",
             "client.collect.translate", "client.apply_update")
    prefixes = ("transport.rpc:", "wire.encode_request:", "wire.decode_reply:")
    values = [sum(value for key, value in row.items()
                  if key in named or key.startswith(prefixes))
              for row in times.parts[section]
              if any(key.startswith("wire.encode_request:") for key in row)]
    return 1e3 * statistics.median(values) if values else 0.0


def _write_trace(path: str, spans: List[dict], workload: str) -> None:
    """Spans as ``{name, start, end, parent, cycle_id}`` (+ attributes)."""
    by_id = {span["span_id"]: span for span in spans}

    def cycle_of(span: dict) -> Optional[int]:
        while span is not None:
            if "cycle_id" in span["attrs"]:
                return span["attrs"]["cycle_id"]
            span = by_id.get(span["attrs"].get("explains")
                             or span["parent_id"])
        return None

    rows = []
    for span in spans[:TRACE_FILE_SPANS]:
        attrs = {key: value for key, value in span["attrs"].items()
                 if key not in ("cycle_id", "explains")}
        rows.append({"id": span["span_id"], "name": span["name"],
                     "start": span["start"], "end": span["end"],
                     "parent": span["attrs"].get("explains")
                     or span["parent_id"],
                     "cycle_id": cycle_of(span), "attrs": attrs})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "spans_recorded": len(spans),
                   "spans": rows}, handle)


# -- the traced run ------------------------------------------------------------

def per_layer(session: driver.Session, recorder: Recorder, seconds: float,
              run_dir: str, trace_path: str):
    """Traced window, then untraced window → (samples, per-layer metrics).

    ``samples`` (what the gate reads as attempted/failed) covers both
    windows."""
    workload = session.workload
    tracer = session.tracer
    shadow = Shadow(workload, tracer, run_dir)
    try:
        def replay(_cycle=None, limit=None) -> None:
            for call in recorder.drain()[:limit]:
                shadow.replay(call)

        # everything since the segment was opened, so the shadow starts
        # where the real servers did
        replay()
        session.tracing = True
        # alternating workloads replay after every cycle; the concurrent
        # one has no cycles and replays after each window
        driver.warm_up(session, seconds, replay)
        replay()
        tracer.clear()
        session.collect_times.clear()
        traced_window = Window(session)
        traced = session.run_window(seconds / 2.0, replay)
        traced_window.close()
        session.tracing = False
        recorder.active = False
        replay(limit=REPLAY_LIMIT)
        spans = tracer.export()["spans"]
    finally:
        session.tracing = False
        recorder.active = False
        shadow.close()

    counts = Window(session)
    untraced = session.run_window(seconds / 2.0)
    counts.close()
    session.final_checks(untraced)

    times = SectionTimes(spans, session.collect_times)
    _write_trace(trace_path, spans, workload.name)
    metrics = _metrics(workload, times, traced_window, counts, untraced)
    untraced.failed += traced.failed
    untraced.raised += traced.raised
    untraced.errors.extend(traced.errors)
    untraced.write.extend(traced.write)
    untraced.read.extend(traced.read)
    return untraced, metrics


def _metrics(workload, times: SectionTimes, traced_window: Window,
             counts: Window, untraced: driver.Samples) -> Dict[str, float]:
    writes = max(1, len(untraced.write))
    reads = max(1, len(untraced.read))
    sections = writes + reads
    first_hop = "relay" if workload.relay else "origin"
    first_hop_dispatch = ("proxy.dispatch_seconds" if workload.relay
                          else "server.dispatch_seconds")

    def per_write(hop: str, name: str) -> float:
        return counts.count(hop, name) / writes

    def per_read(hop: str, name: str) -> float:
        return counts.count(hop, name) / reads

    release_rpc = times.median_ms(WRITE, _RPC_RELEASE)
    collect_word = times.median_ms(WRITE, "client.collect.word_diff")
    collect_translate = times.median_ms(WRITE, "client.collect.translate")
    release_other = times.median_ms(WRITE, "client.wl_release") - (
        collect_word + collect_translate + release_rpc)

    # RPC wall (traced spans) against what the first hop says it spent
    # dispatching over the same window (the one GetStats that opens the
    # window rides along in the hop's histogram: < 1 ms in seconds)
    roundtrip_overhead = times.rpc_overhead_ms(
        _SECTIONS, traced_window.hist(first_hop, first_hop_dispatch))

    skipped = counts.count("driver", "client.validations_skipped")
    validated = counts.count("driver", "client.validations_sent")
    cache_hits = counts.total("diff_cache.hits")
    cache_lookups = cache_hits + counts.total("diff_cache.misses")
    relay_hits = counts.count("relay", "proxy.hits")
    relay_requests = relay_hits + counts.count("relay", "proxy.forwards")

    traced_cycle = times.section_ms(WRITE) + times.section_ms(READ)
    untraced_cycle = 1e3 * (statistics.median(untraced.write)
                            + statistics.median(untraced.read)) \
        if untraced.write and untraced.read else 0.0
    attributed = _attributed_ms(times, WRITE) + _attributed_ms(times, READ)

    return {
        "memory.modify_ms": times.median_ms(WRITE, "memory.modify"),
        "memory.write_faults_per_write": per_write("driver", "mmu.write_faults"),
        "client.collect_word_diff_ms": collect_word,
        "client.collect_translate_ms": collect_translate,
        "client.release_other_ms": release_other,
        "client.nodiff_runs": counts.count("driver", "client.collect.nodiff_runs"),
        "client.apply_ms": times.median_ms(READ, "client.apply_update"),
        "client.updates_applied_per_read": per_read("driver", "client.updates_applied"),
        "client.acquire_rpc_ms": times.median_ms(WRITE, _RPC_ACQUIRE),
        "client.release_rpc_ms": release_rpc,
        "client.validate_rpc_ms": times.median_ms(READ, _RPC_ACQUIRE),
        "wire.encode_release_ms": times.median_ms(
            WRITE, "wire.encode_request:LockReleaseRequest"),
        "wire.decode_release_ms": times.median_ms(
            WRITE, "wire.decode_request:LockReleaseRequest"),
        "wire.encode_update_ms": times.median_ms(
            READ, "wire.encode_reply:LockAcquireRequest"),
        "wire.decode_update_ms": times.median_ms(
            READ, "wire.decode_reply:LockAcquireRequest"),
        "wire.bytes_copied_per_write": (
            counts.count("driver", "wire.bytes_copied")
            + counts.total("wire.bytes_copied")) / writes,
        "wire.diff_bytes_per_write": per_write("driver", "client.collect.rle_bytes"),
        "wire.swizzles_per_write": per_write("driver", "wire.swizzle.pointers_to_mips"),
        "wire.unswizzles_per_read": per_read("driver", "wire.swizzle.mips_to_pointers"),
        "transport.requests_per_section":
            counts.count("driver", "transport.requests") / sections,
        "transport.roundtrip_overhead_ms": roundtrip_overhead,
        "transport.reply_queue_wait_ms": counts.mean_ms(
            first_hop, "transport.server.reply_queue_wait_seconds"),
        "transport.retries": counts.count("driver", "transport.retries"),
        "transport.reconnects": counts.count("driver", "transport.reconnects"),
        "server.dispatch_ms_per_request":
            counts.mean_ms("origin", "server.dispatch_seconds"),
        "server.release_dispatch_ms": times.median_ms(
            WRITE, "server.dispatch:LockReleaseRequest"),
        "server.validate_dispatch_ms": times.median_ms(
            READ, "server.dispatch:LockAcquireRequest"),
        "server.apply_ms": times.median_ms(WRITE, "server.apply:LockReleaseRequest"),
        "server.wal_append_ms": counts.mean_ms("origin", "server.wal_append_seconds"),
        "server.wal_bytes_per_write": per_write("origin", "server.wal_bytes"),
        "server.update_build_ms": times.median_ms(
            WRITE, "server.update_build:LockReleaseRequest"),
        "server.diff_cache_hit_rate":
            cache_hits / cache_lookups if cache_lookups else 0.0,
        "server.updates_built_per_read": per_read("origin", "server.updates_built"),
        "server.lock_write_wait_ms":
            counts.mean_ms("origin", "server.lock.write_wait_seconds"),
        "server.lock_read_wait_ms":
            counts.mean_ms("origin", "server.lock.read_wait_seconds"),
        "server.lock_denials_per_write": per_write("origin", "server.lock_denials"),
        "server.errors": counts.total("server.errors") + counts.total("proxy.errors"),
        # replication.* and proxy.* have no source outside the replicated,
        # relayed topology and read 0 there
        "replication.quorum_wait_ms":
            counts.mean_ms("origin", "server.quorum_wait_seconds"),
        "replication.appends_per_write": per_write("origin", "replication.appends"),
        "replication.quorum_degrades": counts.count("origin", "server.quorum_degrades"),
        "replication.lag_versions_end": counts.gauge("origin", "replication.lag_versions"),
        "replication.backup_dispatch_ms":
            counts.mean_ms("backup", "server.dispatch_seconds"),
        "proxy.hit_rate": relay_hits / relay_requests if relay_requests else 0.0,
        "proxy.forwards_per_cycle": per_write("relay", "proxy.forwards"),
        "proxy.dispatch_ms": counts.mean_ms("relay", "proxy.dispatch_seconds"),
        # forwarded requests (the write section's acquire and release):
        # what the client waited beyond the origin's own dispatch — two
        # hops of transport plus the relay's work
        "proxy.hop_overhead_ms": times.rpc_overhead_ms(
            (WRITE,), traced_window.hist("origin", "server.dispatch_seconds"))
        if workload.relay else 0.0,
        "coherence.validations_skipped_share":
            skipped / (skipped + validated) if skipped + validated else 0.0,
        "driver.write_section_p99_ms":
            1e3 * driver.percentile(untraced.write, 99) if untraced.write else 0.0,
        "driver.read_section_p99_ms":
            1e3 * driver.percentile(untraced.read, 99) if untraced.read else 0.0,
        "driver.sample_count": len(untraced.write) + len(untraced.read),
        "ledger.unattributed_share":
            1.0 - attributed / traced_cycle if traced_cycle else 0.0,
        "ledger.tracing_overhead_share":
            (traced_cycle - untraced_cycle) / untraced_cycle
            if untraced_cycle else 0.0,
    }
